// Tests for the sharded service fleet (src/cluster): consistent-ring
// placement properties, the router's byte-identity contract (a routed
// response equals the same request served solo, byte for byte — sync,
// async, and campaign), hot-key replication and dead-shard failover,
// and cross-shard segment shipping including torn/corrupt rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/forward.h"
#include "cluster/peers.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "service/protocol.h"
#include "service/server.h"
#include "store/segment.h"
#include "support/check.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/socket.h"
#include "support/strings.h"

namespace bfdn {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under gtest's temp root.
std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("bfdn_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::string> labels(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(str_format("17%02zu", i));  // port-style labels
  }
  return out;
}

/// One raw protocol exchange over a fresh socket — the tests' view of
/// the wire, independent of ServiceClient's conveniences.
std::string raw_call(std::uint16_t port, const std::string& line) {
  Socket socket = connect_local(port, /*recv_timeout_ms=*/30000);
  EXPECT_TRUE(socket.send_all(line + "\n"));
  const auto response = socket.recv_line();
  EXPECT_TRUE(response.has_value());
  return response.value_or("");
}

ServiceRequest run_request(const std::string& id, std::uint64_t seed,
                           std::int32_t k = 4) {
  ServiceRequest request;
  request.id = id;
  request.recipe.family = "caterpillar";
  request.recipe.nodes = 300;
  request.recipe.depth = 8;
  request.recipe.arms = 3;
  request.recipe.seed = seed;
  request.algo.kind = AlgoKind::kBfdn;
  request.algo.k = k;
  return request;
}

/// A small fleet of in-process shards plus a router over them.
struct Fleet {
  std::vector<std::unique_ptr<ServiceServer>> shards;
  std::unique_ptr<RouterServer> router;

  explicit Fleet(std::size_t n, RouterOptions router_options = {},
                 ServerOptions shard_options = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      ServerOptions options = shard_options;
      options.port = 0;
      shards.push_back(std::make_unique<ServiceServer>(options));
      shards.back()->start();
    }
    for (std::size_t i = 0; i < n; ++i) {
      router_options.peers.push_back(shards[i]->port());
    }
    router_options.port = 0;
    router = std::make_unique<RouterServer>(router_options);
    router->start();
  }
};

// --- consistent ring ---

TEST(ConsistentRingTest, DeterministicAcrossInstances) {
  const ConsistentRing a(labels(4), 64);
  const ConsistentRing b(labels(4), 64);
  std::uint64_t state = 7;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = splitmix64(state);
    EXPECT_EQ(a.owner(key), b.owner(key));
    EXPECT_EQ(a.owners(key, 2), b.owners(key, 2));
  }
}

TEST(ConsistentRingTest, PointPlacementIsStable) {
  // The placement hash is part of the fleet's on-the-wire contract
  // (two routers over the same peer list must agree); pin one value.
  EXPECT_EQ(ConsistentRing::point("1700", 0),
            ConsistentRing::point("1700", 0));
  EXPECT_NE(ConsistentRing::point("1700", 0),
            ConsistentRing::point("1700", 1));
  EXPECT_NE(ConsistentRing::point("1700", 0),
            ConsistentRing::point("1701", 0));
}

TEST(ConsistentRingTest, BalanceWithinSlack) {
  const std::size_t kPeers = 4;
  const std::int64_t kKeys = 20000;
  const ConsistentRing ring(labels(kPeers), 64);
  std::map<std::int32_t, std::int64_t> counts;
  std::uint64_t state = 99;
  for (std::int64_t i = 0; i < kKeys; ++i) {
    ++counts[ring.owner(splitmix64(state))];
  }
  EXPECT_EQ(counts.size(), kPeers);  // every peer owns something
  const double ideal = static_cast<double>(kKeys) / kPeers;
  for (const auto& [peer, count] : counts) {
    // 64 vnodes keeps arc-length variance small; 1.5x ideal is far
    // outside the expected envelope and still catches a broken hash.
    EXPECT_LT(static_cast<double>(count), ideal * 1.5)
        << "peer " << peer << " owns " << count;
    EXPECT_GT(static_cast<double>(count), ideal * 0.5)
        << "peer " << peer << " owns " << count;
  }
}

TEST(ConsistentRingTest, AddingPeerMovesOnlyKeysToNewPeer) {
  const ConsistentRing before(labels(3), 64);
  std::vector<std::string> grown = labels(3);
  grown.push_back("1800");
  const ConsistentRing after(grown, 64);
  std::uint64_t state = 5;
  std::int64_t moved = 0;
  const std::int64_t kKeys = 8000;
  for (std::int64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t key = splitmix64(state);
    const std::int32_t old_owner = before.owner(key);
    const std::int32_t new_owner = after.owner(key);
    if (new_owner != old_owner) {
      // Consistent hashing's defining property: growth only moves keys
      // onto the new peer, never between surviving peers.
      EXPECT_EQ(new_owner, 3) << "key moved between surviving peers";
      ++moved;
    }
  }
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(kKeys);
  EXPECT_GT(fraction, 0.10);  // the new peer took a real share...
  EXPECT_LT(fraction, 0.45);  // ...but nowhere near a full reshuffle
}

TEST(ConsistentRingTest, OwnersDistinctPrimaryFirst) {
  const ConsistentRing ring(labels(4), 32);
  std::uint64_t state = 13;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = splitmix64(state);
    const std::vector<std::int32_t> two = ring.owners(key, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], ring.owner(key));
    EXPECT_NE(two[0], two[1]);
    const std::vector<std::int32_t> all = ring.owners(key, 99);
    EXPECT_EQ(all.size(), 4u);
    EXPECT_EQ(std::set<std::int32_t>(all.begin(), all.end()).size(), 4u);
  }
}

// --- peer spec ---

TEST(PeerSpecTest, ParsesAndValidates) {
  const std::vector<std::uint16_t> ports = parse_peer_ports("7431,7432");
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0], 7431);
  EXPECT_EQ(ports[1], 7432);
  EXPECT_THROW(parse_peer_ports(""), CheckError);
  EXPECT_THROW(parse_peer_ports("7431,"), CheckError);
  EXPECT_THROW(parse_peer_ports("7431,abc"), CheckError);
  EXPECT_THROW(parse_peer_ports("7431,99999"), CheckError);
  EXPECT_THROW(parse_peer_ports("7431,7431"), CheckError);
}

// --- routed == solo byte identity ---

TEST(RouterTest, RoutedEqualsSoloByteForByte) {
  ServiceServer solo(ServerOptions{});
  solo.start();
  RouterOptions router_options;
  router_options.hot_threshold = 1000;  // identity run stays replica-free
  Fleet fleet(2, router_options);

  // A grid over the servable axes: sync, shortcut, breakdown schedule,
  // async clocks, different k — cold first pass, cached second pass.
  std::vector<ServiceRequest> grid;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    grid.push_back(run_request(str_format("s%llu",
                                          (unsigned long long)seed),
                               seed, seed % 2 == 0 ? 4 : 8));
  }
  {
    ServiceRequest request = run_request("shortcut", 9);
    request.algo.options.shortcut_reanchor = true;
    grid.push_back(request);
  }
  {
    ServiceRequest request = run_request("sched", 10);
    request.schedule.kind = ScheduleKind::kRoundRobin;
    request.schedule.horizon = 64;
    grid.push_back(request);
  }
  {
    ServiceRequest request = run_request("async", 11);
    request.async.kind = AsyncKind::kFixedRate;
    request.async.period = 2;
    request.async.num_slow = 2;
    grid.push_back(request);
  }

  for (int pass = 0; pass < 2; ++pass) {
    for (const ServiceRequest& request : grid) {
      const std::string line = serialize_request(request);
      const std::string from_solo = raw_call(solo.port(), line);
      const std::string from_router =
          raw_call(fleet.router->port(), line);
      EXPECT_EQ(from_solo, from_router)
          << "pass " << pass << " id " << request.id;
      if (pass == 1) {
        EXPECT_NE(from_router.find("\"cached\":true"), std::string::npos);
      }
    }
  }
}

TEST(RouterTest, RoutedCampaignEqualsSoloCampaign) {
  ServiceServer solo(ServerOptions{});
  solo.start();
  Fleet fleet(2);

  ServiceRequest campaign = run_request("camp", 21);
  campaign.type = RequestType::kCampaign;
  campaign.campaign_ks = {2, 4, 8};
  campaign.campaign_seeds = {1, 2};
  const std::string line = serialize_request(campaign);

  // Cold and cached passes must both match byte for byte — member
  // order, cached flags, keys, and the spliced result objects.
  for (int pass = 0; pass < 2; ++pass) {
    const std::string from_solo = raw_call(solo.port(), line);
    const std::string from_router = raw_call(fleet.router->port(), line);
    EXPECT_EQ(from_solo, from_router) << "pass " << pass;
    EXPECT_NE(from_solo.find("\"members_total\":6"), std::string::npos);
  }

  // Member order is the expansion order (k-major, then seed): the
  // routed members' keys line up with expand_campaign's fingerprints.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(raw_call(fleet.router->port(), line), doc,
                         &error))
      << error;
  const std::vector<ServiceRequest> members = expand_campaign(campaign);
  const JsonValue& slots = doc.at("members");
  ASSERT_EQ(slots.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(slots.at(i).get_string("key", ""),
              str_format("%016llx",
                         static_cast<unsigned long long>(
                             request_fingerprint(members[i]))));
  }
}

// --- routing introspection and stats ---

TEST(RouterTest, ShardRequestReportsOwners) {
  Fleet fleet(3);
  ServiceRequest request = run_request("probe", 5);
  request.type = RequestType::kShard;
  request.id = "probe";
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(raw_call(fleet.router->port(),
                                  serialize_request(request)),
                         doc, &error))
      << error;
  EXPECT_EQ(doc.get_string("status", ""), "ok");
  const JsonValue& owners = doc.at("owners");
  ASSERT_EQ(owners.size(), 1u);  // cold key: primary only
  EXPECT_GE(owners.at(0).as_int(), 0);
  EXPECT_LT(owners.at(0).as_int(), 3);

  // The fingerprint matches the run fingerprint (shard canonicalizes
  // like the run it describes).
  ServiceRequest as_run = request;
  as_run.type = RequestType::kRun;
  EXPECT_EQ(doc.get_string("key", ""),
            str_format("%016llx", static_cast<unsigned long long>(
                                      request_fingerprint(as_run))));

  // Shards themselves refuse routing questions (the ring lives in the
  // cluster layer, above the service).
  const std::string from_shard =
      raw_call(fleet.shards[0]->port(), serialize_request(request));
  EXPECT_NE(from_shard.find("\"status\":\"error\""), std::string::npos);
}

/// The stats document's "requests" block, parsed.
JsonValue request_counters(const std::string& stats_json) {
  JsonValue stats;
  std::string error;
  EXPECT_TRUE(json_parse(stats_json, stats, &error)) << error;
  return stats.at("requests");
}

TEST(RouterTest, PeerStatsFansOut) {
  ServerOptions shard_options;
  shard_options.max_nodes = 1000;
  Fleet fleet(2, RouterOptions{}, shard_options);
  raw_call(fleet.router->port(),
           serialize_request(run_request("warm", 31)));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(raw_call(fleet.router->port(),
                                  "{\"type\":\"peer_stats\"}"),
                         doc, &error))
      << error;
  EXPECT_EQ(doc.get_string("status", ""), "ok");
  const JsonValue& peers = doc.at("peers");
  ASSERT_EQ(peers.size(), 2u);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    EXPECT_TRUE(peers.at(i).at("stats").is_object());
    // Every shard's stats carries the cluster identity block.
    EXPECT_TRUE(peers.at(i).at("stats").has("cluster"));
  }

  // Once every call has returned, each daemon has counted each answer
  // once under its envelope status — the shards' answers to the stats
  // probes above included. The mix adds a cache hit, a campaign, a
  // stats request, a malformed line and a tree the shards refuse.
  ServiceRequest campaign = run_request("camp", 32);
  campaign.type = RequestType::kCampaign;
  campaign.campaign_ks = {2, 4};
  ServiceRequest huge = run_request("huge", 33);
  huge.recipe.nodes = 100000;
  for (const std::string& line :
       {serialize_request(run_request("warm", 31)),
        serialize_request(campaign), std::string("{\"type\":\"stats\"}"),
        std::string("{not json"), serialize_request(huge)}) {
    raw_call(fleet.router->port(), line);
  }
  const JsonValue routed = request_counters(fleet.router->stats_json());
  EXPECT_EQ(routed.get_int("total", -1), 7);
  EXPECT_EQ(routed.get_int("ok", -1), 5);
  EXPECT_EQ(routed.get_int("retry", -1), 0);
  EXPECT_EQ(routed.get_int("error", -1), 2);
  EXPECT_EQ(routed.get_int("protocol_errors", -1), 1);
  for (const auto& shard : fleet.shards) {
    const JsonValue counted = request_counters(shard->stats_json());
    EXPECT_EQ(counted.get_int("total", -1),
              counted.get_int("ok", 0) + counted.get_int("retry", 0) +
                  counted.get_int("error", 0));
    EXPECT_EQ(counted.get_int("protocol_errors", -1), 0);
  }
}

// --- hot-key replication and failover ---

TEST(RouterTest, HotKeyReplicatesAndSurvivesShardDeath) {
  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.hot_threshold = 3;
  router_options.forward_timeout_ms = 5000;
  Fleet fleet(3, router_options);

  const ServiceRequest request = run_request("hot", 41);
  const std::string line = serialize_request(request);
  std::string expected;
  for (int i = 0; i < 8; ++i) {
    const std::string response = raw_call(fleet.router->port(), line);
    if (expected.empty()) {
      expected = response;
    } else {
      // Replica-computed responses differ at most in the cached flag;
      // the result object itself is byte-identical (determinism).
      const std::size_t result_pos = response.find("\"result\":");
      ASSERT_NE(result_pos, std::string::npos);
      EXPECT_EQ(response.substr(result_pos),
                expected.substr(expected.find("\"result\":")));
    }
  }

  // The key is hot now: the shard request reports both replicas.
  ServiceRequest probe = request;
  probe.type = RequestType::kShard;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(raw_call(fleet.router->port(),
                                  serialize_request(probe)),
                         doc, &error))
      << error;
  const JsonValue& owners = doc.at("owners");
  ASSERT_EQ(owners.size(), 2u);

  // Kill the primary replica; the hot key fails over to the survivor
  // and every subsequent request still answers ok.
  const auto primary = static_cast<std::size_t>(owners.at(0).as_int());
  fleet.shards[primary]->drain();
  for (int i = 0; i < 4; ++i) {
    const std::string response = raw_call(fleet.router->port(), line);
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
    const std::size_t result_pos = response.find("\"result\":");
    ASSERT_NE(result_pos, std::string::npos);
    EXPECT_EQ(response.substr(result_pos),
              expected.substr(expected.find("\"result\":")));
  }

  // A cold key owned solely by the dead shard answers retry (the
  // protocol's backpressure envelope — clients resend later).
  bool saw_retry = false;
  for (std::uint64_t seed = 100; seed < 160 && !saw_retry; ++seed) {
    ServiceRequest cold = run_request("cold", seed);
    ServiceRequest cold_probe = cold;
    cold_probe.type = RequestType::kShard;
    JsonValue cold_doc;
    ASSERT_TRUE(json_parse(raw_call(fleet.router->port(),
                                    serialize_request(cold_probe)),
                           cold_doc, &error))
        << error;
    if (static_cast<std::size_t>(
            cold_doc.at("owners").at(0).as_int()) != primary) {
      continue;
    }
    const std::string response =
        raw_call(fleet.router->port(), serialize_request(cold));
    EXPECT_NE(response.find("\"status\":\"retry\""), std::string::npos)
        << response;
    saw_retry = true;
  }
  EXPECT_TRUE(saw_retry) << "no sampled key was owned by the dead shard";
}

// --- segment shipping ---

TEST(ClusterShipTest, ShipWarmsPeerMemoryToMemory) {
  Fleet fleet(2);
  // Warm shard 0 directly with a few runs.
  std::vector<std::string> lines;
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    lines.push_back(serialize_request(run_request("w", seed)));
    raw_call(fleet.shards[0]->port(), lines.back());
  }

  // Ship shard 0 -> shard 1 through the router's from/to form.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(
      raw_call(fleet.router->port(),
               "{\"id\":\"ship\",\"type\":\"ship_segment\",\"from\":0,"
               "\"to\":1}"),
      doc, &error))
      << error;
  ASSERT_EQ(doc.get_string("status", ""), "ok") << doc.get_string(
      "error", "");
  const JsonValue& ship = doc.at("ship");
  EXPECT_EQ(ship.get_int("records", 0), 4);
  EXPECT_EQ(ship.at("fill").get_int("imported", 0), 4);
  EXPECT_EQ(ship.at("fill").get_int("corrupted_skipped", 0), 0);

  // The peer now serves every shipped run from cache, byte-identical
  // to the source shard's copy.
  for (const std::string& line : lines) {
    const std::string from_peer = raw_call(fleet.shards[1]->port(), line);
    EXPECT_NE(from_peer.find("\"cached\":true"), std::string::npos);
    const std::string from_source =
        raw_call(fleet.shards[0]->port(), line);
    EXPECT_EQ(from_peer, from_source);
  }

  // Re-shipping dedups: everything is a duplicate now.
  ASSERT_TRUE(json_parse(
      raw_call(fleet.router->port(),
               "{\"id\":\"ship2\",\"type\":\"ship_segment\",\"from\":0,"
               "\"to\":1}"),
      doc, &error))
      << error;
  EXPECT_EQ(doc.at("ship").at("fill").get_int("duplicates", 0), 4);
  EXPECT_EQ(doc.at("ship").at("fill").get_int("imported", 0), 0);
}

TEST(ClusterShipTest, ShipIntoStoreBackedPeerIsDurable) {
  ServerOptions source_options;
  ServerOptions sink_options;
  const std::string sink_dir = test_dir("ship_sink");
  sink_options.store_dir = sink_dir;
  sink_options.store_sync = false;

  ServiceServer source(source_options);
  source.start();
  const std::string line = serialize_request(run_request("d", 77));
  raw_call(source.port(), line);

  std::string expected;
  {
    ServiceServer sink(sink_options);
    sink.start();
    const std::string ship = raw_call(
        source.port(),
        str_format("{\"type\":\"ship_segment\",\"port\":%u}",
                   static_cast<unsigned>(sink.port())));
    EXPECT_NE(ship.find("\"imported\":1"), std::string::npos) << ship;
    expected = raw_call(sink.port(), line);
    EXPECT_NE(expected.find("\"cached\":true"), std::string::npos);
    sink.drain();
  }

  // The shipped record landed in a real segment file: a fresh server
  // over the same directory recovers it and serves identical bytes.
  ServiceServer reborn(sink_options);
  reborn.start();
  EXPECT_EQ(raw_call(reborn.port(), line), expected);
}

TEST(ClusterShipTest, FillRejectsCorruptAndTornRecords) {
  ServiceServer shard(ServerOptions{});
  shard.start();

  // Build an image by hand: one good record, one corrupt (payload bit
  // flipped after encoding), one torn (frame cut short).
  const std::string payload_a = "{\"v\":1}";
  const std::string payload_b = "{\"v\":2}";
  const std::string payload_c = "{\"v\":3}";
  std::string image(store::kSegmentMagic, store::kSegmentHeaderBytes);
  store::encode_record(0xa1, payload_a, &image);
  const std::size_t corrupt_at = image.size() + store::kRecordHeaderBytes;
  store::encode_record(0xb2, payload_b, &image);
  image[corrupt_at] ^= 0x40;  // flip a payload bit in record b
  store::encode_record(0xc3, payload_c, &image);
  image.resize(image.size() - 4);  // tear record c's tail off

  Socket socket = connect_local(shard.port(), 30000);
  ASSERT_TRUE(socket.send_all(
      str_format("{\"id\":\"f\",\"type\":\"segment_fill\",\"bytes\":%zu}"
                 "\n",
                 image.size())));
  ASSERT_TRUE(socket.send_all(image));
  const auto ack = socket.recv_line();
  ASSERT_TRUE(ack.has_value());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(*ack, doc, &error)) << error;
  ASSERT_EQ(doc.get_string("status", ""), "ok");
  const JsonValue& fill = doc.at("fill");
  EXPECT_EQ(fill.get_int("imported", 0), 1);
  EXPECT_EQ(fill.get_int("corrupted_skipped", 0), 1);
  EXPECT_EQ(fill.get_int("torn_truncated", 0), 1);

  // Wrong magic is refused outright.
  Socket bad = connect_local(shard.port(), 30000);
  std::string junk = "XXXXXXXX";
  store::encode_record(0xd4, payload_a, &junk);
  ASSERT_TRUE(bad.send_all(
      str_format("{\"type\":\"segment_fill\",\"bytes\":%zu}\n",
                 junk.size())));
  ASSERT_TRUE(bad.send_all(junk));
  const auto refused = bad.recv_line();
  ASSERT_TRUE(refused.has_value());
  EXPECT_NE(refused->find("bad segment magic"), std::string::npos);
}

// --- concurrency storm (run under TSan via the tsan preset) ---

TEST(ClusterStormTest, ConcurrentForwardsReplicationAndShipping) {
  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.hot_threshold = 2;
  Fleet fleet(3, router_options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::vector<std::thread> clients;
  std::vector<std::int64_t> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&fleet, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string line;
        if (i % 3 == 0) {
          // Hot key shared by every thread → replication churn.
          line = serialize_request(run_request("hot", 7));
        } else if (i % 7 == 0) {
          line = "{\"type\":\"stats\"}";
        } else {
          line = serialize_request(run_request(
              "u", static_cast<std::uint64_t>(t * 1000 + i)));
        }
        const std::string response =
            raw_call(fleet.router->port(), line);
        if (response.find("\"status\":\"ok\"") == std::string::npos) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  // Concurrent cross-shard ships while the forwards are in flight.
  std::thread shipper([&fleet] {
    for (int i = 0; i < 6; ++i) {
      raw_call(fleet.router->port(),
               str_format("{\"type\":\"ship_segment\",\"from\":%d,"
                          "\"to\":%d}",
                          i % 3, (i + 1) % 3));
    }
  });
  for (std::thread& client : clients) client.join();
  shipper.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0)
        << "thread " << t;
  }

  // The router counted replica routing, and the fleet stayed coherent.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(raw_call(fleet.router->port(),
                                  "{\"type\":\"stats\"}"),
                         doc, &error))
      << error;
  const JsonValue& routing = doc.at("stats").at("routing");
  EXPECT_GT(routing.get_int("replica_routed", 0), 0);
  EXPECT_EQ(doc.at("stats").at("requests").get_int("protocol_errors", 0),
            0);
}

}  // namespace
}  // namespace bfdn
