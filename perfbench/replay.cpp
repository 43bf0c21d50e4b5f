// The traced half of a run: the workload's generated requests replayed
// in-process through the public function of each layer, in the order
// ServiceServer handles a request. Spans are recorded here, around the
// calls into each layer, kept in memory and reduced at the end.
//
// The cache spans time the same two-tier ResultCache the server runs
// (memory LRU over the ResultStore, read-through and write-behind
// included). The store's own cost per call comes from a probe that
// repeats the pass's store operations directly on a ResultStore; the
// store's share of a request is that cost times the store calls the
// cache made, taken out of the cache's self time.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "harness.h"
#include "service/cache.h"
#include "sim/batch_executor.h"
#include "store/result_store.h"
#include "support/check.h"
#include "support/strings.h"
#include "verify/spec.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using bfdn::ServiceRequest;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = 0;
  /// Layer calls the span covers (one span may time a loop of calls).
  std::int64_t calls = 1;
};

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock: the untraced passes that the tracing overhead is measured
/// against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::int32_t open(const char* name, std::int64_t request,
                    std::int64_t calls) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, current_, request, calls});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t span) {
    if (span < 0) return;
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t request,
        std::int64_t calls = 1)
      : tracer_(tracer), span_(tracer.open(name, request, calls)) {}
  ~Scope() { tracer_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

/// Engine counts summed over a pass; equal in both passes by
/// construction, and equal in every run with the same seed.
struct EngineCounts {
  std::int64_t rounds = 0;
  std::int64_t activations = 0;
  std::int64_t moves = 0;
  std::int64_t edge_events = 0;
  /// Activations of the runs that actually executed (coalesced batch
  /// members excluded): the denominator of ns_per_activation.
  std::int64_t executed_activations = 0;
  std::int64_t batch_members = 0;
  std::int64_t batch_coalesced = 0;

  void add(const bfdn::RunResult& result, bool executed) {
    rounds += result.rounds;
    activations += result.total_activations;
    for (const std::int64_t m : result.robot_moves) moves += m;
    edge_events += result.edge_events;
    if (executed) executed_activations += result.total_activations;
  }
  bool operator==(const EngineCounts&) const = default;
};

struct Pass {
  double wall_s = 0;
  std::vector<Span> spans;
  EngineCounts counts;
  /// The two-tier cache's counters and its store's hits.
  bfdn::ResultCache::Stats cache;
  std::int64_t store_hits = 0;
  double flush_ms = 0;
  /// cold_explore: every (key, result) the pass wrote, in order.
  std::vector<std::pair<std::uint64_t, std::string>> written;
  /// Stream workloads: the replayed responses of the sampled indices.
  std::vector<std::string> sample_responses;
};

/// Mirrors execute_run's engine configuration; the replayed bytes are
/// compared against execute_run's, so a divergence fails the run.
bfdn::RunResult run_engine(const ServiceRequest& request,
                           const bfdn::Tree& tree) {
  const std::unique_ptr<bfdn::Algorithm> algorithm =
      bfdn::make_algorithm(request.algo, tree);
  bfdn::RunConfig config;
  config.num_robots = request.algo.k;
  config.max_rounds = request.max_rounds;
  config.check_invariants = request.check_invariants;
  config.fast_forward = request.fast_forward;
  const auto schedule = request.schedule.make(request.algo.k);
  config.schedule = schedule.get();
  const auto async = request.async.make(request.algo.k);
  config.async = async.get();
  if (config.max_rounds == 0 && request.async.slowdown() > 1) {
    config.max_rounds =
        bfdn::default_round_limit(tree) * request.async.slowdown();
  }
  return bfdn::run_exploration(tree, *algorithm, config);
}

ServiceRequest parse_or_throw(const std::string& line) {
  ServiceRequest request;
  std::string error;
  BFDN_REQUIRE(bfdn::parse_request(line, request, &error),
               "replay: unparsable request: " + error);
  return request;
}

struct ReplayInput {
  Workload workload;
  WorkloadShape shape;
  const ServedRun* served;
  std::string work_dir;
  /// Request lines of the pass (stream: indices 0..n-1; set: draws).
  std::vector<std::string> lines;
  /// Set workloads: slot of each line, and each slot's request.
  std::vector<std::uint32_t> slots;
  std::vector<ServiceRequest> set;
};

void replay_run(const ReplayInput& in, Tracer& t, Pass& pass,
                std::int32_t pass_no) {
  bfdn::StoreOptions options;
  options.dir = bfdn::str_format("%s/replay%d-store", in.work_dir.c_str(),
                                 pass_no);
  bfdn::ResultStore store(options);
  bfdn::ResultCache cache(static_cast<std::size_t>(in.shape.cache), &store);
  const std::size_t sample = in.served->sample_expected.size();
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    std::string response;
    {
      Scope request_span(t, "request", id);
      ServiceRequest request;
      {
        Scope s(t, "protocol.parse", id);
        request = parse_or_throw(in.lines[i]);
      }
      std::uint64_t key = 0;
      {
        Scope s(t, "protocol.fingerprint", id);
        key = bfdn::request_fingerprint(request);
      }
      std::optional<std::string> cached;
      {
        Scope s(t, "cache.get", id);
        cached = cache.get(key);
      }
      BFDN_REQUIRE(!cached.has_value(), "replay: a cold request hit");
      std::optional<bfdn::Tree> tree;
      {
        Scope s(t, "graph.build", id);
        tree.emplace(request.recipe.build());
      }
      bfdn::RunResult result;
      {
        const bool async = request.async.kind != bfdn::AsyncKind::kNone;
        Scope s(t, async ? "sim.run_async" : "sim.run_sync", id);
        result = run_engine(request, *tree);
      }
      std::string payload;
      {
        Scope s(t, "protocol.serialize", id);
        payload = bfdn::serialize_run_result(request, *tree, result);
      }
      {
        Scope s(t, "cache.put", id);
        cache.put(key, payload);
      }
      {
        Scope s(t, "protocol.envelope", id);
        response = bfdn::ok_response(request.id, false, key, payload);
      }
      pass.counts.add(result, true);
      pass.written.emplace_back(key, std::move(payload));
    }
    if (i < sample) pass.sample_responses.push_back(std::move(response));
  }
  const auto flush_start = Clock::now();
  store.flush();
  pass.flush_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            flush_start)
                      .count();
  pass.cache = cache.stats();
  pass.store_hits = store.stats().hits;
}

void replay_campaign(const ReplayInput& in, Tracer& t, Pass& pass) {
  bfdn::ResultCache memory(static_cast<std::size_t>(in.shape.cache));
  const std::size_t sample = in.served->sample_expected.size();
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    std::string response;
    {
      Scope request_span(t, "request", id);
      ServiceRequest request;
      {
        Scope s(t, "protocol.parse", id);
        request = parse_or_throw(in.lines[i]);
      }
      std::vector<ServiceRequest> members;
      {
        Scope s(t, "protocol.expand", id);
        members = bfdn::expand_campaign(request);
      }
      const auto count = static_cast<std::int64_t>(members.size());
      std::vector<std::uint64_t> keys;
      {
        Scope s(t, "protocol.fingerprint", id, count);
        for (const ServiceRequest& member : members) {
          keys.push_back(bfdn::request_fingerprint(member));
        }
      }
      std::vector<std::optional<std::string>> found;
      {
        Scope s(t, "cache.get_many", id);
        memory.get_many(keys, &found);
      }
      BFDN_REQUIRE(std::none_of(found.begin(), found.end(),
                                [](const auto& f) { return f.has_value(); }),
                   "replay: a cold campaign member hit");
      std::optional<bfdn::Tree> tree;
      {
        Scope s(t, "graph.build", id);
        tree.emplace(request.recipe.build());
      }
      std::vector<bfdn::RunResult> results;
      bfdn::BatchExecutor::Stats stats;
      {
        Scope s(t, "sim.batch_run", id);
        bfdn::BatchExecutor batch(*tree);
        for (const ServiceRequest& member : members) {
          bfdn::RunConfig config;
          config.num_robots = member.algo.k;
          config.max_rounds = member.max_rounds;
          config.check_invariants = member.check_invariants;
          config.fast_forward = member.fast_forward;
          batch.add_member(bfdn::make_algorithm(member.algo, *tree), config,
                           bfdn::batch_coalesce_key(member));
        }
        results = batch.run();
        stats = batch.stats();
      }
      std::vector<bfdn::CampaignMemberResponse> slots(members.size());
      {
        Scope s(t, "protocol.serialize", id, count);
        for (std::size_t m = 0; m < members.size(); ++m) {
          slots[m] = {false, keys[m],
                      bfdn::serialize_run_result(members[m], *tree,
                                                 results[m])};
        }
      }
      {
        Scope s(t, "cache.put", id, count);
        for (const auto& slot : slots) memory.put(slot.key, slot.result_json);
      }
      {
        Scope s(t, "protocol.envelope", id);
        response = bfdn::campaign_response(request.id, slots);
      }
      std::set<std::string> executed;
      for (std::size_t m = 0; m < members.size(); ++m) {
        const std::string coalesce = bfdn::batch_coalesce_key(members[m]);
        pass.counts.add(results[m],
                        coalesce.empty() || executed.insert(coalesce).second);
      }
      pass.counts.batch_members += stats.members;
      pass.counts.batch_coalesced += stats.coalesced;
    }
    if (i < sample) pass.sample_responses.push_back(std::move(response));
  }
}

/// Hit path of warm_hits (memory) and store_rewarm (store read-through
/// with promotion into the small memory tier).
void replay_hits(const ReplayInput& in, Tracer& t, Pass& pass,
                 const std::vector<std::string>& expected) {
  std::optional<bfdn::ResultStore> store;
  if (in.workload == Workload::kStoreRewarm) {
    bfdn::StoreOptions options;
    options.dir = in.served->store_dir;
    store.emplace(options);
  }
  bfdn::ResultCache cache(static_cast<std::size_t>(in.shape.cache),
                          store.has_value() ? &*store : nullptr);
  if (!store.has_value()) {
    for (std::size_t slot = 0; slot < in.set.size(); ++slot) {
      cache.put(bfdn::request_fingerprint(in.set[slot]),
                in.served->set_results[slot]);
    }
  }
  const bfdn::ResultCache::Stats prefill = cache.stats();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    std::string response;
    {
      Scope request_span(t, "request", id);
      ServiceRequest request;
      {
        Scope s(t, "protocol.parse", id);
        request = parse_or_throw(in.lines[i]);
      }
      std::uint64_t key = 0;
      {
        Scope s(t, "protocol.fingerprint", id);
        key = bfdn::request_fingerprint(request);
      }
      std::optional<std::string> cached;
      {
        Scope s(t, "cache.get", id);
        cached = cache.get(key);
      }
      BFDN_REQUIRE(cached.has_value(), "replay: working-set miss");
      {
        Scope s(t, "protocol.envelope", id);
        response = bfdn::ok_response(request.id, true, key, *cached);
      }
    }
    BFDN_REQUIRE(response == expected[in.slots[i]],
                 "replay: hit bytes differ from execute_run");
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  pass.cache = cache.stats();
  pass.cache.hits -= prefill.hits;
  pass.cache.misses -= prefill.misses;
  pass.cache.store_hits -= prefill.store_hits;
  if (store.has_value()) pass.store_hits = store->stats().hits;
}

/// The store's cost per call, from the pass's store operations repeated
/// directly on a ResultStore: for cold_explore a lookup of each new key
/// (a miss) and its put into a fresh store, then the flush; for
/// store_rewarm a lookup of each drawn key in the served store.
struct StoreProbe {
  double get_ns = 0;
  std::int64_t gets = 0;
  double put_ns = 0;
  std::int64_t puts = 0;
};

StoreProbe probe_store(const ReplayInput& in, const Pass& pass) {
  StoreProbe probe;
  const auto elapsed_ns = [](Clock::time_point from) {
    return std::chrono::duration<double, std::nano>(Clock::now() - from)
        .count();
  };
  bfdn::StoreOptions options;
  if (in.workload == Workload::kColdExplore) {
    options.dir = in.work_dir + "/probe-store";
    bfdn::ResultStore store(options);
    for (const auto& [key, payload] : pass.written) {
      auto start = Clock::now();
      const bool found = store.get(key).has_value();
      probe.get_ns += elapsed_ns(start);
      BFDN_REQUIRE(!found, "store probe: a new key was found");
      start = Clock::now();
      store.put(key, payload);
      probe.put_ns += elapsed_ns(start);
    }
    probe.gets = probe.puts = static_cast<std::int64_t>(pass.written.size());
  } else if (in.workload == Workload::kStoreRewarm) {
    options.dir = in.served->store_dir;
    bfdn::ResultStore store(options);
    for (const std::uint32_t slot : in.slots) {
      const std::uint64_t key = bfdn::request_fingerprint(in.set[slot]);
      const auto start = Clock::now();
      const bool found = store.get(key).has_value();
      probe.get_ns += elapsed_ns(start);
      BFDN_REQUIRE(found, "store probe: a working-set key is missing");
    }
    probe.gets = static_cast<std::int64_t>(in.slots.size());
  }
  return probe;
}

Pass replay_pass(const ReplayInput& in, bool traced, std::int32_t pass_no,
                 const std::vector<std::string>& expected_hits) {
  Tracer tracer(traced);
  Pass pass;
  const auto start = Clock::now();
  switch (in.workload) {
    case Workload::kColdExplore:
      replay_run(in, tracer, pass, pass_no);
      break;
    case Workload::kCampaignSweep:
      replay_campaign(in, tracer, pass);
      break;
    case Workload::kWarmHits:
    case Workload::kStoreRewarm:
      replay_hits(in, tracer, pass, expected_hits);
      break;
  }
  // The hit replays time only their request loop (the prefill and the
  // store open are set-up); the stream replays include the store flush.
  if (is_stream(in.workload)) {
    pass.wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  pass.spans = tracer.spans();
  return pass;
}

struct SpanTotals {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
};

}  // namespace

void run_replay(Workload workload, std::uint64_t seed, const ServedRun& served,
                const std::string& work_dir, MetricSet* out) {
  ReplayInput in{workload, workload_shape(workload), &served, work_dir,
                 {}, {}, {}};
  std::vector<std::string> expected_hits;
  if (is_stream(workload)) {
    for (std::int64_t i = 0; i < in.shape.replay_requests; ++i) {
      in.lines.push_back(
          bfdn::serialize_request(stream_request(workload, seed, i)));
    }
  } else {
    in.set = working_set(workload, seed);
    std::vector<std::string> set_lines;
    for (std::size_t slot = 0; slot < in.set.size(); ++slot) {
      set_lines.push_back(bfdn::serialize_request(in.set[slot]));
      expected_hits.push_back(bfdn::ok_response(
          in.set[slot].id, true, bfdn::request_fingerprint(in.set[slot]),
          served.set_results[slot]));
    }
    const DrawSequence draws(workload, seed, in.set.size());
    for (std::int64_t i = 0; i < in.shape.replay_requests; ++i) {
      in.slots.push_back(draws.at(static_cast<std::uint64_t>(i)));
      in.lines.push_back(set_lines[in.slots.back()]);
    }
  }

  // Store recovery over the measured server's directory (store_rewarm).
  std::vector<double> recovery_ms;
  if (workload == Workload::kStoreRewarm) {
    for (int rep = 0; rep < 3; ++rep) {
      bfdn::StoreOptions options;
      options.dir = served.store_dir;
      const auto start = Clock::now();
      bfdn::ResultStore store(options);
      recovery_ms.push_back(std::chrono::duration<double, std::milli>(
                                Clock::now() - start)
                                .count());
    }
  }

  // Untraced and traced passes alternate, twice each; each kind's
  // faster pass is kept, so the first pass's cold caches do not read as
  // tracing overhead (or as its absence).
  std::vector<Pass> passes;
  for (std::int32_t pass_no = 0; pass_no < 4; ++pass_no) {
    passes.push_back(replay_pass(in, pass_no % 2 == 1, pass_no, expected_hits));
    BFDN_REQUIRE(passes.back().counts == passes.front().counts,
                 "replay: two passes did different engine work");
    BFDN_REQUIRE(passes.back().sample_responses ==
                     passes.front().sample_responses,
                 "replay: two passes produced different bytes");
  }
  const auto faster = [](const Pass& a, const Pass& b) -> const Pass& {
    return b.wall_s < a.wall_s ? b : a;
  };
  const Pass& untraced = faster(passes[0], passes[2]);
  const Pass& traced = faster(passes[1], passes[3]);
  for (std::size_t i = 0; i < traced.sample_responses.size(); ++i) {
    BFDN_REQUIRE(traced.sample_responses[i] == served.sample_expected[i],
                 bfdn::str_format("replay: stream index %zu differs from "
                                  "execute_run",
                                  i));
  }

  const StoreProbe probe = probe_store(in, traced);

  // Reduce the spans: totals per name, self time per layer.
  std::map<std::string, SpanTotals> by_name;
  std::map<std::string, std::int64_t> self_by_layer;
  std::vector<std::int64_t> child_ns(traced.spans.size(), 0);
  for (const Span& span : traced.spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::vector<double> request_us;
  std::int64_t request_total_ns = 0;
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& span = traced.spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = by_name[span.name];
    totals.ns += duration;
    totals.calls += span.calls;
    const std::string name = span.name;
    const std::string layer =
        name == "request" ? "other" : name.substr(0, name.find('.'));
    self_by_layer[layer] += duration - child_ns[i];
    if (span.parent < 0) {
      request_us.push_back(static_cast<double>(duration) / 1e3);
      request_total_ns += duration;
    }
  }
  const auto per_call = [&](const char* name, double scale) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.calls == 0) return 0.0;
    return static_cast<double>(it->second.ns) /
           static_cast<double>(it->second.calls) / scale;
  };
  const auto total_ns = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.ns);
  };
  const auto share = [&](double ns) {
    return request_total_ns > 0 ? ns / static_cast<double>(request_total_ns)
                                : 0.0;
  };
  const ServerCounters& before = served.before;
  const ServerCounters& after = served.after;
  const auto delta = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a);
  };
  constexpr double kUs = 1e3;
  constexpr double kMs = 1e6;
  const auto mean_ns = [](double ns, std::int64_t calls) {
    return calls > 0 ? ns / static_cast<double>(calls) : 0.0;
  };

  // Transport: what the client saw beyond the in-process request path.
  const double served_p50_us =
      served.latency_ms.empty() ? 0.0 : percentile(served.latency_ms, 0.5) * 1e3;
  out->add("server.transport_us",
           request_us.empty() ? 0.0 : served_p50_us - median(request_us), "us");
  out->add("server.retries", delta(before.requests_retry, after.requests_retry),
           "count");
  out->add("server.errors",
           delta(before.requests_error + before.protocol_errors,
                 after.requests_error + after.protocol_errors),
           "count");

  out->add("protocol.parse_us", per_call("protocol.parse", kUs), "us");
  out->add("protocol.fingerprint_us", per_call("protocol.fingerprint", kUs),
           "us");
  out->add("protocol.envelope_us", per_call("protocol.envelope", kUs), "us");
  out->add("protocol.serialize_us", per_call("protocol.serialize", kUs), "us");
  out->add("protocol.expand_us", per_call("protocol.expand", kUs), "us");

  out->add("cache.get_us", per_call("cache.get", kUs), "us");
  out->add("cache.get_many_us", per_call("cache.get_many", kUs), "us");
  out->add("cache.put_us", per_call("cache.put", kUs), "us");
  const double lookups = delta(before.cache_hits, after.cache_hits) +
                         delta(before.cache_misses, after.cache_misses);
  out->add("cache.hit_rate",
           lookups > 0 ? delta(before.cache_hits, after.cache_hits) / lookups
                       : 0.0,
           "share");
  out->add("cache.evictions",
           delta(before.cache_evictions, after.cache_evictions), "count");
  out->add("cache.store_hits",
           delta(before.cache_store_hits, after.cache_store_hits), "count");

  // Queue wait: the server's admission-to-completion mean minus the
  // traced work one job does (build + engine + serialize; for a campaign
  // member, its whole batch pass).
  const double jobs_traced_ns =
      total_ns("graph.build") + total_ns("sim.run_sync") +
      total_ns("sim.run_async") + total_ns("sim.batch_run") +
      total_ns("protocol.serialize");
  const double traced_jobs = static_cast<double>(in.lines.size());
  out->add("scheduler.queue_wait_ms",
           jobs_traced_ns > 0 && after.jobs_completed > 0
               ? after.job_latency_mean_us / 1e3 -
                     jobs_traced_ns / traced_jobs / kMs
               : 0.0,
           "ms");
  out->add("scheduler.trees_built", delta(before.trees_built, after.trees_built),
           "count");
  out->add("scheduler.batched_jobs",
           delta(before.batched_jobs, after.batched_jobs), "count");
  out->add("scheduler.batch_groups",
           delta(before.batch_groups, after.batch_groups), "count");
  out->add("scheduler.batch_members",
           delta(before.batch_members, after.batch_members), "count");
  out->add("scheduler.batch_coalesced",
           delta(before.batch_coalesced, after.batch_coalesced), "count");

  out->add("graph.build_ms", per_call("graph.build", kMs), "ms");
  out->add("graph.build_share", share(total_ns("graph.build")), "share");

  const EngineCounts& counts = traced.counts;
  const double sim_ns = total_ns("sim.run_sync") + total_ns("sim.run_async") +
                        total_ns("sim.batch_run");
  out->add("sim.run_sync_ms", per_call("sim.run_sync", kMs), "ms");
  out->add("sim.run_async_ms", per_call("sim.run_async", kMs), "ms");
  out->add("sim.batch_run_ms", per_call("sim.batch_run", kMs), "ms");
  out->add("sim.ns_per_activation",
           counts.executed_activations > 0
               ? sim_ns / static_cast<double>(counts.executed_activations)
               : 0.0,
           "ns");
  out->add("sim.batch_coalesced_share",
           counts.batch_members > 0
               ? static_cast<double>(counts.batch_coalesced) /
                     static_cast<double>(counts.batch_members)
               : 0.0,
           "share");
  out->add("sim.rounds", static_cast<double>(counts.rounds), "count");
  out->add("sim.activations", static_cast<double>(counts.activations), "count");
  out->add("sim.moves", static_cast<double>(counts.moves), "count");
  out->add("sim.edge_events", static_cast<double>(counts.edge_events), "count");

  out->add("store.recovery_ms", recovery_ms.empty() ? 0.0 : median(recovery_ms),
           "ms");
  out->add("store.get_us", mean_ns(probe.get_ns, probe.gets) / kUs, "us");
  out->add("store.put_us", mean_ns(probe.put_ns, probe.puts) / kUs, "us");
  out->add("store.flush_ms", traced.flush_ms, "ms");
  out->add("store.appended_records",
           delta(before.store_appended_records, after.store_appended_records),
           "count");
  out->add("store.flushes", delta(before.store_flushes, after.store_flushes),
           "count");
  out->add("store.syncs", delta(before.store_syncs, after.store_syncs),
           "count");
  out->add("store.hits", static_cast<double>(traced.store_hits), "count");
  out->add("store.recovered_records",
           static_cast<double>(after.store_recovered_records), "count");

  // The store runs inside the cache spans: its estimated self time (the
  // probe's cost per call times the calls the two-tier cache made) moves
  // from the cache's self time to the store's.
  const std::int64_t store_lookups =
      probe.gets > 0 ? traced.cache.misses + traced.cache.store_hits : 0;
  const std::int64_t store_puts = static_cast<std::int64_t>(traced.written.size());
  const auto store_ns = std::min(
      self_by_layer["cache"],
      static_cast<std::int64_t>(
          mean_ns(probe.get_ns, probe.gets) * static_cast<double>(store_lookups) +
          mean_ns(probe.put_ns, probe.puts) * static_cast<double>(store_puts)));
  self_by_layer["cache"] -= store_ns;
  self_by_layer["store"] += store_ns;
  for (const char* layer : {"protocol", "cache", "store", "graph", "sim",
                            "other"}) {
    const auto it = self_by_layer.find(layer);
    out->add(std::string("share.") + layer,
             share(it == self_by_layer.end()
                       ? 0.0
                       : static_cast<double>(it->second)),
             "share");
  }
  out->add("trace.overhead_share", traced.wall_s / untraced.wall_s - 1.0,
           "share");
  for (std::int32_t pass_no = 0; pass_no < 4; ++pass_no) {
    std::filesystem::remove_all(
        bfdn::str_format("%s/replay%d-store", work_dir.c_str(), pass_no));
  }
  std::filesystem::remove_all(work_dir + "/probe-store");
}

}  // namespace perfbench
