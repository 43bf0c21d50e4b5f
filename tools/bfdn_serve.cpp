// bfdn_serve — the exploration-as-a-service daemon.
//
// Listens on a loopback TCP port for line-delimited JSON run requests
// (docs/SERVICE.md), schedules them over a thread pool behind a bounded
// admission queue, and serves repeated requests from a
// content-addressed result cache. SIGTERM / SIGINT trigger a graceful
// drain: stop accepting, finish every admitted job, answer the
// in-flight responses, flush a final stats document to stdout, exit 0.
//
// With --store-dir the result cache is backed by the durable segment
// store (src/store): a restart over the same directory recovers every
// persisted result and serves it byte-identical without recomputing.
//
// As a member of a sharded fleet (behind bfdn_route), --peers names
// every shard's port and --peer-id this shard's index into that list;
// both only feed the ship_segment admin path and the stats cluster
// block — shards hold no ring and accept any request routed to them.
//
//   bfdn_serve --port=7431 --threads=8 --queue=64 --cache=1024
//   bfdn_serve --port=0 --port-file=serve.port   # ephemeral port
//   bfdn_serve --store-dir=/var/bfdn/store --store-segment-mb=64
//   bfdn_serve --port=7431 --peer-id=0 --peers=7431,7432
#include <cstdio>

#include "cluster/peers.h"
#include "daemon.h"
#include "service/server.h"
#include "support/check.h"
#include "support/cli.h"

namespace bfdn {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("bfdn_serve", "serve exploration runs over loopback TCP");
  cli.add_int("port", 7431, "listen port (0 = ephemeral)");
  cli.add_int("threads", 0, "scheduler worker threads (0 = hardware)");
  cli.add_int("queue", 64, "admission queue depth (backpressure bound)");
  cli.add_int("cache", 1024, "result cache capacity in entries (0 = off)");
  cli.add_int("retry-after-ms", 20,
              "suggested client back-off in backpressure rejections");
  cli.add_int("max-nodes", 1000000, "largest admissible request tree");
  cli.add_string("port-file", "",
                 "write the bound port here once listening (for scripts "
                 "using --port=0)");
  cli.add_string("store-dir", "",
                 "durable result store directory (empty = memory only)");
  cli.add_int("store-segment-mb", 64,
              "store segment rotation size in MiB");
  cli.add_int("store-flush-ms", 25,
              "store group-commit age trigger in milliseconds");
  cli.add_bool("no-store", false,
               "ignore --store-dir and run memory-only");
  cli.add_string("peers", "",
                 "fleet port list 'p0,p1,...' (empty = standalone)");
  cli.add_int("peer-id", -1,
              "this shard's index into --peers");
  if (!cli.parse(argc, argv)) return 0;

  ServerOptions options;
  options.port = static_cast<std::uint16_t>(cli.get_int("port"));
  options.threads = static_cast<std::int32_t>(cli.get_int("threads"));
  options.queue_capacity =
      static_cast<std::int32_t>(cli.get_int("queue"));
  options.cache_capacity =
      static_cast<std::size_t>(cli.get_int("cache"));
  options.retry_after_ms =
      static_cast<std::int32_t>(cli.get_int("retry-after-ms"));
  options.max_nodes = cli.get_int("max-nodes");
  if (!cli.get_bool("no-store")) {
    options.store_dir = cli.get_string("store-dir");
  }
  options.store_segment_bytes =
      static_cast<std::size_t>(cli.get_int("store-segment-mb")) << 20;
  options.store_flush_ms =
      static_cast<std::int32_t>(cli.get_int("store-flush-ms"));
  const std::string peers_spec = cli.get_string("peers");
  if (!peers_spec.empty()) {
    options.peers = parse_peer_ports(peers_spec);
    options.peer_id = static_cast<std::int32_t>(cli.get_int("peer-id"));
    BFDN_REQUIRE(options.peer_id >= 0 &&
                     options.peer_id < static_cast<std::int32_t>(
                                           options.peers.size()),
                 "--peer-id must index into --peers");
    BFDN_REQUIRE(options.port ==
                     options.peers[static_cast<std::size_t>(
                         options.peer_id)],
                 "--port must equal --peers[--peer-id] "
                 "(peer identity is the port)");
  }

  return serve_until_signalled<ServiceServer>(
      "bfdn_serve", options, cli.get_string("port-file"), "",
      "finishing in-flight jobs");
}

}  // namespace
}  // namespace bfdn

int main(int argc, char** argv) {
  try {
    return bfdn::run(argc, argv);
  } catch (const bfdn::CheckError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
