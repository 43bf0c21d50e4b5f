// bfdn_route — consistent-hash routing front end of a sharded fleet.
//
// Listens on a loopback TCP port for the same line-delimited JSON
// protocol bfdn_serve speaks, fingerprints each run request, and
// forwards it to the owning shard from --peers over pooled connections,
// splicing the shard's response bytes back verbatim (routed == solo,
// byte for byte). Campaigns are expanded here and fanned out member by
// member; hot keys (the Zipf head) are replicated across --replicas
// ring owners. `shard` requests answer routing introspection,
// `peer_stats` fans a stats probe across the fleet, and `ship_segment`
// with from/to orchestrates shard-to-shard cache shipping.
//
//   bfdn_route --port=7430 --peers=7431,7432
//   bfdn_route --port=0 --port-file=route.port --peers=7431,7432
//   bfdn_route --peers=7431,7432 --replicas=2 --hot-threshold=8
#include <cstdio>

#include "cluster/peers.h"
#include "cluster/router.h"
#include "daemon.h"
#include "support/check.h"
#include "support/cli.h"
#include "support/strings.h"

namespace bfdn {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli("bfdn_route",
                "route exploration requests across a shard fleet");
  cli.add_int("port", 7430, "listen port (0 = ephemeral)");
  cli.add_string("peers", "", "shard port list 'p0,p1,...' (required)");
  cli.add_int("vnodes", 64, "ring points per shard");
  cli.add_int("replicas", 2,
              "distinct owners a hot key is spread over (1 = off)");
  cli.add_int("hot-threshold", 8,
              "request count at which a key counts hot");
  cli.add_int("hot-capacity", 4096,
              "keys the hot tracker remembers (LRU beyond)");
  cli.add_int("retry-after-ms", 20,
              "suggested client back-off when a shard is unreachable");
  cli.add_int("forward-timeout-ms", 30000,
              "receive timeout on shard connections");
  cli.add_int("fanout-threads", 0,
              "campaign fan-out workers (0 = hardware)");
  cli.add_string("port-file", "",
                 "write the bound port here once listening (for scripts "
                 "using --port=0)");
  if (!cli.parse(argc, argv)) return 0;

  RouterOptions options;
  options.port = static_cast<std::uint16_t>(cli.get_int("port"));
  const std::string peers_spec = cli.get_string("peers");
  BFDN_REQUIRE(!peers_spec.empty(), "--peers is required");
  options.peers = parse_peer_ports(peers_spec);
  options.vnodes = static_cast<std::int32_t>(cli.get_int("vnodes"));
  options.replicas = static_cast<std::int32_t>(cli.get_int("replicas"));
  options.hot_threshold = cli.get_int("hot-threshold");
  options.hot_capacity =
      static_cast<std::size_t>(cli.get_int("hot-capacity"));
  options.retry_after_ms =
      static_cast<std::int32_t>(cli.get_int("retry-after-ms"));
  options.forward_timeout_ms =
      static_cast<std::int32_t>(cli.get_int("forward-timeout-ms"));
  options.fanout_threads =
      static_cast<std::int32_t>(cli.get_int("fanout-threads"));

  return serve_until_signalled<RouterServer>(
      "bfdn_route", options, cli.get_string("port-file"),
      str_format(" (fleet of %zu)", options.peers.size()),
      "releasing connections");
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
