// E18 — engine-throughput bench for the simulator hot path.
//
// Measures wall-clock rounds/second of the full engine + BFDN stack on
// large instances (comb / caterpillar / star / complete binary at
// n ~ 1e5..1e6 with k in {64, 256, 1024}), the regime the ROADMAP's
// scaling PRs target. Every cell is timed twice: once with the stepped
// round loop (fast_forward = false) and once with the event-driven
// fast-forward engine, and the two runs must agree on rounds and final
// state — the bench doubles as a coarse differential check. Deep
// families are capped with --cap rounds: throughput, not completion, is
// the quantity under test. Output is one JSON document on stdout so the
// numbers land in the bench trajectory (BENCH_fastforward.json) and
// regressions are visible in review.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "support/cli.h"
#include "support/json.h"

namespace bfdn {
namespace {

struct Config {
  std::string family;
  Tree tree;
  std::int32_t k;
  std::int64_t cap;  // 0 = run to completion
};

struct Timed {
  double seconds = 0;
  RunResult result;
};

Timed time_cell(const Config& config, bool fast_forward,
                std::int64_t repeat) {
  Timed best;
  for (std::int64_t rep = 0; rep < repeat; ++rep) {
    BfdnAlgorithm algorithm(config.k);
    RunConfig run_config;
    run_config.num_robots = config.k;
    run_config.max_rounds = config.cap;
    run_config.fast_forward = fast_forward;
    const auto start = std::chrono::steady_clock::now();
    RunResult result = run_exploration(config.tree, algorithm, run_config);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
    best.result = std::move(result);
  }
  return best;
}

int run(int argc, const char* const* argv) {
  CliParser cli("bench_hotpath",
                "stepped vs fast-forward rounds/sec of the engine round "
                "loop on large (n, k)");
  cli.add_int("cap", 20000, "max rounds per deep-family cell");
  cli.add_int("repeat", 1, "timed repetitions per cell (best is kept)");
  cli.add_bool("large", false, "add the n ~ 1e6 cells (slower)");
  cli.add_bool("smoke", false,
               "two small cells only (CI: exercises the fast-forward "
               "path in Release and checks it against stepped)");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t cap = cli.get_int("cap");
  const std::int64_t repeat = std::max<std::int64_t>(1,
                                                     cli.get_int("repeat"));

  // cold_explore's deepest shape (n = 20k, spine 5000, k = 8) run to
  // completion: thousands of committed walks by endpoint, long BF
  // descents and return climbs on a D = 5000 tree.
  const Config cold_caterpillar{"caterpillar", make_caterpillar(5000, 3), 8,
                                0};
  std::vector<Config> configs;
  if (cli.get_bool("smoke")) {
    configs.push_back({"comb", make_comb(100, 99), 256, 2000});
    configs.push_back(cold_caterpillar);
  } else {
    // comb: deep + thin, dominated by outbound navigation and per-depth
    // frontier maintenance. spine*(tooth+1) ~ 1e5.
    configs.push_back({"comb", make_comb(316, 315), 1024, cap});
    configs.push_back({"comb", make_comb(316, 315), 256, cap});
    configs.push_back({"comb", make_comb(316, 315), 64, cap});
    // caterpillar: the deepest family (D ~ n/4); transit rounds over the
    // long spine dominate, the regime fast-forward targets.
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 1024,
                       cap});
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 256,
                       cap});
    configs.push_back({"caterpillar", make_caterpillar(25000, 3), 64,
                       cap});
    configs.push_back(cold_caterpillar);
    // star: maximal single-node frontier; stresses the dangling-edge
    // reservation pool and the per-round selector setup.
    configs.push_back({"star", make_star(100001), 1024, 0});
    configs.push_back({"star", make_star(100001), 64, 0});
    // complete binary: wide frontiers at every depth; stresses
    // Reanchor's candidate scan and the open-node index.
    configs.push_back({"binary", make_complete_bary(2, 16), 1024, 0});
    configs.push_back({"binary", make_complete_bary(2, 16), 256, 0});
    configs.push_back({"binary", make_complete_bary(2, 16), 64, 0});
    if (cli.get_bool("large")) {
      configs.push_back({"comb", make_comb(1000, 999), 1024, cap});
      configs.push_back({"star", make_star(1000001), 1024, 0});
      configs.push_back({"binary", make_complete_bary(2, 19), 1024, 0});
    }
  }

  int status = 0;
  std::printf("{\n  \"bench\": \"fastforward\",\n  \"cells\": [\n");
  bool first = true;
  for (const Config& config : configs) {
    const Timed stepped = time_cell(config, /*fast_forward=*/false, repeat);
    const Timed ff = time_cell(config, /*fast_forward=*/true, repeat);
    if (stepped.result.rounds != ff.result.rounds ||
        stepped.result.final_state_hash != ff.result.final_state_hash) {
      std::fprintf(stderr,
                   "bench_hotpath: fast-forward DIVERGES from stepped on "
                   "%s n=%lld k=%d (rounds %lld vs %lld)\n",
                   config.family.c_str(),
                   static_cast<long long>(config.tree.num_nodes()),
                   config.k,
                   static_cast<long long>(stepped.result.rounds),
                   static_cast<long long>(ff.result.rounds));
      status = 1;
    }
    const auto per_sec = [](const Timed& t) {
      return t.seconds > 0
                 ? static_cast<double>(t.result.rounds) / t.seconds
                 : 0.0;
    };
    const double stepped_rps = per_sec(stepped);
    const double ff_rps = per_sec(ff);
    // One compact JSON object per cell, emitted as the sweep runs so a
    // long bench shows progress; the envelope above/below makes the
    // whole stdout one document.
    JsonWriter cell;
    cell.begin_object();
    cell.kv("family", config.family);
    cell.kv("n", config.tree.num_nodes());
    cell.kv("k", config.k);
    cell.kv("rounds", ff.result.rounds);
    cell.kv("complete", ff.result.complete);
    cell.kv("stepped_wall_s", stepped.seconds, 4);
    cell.kv("stepped_rounds_per_sec", stepped_rps, 1);
    cell.kv("ff_wall_s", ff.seconds, 4);
    cell.kv("ff_rounds_per_sec", ff_rps, 1);
    cell.kv("speedup", stepped_rps > 0 ? ff_rps / stepped_rps : 0.0, 2);
    cell.end_object();
    std::printf("%s    %s", first ? "" : ",\n", cell.str().c_str());
    first = false;
    std::fflush(stdout);
  }
  std::printf("\n  ]\n}\n");
  return status;
}

}  // namespace
}  // namespace bfdn

int main(int argc, char** argv) { return bfdn::run(argc, argv); }
