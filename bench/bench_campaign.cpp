// E20 — campaign-throughput bench for sim/BatchExecutor.
//
// Measures aggregate rounds/second of a width-R seed-sweep campaign
// executed through sim/BatchExecutor against the solo loop that runs
// the same R members as R independent engine invocations. Two kinds
// of cell:
//   coalesced: the BENCH_fastforward comb cells (comb(316, 315), k in
//     {1024, 256, 64}, capped at --cap rounds). BFDN under the
//     least-loaded policy never consumes its seed, so the sweep is
//     tagged with one coalesce key and the batch executes one distinct
//     run and replicates it — the shape exp/campaign and the service's
//     campaign requests feed it.
//   distinct: a random n=20k tree swept over R seeds under the random
//     reanchor policy with no coalesce keys, so every member executes
//     (the random half of perfbench's campaign_sweep). This measures
//     the executor's own cost of running distinct members.
// Every cell doubles as a differential check: each member's batched
// RunResult must match its own solo run (rounds + final_state_hash), a
// divergence is a hard error.
//
// Gates (a failed gate is exit status 1, visible in CI). Every cell is
// gated against the solo loop measured in the same process, best of at
// least 3 repetitions that alternate solo and batched, so the gate
// tracks the machine it runs on:
//   coalesced, full mode: aggregate rounds/s >= 5x the solo loop (the
//               width-8 sweep executes one run, ~8x ideally);
//   coalesced, --smoke:   aggregate rounds/s >= 3x the solo loop on one
//               small cell;
//   distinct, both modes: aggregate rounds/s >= 0.8x the solo loop.
//               Members executed one after another pass at ~1x;
//               interleaving R live runs event by event falls below it.
// Output is one JSON document on stdout (BENCH_campaign.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/batch_executor.h"
#include "sim/engine.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"

namespace bfdn {
namespace {

struct Config {
  std::string family;
  Tree tree;
  std::int32_t k;
  std::int64_t cap;  // 0 = run to completion
  /// Required aggregate rounds/s as a multiple of the solo loop's.
  double gate_factor;
  /// Random reanchor policy and no coalesce keys: every member runs.
  bool distinct = false;
};

constexpr double kDistinctGate = 0.8;
constexpr std::int64_t kMinRepeat = 3;

Config distinct_cell() {
  Rng rng(20);
  return {"random", make_random_leafy(20000, 5, rng), 8, 0, kDistinctGate,
          true};
}

RunConfig member_config(const Config& config) {
  RunConfig run_config;
  run_config.num_robots = config.k;
  run_config.max_rounds = config.cap;
  run_config.fast_forward = true;
  return run_config;
}

BfdnOptions member_options(const Config& config, std::int64_t seed) {
  BfdnOptions options;  // least-loaded policy: seed-blind by design
  if (config.distinct) options.policy = ReanchorPolicy::kRandom;
  options.seed = static_cast<std::uint64_t>(seed);
  return options;
}

int run(int argc, const char* const* argv) {
  CliParser cli("bench_campaign",
                "aggregate rounds/sec of a width-R seed-sweep campaign "
                "through the batch executor vs R independent solo runs");
  cli.add_int("cap", 20000, "max rounds per cell");
  cli.add_int("width", 8, "campaign members per coalesced cell (R)");
  cli.add_int("repeat", 1,
              "timed repetitions per cell, at least 3 (best is kept)");
  cli.add_bool("smoke", false,
               "one small coalesced cell plus the distinct cell, both "
               "gated against the in-process solo loop (CI)");
  if (!cli.parse(argc, argv)) return 0;
  const std::int64_t cap = cli.get_int("cap");
  const std::int64_t coalesced_width =
      std::max<std::int64_t>(1, cli.get_int("width"));
  // The random half of perfbench's campaign_sweep: 16 distinct runs.
  const std::int64_t distinct_width = 16;
  const std::int64_t repeat = std::max<std::int64_t>(1,
                                                     cli.get_int("repeat"));

  std::vector<Config> configs;
  if (cli.get_bool("smoke")) {
    configs.push_back({"comb", make_comb(100, 99), 256, 2000, 3.0});
  } else {
    // The BENCH_fastforward comb cells.
    for (const std::int32_t k : {1024, 256, 64}) {
      configs.push_back({"comb", make_comb(316, 315), k, cap, 5.0});
    }
  }
  configs.push_back(distinct_cell());

  int status = 0;
  std::printf("{\n  \"bench\": \"campaign\",\n  \"cells\": [\n");
  bool first = true;
  for (const Config& config : configs) {
    // Solo loop (the same R members as R independent engine runs) and
    // batched campaign (one BatchExecutor; a coalesced cell tags
    // its sweep with one key per (algo, k) — the shape the scheduler's
    // batch_coalesce_key produces for these members), alternated per
    // repetition, best of each kept.
    const std::int64_t width =
        config.distinct ? distinct_width : coalesced_width;
    const std::int64_t reps = std::max(repeat, kMinRepeat);
    std::vector<RunResult> solo(static_cast<std::size_t>(width));
    std::vector<RunResult> batched;
    double solo_seconds = 0;
    double batch_seconds = 0;
    BatchExecutor::Stats batch_stats;
    for (std::int64_t rep = 0; rep < reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      for (std::int64_t i = 0; i < width; ++i) {
        BfdnAlgorithm algorithm(config.k, member_options(config, i + 1));
        solo[static_cast<std::size_t>(i)] =
            run_exploration(config.tree, algorithm, member_config(config));
      }
      double seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (rep == 0 || seconds < solo_seconds) solo_seconds = seconds;

      start = std::chrono::steady_clock::now();
      BatchExecutor batch(config.tree);
      for (std::int64_t i = 0; i < width; ++i) {
        batch.add_member(
            std::make_unique<BfdnAlgorithm>(config.k,
                                            member_options(config, i + 1)),
            member_config(config),
            config.distinct
                ? std::string()
                : str_format("bfdn-least-loaded-k%d", config.k));
      }
      std::vector<RunResult> results = batch.run();
      seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
      if (rep == 0 || seconds < batch_seconds) {
        batch_seconds = seconds;
        batch_stats = batch.stats();
      }
      batched = std::move(results);
    }

    // Differential check: run for run against the solo engine.
    std::int64_t total_rounds = 0;
    for (std::int64_t i = 0; i < width; ++i) {
      const auto& b = batched[static_cast<std::size_t>(i)];
      const auto& s = solo[static_cast<std::size_t>(i)];
      total_rounds += b.rounds;
      if (b.rounds != s.rounds ||
          b.final_state_hash != s.final_state_hash) {
        std::fprintf(stderr,
                     "bench_campaign: batched member %lld DIVERGES from "
                     "its solo run on %s n=%lld k=%d (rounds %lld vs "
                     "%lld)\n",
                     static_cast<long long>(i), config.family.c_str(),
                     static_cast<long long>(config.tree.num_nodes()),
                     config.k, static_cast<long long>(b.rounds),
                     static_cast<long long>(s.rounds));
        status = 1;
      }
    }

    const double batch_rps =
        batch_seconds > 0 ? static_cast<double>(total_rounds) /
                                batch_seconds
                          : 0.0;
    const double solo_rps =
        solo_seconds > 0 ? static_cast<double>(total_rounds) /
                               solo_seconds
                         : 0.0;
    const bool pass = batch_rps >= config.gate_factor * solo_rps;
    if (!pass) {
      std::fprintf(stderr,
                   "bench_campaign: GATE FAILED on %s n=%lld k=%d: "
                   "%.1f aggregate rounds/s < %.1fx solo %.1f\n",
                   config.family.c_str(),
                   static_cast<long long>(config.tree.num_nodes()),
                   config.k, batch_rps, config.gate_factor, solo_rps);
      status = 1;
    }

    JsonWriter cell;
    cell.begin_object();
    cell.kv("family", config.family);
    cell.kv("n", config.tree.num_nodes());
    cell.kv("k", config.k);
    cell.kv("policy", config.distinct ? "random" : "least-loaded");
    cell.kv("width", width);
    cell.kv("distinct_runs", batch_stats.distinct_runs);
    cell.kv("coalesced", batch_stats.coalesced);
    cell.kv("aggregate_rounds", total_rounds);
    cell.kv("batch_wall_s", batch_seconds, 4);
    cell.kv("batch_rounds_per_sec", batch_rps, 1);
    cell.kv("solo_wall_s", solo_seconds, 4);
    cell.kv("solo_rounds_per_sec", solo_rps, 1);
    cell.kv("speedup_vs_solo", solo_rps > 0 ? batch_rps / solo_rps : 0.0,
            2);
    cell.kv("reps", reps);
    cell.kv("gate_factor", config.gate_factor, 1);
    cell.kv("pass", pass);
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
