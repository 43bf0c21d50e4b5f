// Campaign executor: runs R explorations of one shared tree (seed
// sweeps, k sweeps, option sweeps) behind one call, coalescing members
// that provably describe the same run.
//
// Each distinct member runs to completion through run_exploration, in
// member order, so only one run's mutable state (ExplorationState,
// algorithm arrays, RunResult) is live at a time while the tree's CSR
// arrays are shared by all of them. Results are bit-identical to solo
// runs because they are solo runs (pinned by
// OracleCheck::kBatchEquivalence and tests/batch_executor_test.cpp),
// and per-round hooks (observer / trace / check_invariants) see each
// member's rounds whole, one member after another. Running members one
// after another is measured, not assumed: interleaving R live runs
// event by event ran bench_campaign's 16-member n=20k distinct cell at
// 0.58-0.62x the solo loop, where back to back runs at ~1x (each live
// run's state, not the shared tree, fills the cache; docs/MODEL.md).
// Members with a break-down schedule, reactive adversary or async
// scheduler are rejected at add_member — those execution models belong
// to run_exploration.
//
// Coalescing: members whose inputs provably describe the same run
// (e.g. a BFDN seed sweep under any non-random reanchor policy — the
// algorithm seed is only ever consumed by ReanchorPolicy::kRandom) may
// be tagged with equal coalesce keys by the caller; the run executes
// once and the result is replicated. The promise is the caller's, but
// it is differential-tested: the batch-equivalence oracle compares
// every member, replicated or not, against its own solo run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace bfdn {

class BatchExecutor {
 public:
  /// The tree must outlive the executor; all members run on it.
  explicit BatchExecutor(const Tree& tree);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Adds one member run and returns its index (results come back in
  /// add order). The config must describe a synchronous
  /// complete-communication run: schedule, reactive and async members
  /// are rejected (BFDN_REQUIRE) — mixing per-run adversaries into a
  /// shared batch pass is not supported, use run_exploration.
  /// `coalesce_key`: members sharing a non-empty key are promised by
  /// the caller to be semantically identical runs; only the first
  /// executes and the others receive copies of its result. An empty
  /// key never coalesces.
  std::int32_t add_member(std::unique_ptr<Algorithm> algorithm,
                          const RunConfig& config,
                          std::string coalesce_key = {});

  std::size_t num_members() const;

  /// Executes every member and returns their results in add_member
  /// order, each bit-identical to run_exploration on the same inputs.
  /// Call at most once.
  std::vector<RunResult> run();

  struct Stats {
    std::int64_t members = 0;        // add_member calls
    std::int64_t distinct_runs = 0;  // actually executed
    std::int64_t coalesced = 0;      // members served by a twin's run
  };
  /// Populated by run().
  const Stats& stats() const { return stats_; }

 private:
  struct Member;

  const Tree& tree_;
  std::vector<Member> members_;
  Stats stats_;
  bool ran_ = false;
};

}  // namespace bfdn
