// Vectorized multi-run campaign executor: runs R explorations of one
// shared tree (seed sweeps, k sweeps, option sweeps) in a single
// interleaved pass instead of R independent engine invocations.
//
// Structure of arrays: every member run owns its per-run state
// (ExplorationState position/frontier arrays, activation calendar,
// RunResult) while the tree's CSR arrays — the large read-only data —
// are shared by all of them. run() advances the member whose next
// selection event is earliest (ties broken by member index), so all
// runs sweep the tree's depth range roughly in lockstep and the tree
// data a run touches is the data its neighbors just touched — one
// cache-friendly pass over the shared structure per exploration phase
// rather than R cold passes.
//
// Bit-identity is structural, not approximated: each member executes
// through engine_internal::RunContext, the one run context
// run_exploration drives, and a member's observable behavior depends
// only on its own state — so any interleaving reproduces the solo
// engine run for run (pinned by OracleCheck::kBatchEquivalence and
// tests/batch_executor_test.cpp).
//
// Only members that plan committed walks (engine_internal::plans_walks)
// interleave; a member with per-round hooks (observer / trace /
// check_invariants), fast_forward off or a step-only algorithm runs
// through run_exploration inside run(), in member order, before the
// interleaved pass. Members with a
// break-down schedule, reactive adversary or async scheduler are
// rejected at add_member — those execution models are per-run by
// construction and belong to run_exploration.
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
    std::int64_t interleaved = 0;    // distinct runs in the batched pass
    std::int64_t stepped_fallback = 0;  // distinct runs via the solo
                                        // engine (per-round hooks or a
                                        // step-only algorithm)
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
