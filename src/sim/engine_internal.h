// The engine's one execution core, shared by run_exploration
// (engine.cpp) and the batched campaign kernel (batch_executor.cpp).
// Not part of the public simulation API — include sim/engine.h instead.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"

namespace bfdn {
namespace engine_internal {

/// True iff a run may plan committed walks (TransitPlan) instead of
/// selecting every robot at every activation: the algorithm exposes
/// committed segments, fast-forward is requested, and nothing needs to
/// see or perturb every round (per-round hooks, break-down schedule,
/// reactive adversary). Results are identical either way.
bool plans_walks(const Algorithm& algorithm, const RunConfig& config);

/// Resumable run context: the engine's event loop cut at its event
/// boundaries. Per robot it keeps a next-activation time, an optional
/// committed walk and a parked flag (TransitPlan::kStayForever). One
/// advance() call processes one event time T: the robots due at T form
/// one synchronous mini-round — selection in ascending index order, the
/// adversary filters, MOVE, the per-round hooks — then the robots that
/// selected plan their next segment (when plans_walks).
///
/// When every robot is due every tick (the synchronous model, an
/// AsyncScheduler whose lockstep() is true, or a lockstep-only
/// algorithm) a committed walk executes eagerly the moment it is
/// planned and the rounds between events are accounted analytically;
/// under any other scheduler a walk is replayed one step per
/// activation. Without walk planning every due robot selects, which is
/// the literal round-by-round execution.
///
/// The run's observable behavior is a pure function of its inputs —
/// each context owns all of its mutable state — so any interleaving of
/// advance() calls across independent contexts produces exactly the
/// results of running each to completion on its own. BatchExecutor
/// relies on this to interleave R runs over one shared tree.
class RunContext {
 public:
  /// `config` must already be validated (see run_exploration).
  RunContext(const Tree& tree, Algorithm& algorithm, const RunConfig& config);

  /// Time of the next event (max_rounds + 1 when none remains within
  /// the round limit; the next advance() then terminates).
  std::int64_t next_event_round() const;

  /// Processes one event. Returns false once the run has ended (round
  /// limit, algorithm finished, adversary done, or natural termination).
  bool advance();

  /// Final result hand-over. Call once, after advance() returned false.
  RunResult finish();

 private:
  bool stop();
  bool walking(std::size_t robot) const;
  bool stable() const;
  void apply_reactive(std::int64_t t);
  void plan(std::int64_t t);

  const Tree& tree_;
  Algorithm& algorithm_;
  const RunConfig config_;
  const std::int32_t k_;
  const std::int64_t max_rounds_;
  // Non-null iff robots are activated out of lockstep.
  const AsyncScheduler* const scheduler_;
  const bool plans_walks_;
  const bool adversary_;
  ExplorationState state_;
  RunResult result_;
  std::vector<std::int64_t> unexplored_at_depth_;
  std::vector<char> movable_;
  std::int64_t num_movable_;
  ExplorationView view_;
  MoveSelector selector_;
  // next_[i]: robot i's next activation. In lockstep, robots mid-walk
  // (and parked ones) sit at their wake round instead; a walk capped by
  // the round limit wakes at max_rounds + 1, i.e. never.
  std::vector<std::int64_t> next_;
  std::vector<char> parked_;
  std::int32_t num_parked_ = 0;
  // Out-of-lockstep walk replay: walk_[i][walk_pos_[i]] is robot i's
  // next committed step.
  std::vector<std::vector<NodeId>> walk_;
  std::vector<std::size_t> walk_pos_;
  // Last event time at which each robot was activated and stayed.
  std::vector<std::int64_t> last_stay_;
  std::vector<std::int32_t> due_;        // activated at T, ascending
  std::vector<std::int32_t> selecting_;  // the due robots that select
  std::vector<ReactiveAdversary::ObservedMove> observed_;
  TransitPlan plan_;  // reused; path keeps its capacity across events
  bool done_ = false;
  bool finished_ = false;
};

}  // namespace engine_internal
}  // namespace bfdn
