#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

MoveSelector::MoveSelector(ExplorationState& state,
                           const std::vector<char>& movable)
    : state_(state), movable_(movable) {
  const auto k = static_cast<std::size_t>(state.num_robots());
  pending_.assign(k, Pending{});
  reanchor_depths_.reserve(k);
  reanchor_switch_depths_.reserve(k);
}

void MoveSelector::reset() {
  std::fill(pending_.begin(), pending_.end(), Pending{});
  reserved_this_round_.clear();
  reanchor_depths_.clear();
  reanchor_switch_depths_.clear();
}

void MoveSelector::require_selectable(std::int32_t robot) const {
  BFDN_REQUIRE(robot >= 0 && robot < state_.num_robots(), "robot index");
  BFDN_REQUIRE(movable_[static_cast<std::size_t>(robot)] != 0,
               "selection for a robot the adversary blocked this round");
  BFDN_REQUIRE(pending_[static_cast<std::size_t>(robot)].kind == Kind::kNone,
               "robot already selected a move this round");
}

void MoveSelector::stay(std::int32_t robot) {
  require_selectable(robot);
  pending_[static_cast<std::size_t>(robot)] = {Kind::kStay, kInvalidNode};
}

void MoveSelector::move_up(std::int32_t robot) {
  require_selectable(robot);
  const NodeId pos = state_.robot_pos(robot);
  if (pos == state_.tree().root()) {
    // "If Robot_i is at the root, up is interpreted as ⊥."
    pending_[static_cast<std::size_t>(robot)] = {Kind::kStay, kInvalidNode};
    return;
  }
  pending_[static_cast<std::size_t>(robot)] = {Kind::kUp, pos};
}

void MoveSelector::move_down(std::int32_t robot, NodeId child) {
  require_selectable(robot);
  BFDN_REQUIRE(state_.is_explored(child),
               "move_down target must be an explored child");
  BFDN_REQUIRE(state_.tree().parent(child) == state_.robot_pos(robot),
               "move_down target is not a child of the robot's position");
  pending_[static_cast<std::size_t>(robot)] = {Kind::kDownExplored, child};
}

NodeId MoveSelector::try_take_dangling(std::int32_t robot) {
  require_selectable(robot);
  const NodeId pos = state_.robot_pos(robot);
  if (state_.num_unreserved_dangling(pos) == 0) return kInvalidNode;
  const NodeId child = state_.reserve_dangling(pos);
  pending_[static_cast<std::size_t>(robot)] = {Kind::kDownDangling, child};
  reserved_this_round_.emplace_back(child, pos);
  return child;
}

std::vector<NodeId> MoveSelector::reserved_dangling_at(NodeId u) const {
  std::vector<NodeId> out;
  for (const auto& [token, at] : reserved_this_round_) {
    if (at == u) out.push_back(token);
  }
  return out;
}

void MoveSelector::join_dangling(std::int32_t robot, NodeId token) {
  require_selectable(robot);
  const NodeId pos = state_.robot_pos(robot);
  bool valid = false;
  for (const auto& [t, at] : reserved_this_round_) {
    if (t == token && at == pos) {
      valid = true;
      break;
    }
  }
  BFDN_REQUIRE(valid, "join_dangling token not reserved at robot's node");
  pending_[static_cast<std::size_t>(robot)] = {Kind::kDownDangling, token};
}

void MoveSelector::note_reanchor(std::int32_t depth) {
  BFDN_REQUIRE(depth >= 0, "negative reanchor depth");
  reanchor_depths_.push_back(depth);
}

void MoveSelector::note_reanchor_switch(std::int32_t depth) {
  BFDN_REQUIRE(depth >= 0, "negative reanchor depth");
  reanchor_switch_depths_.push_back(depth);
}

bool MoveSelector::has_selected(std::int32_t robot) const {
  BFDN_REQUIRE(robot >= 0 && robot < state_.num_robots(), "robot index");
  return pending_[static_cast<std::size_t>(robot)].kind != Kind::kNone;
}

void Algorithm::begin(const ExplorationView&) {}
bool Algorithm::finished(const ExplorationView&) const { return false; }
std::vector<NodeId> Algorithm::anchors() const { return {}; }

ActivationGranularity Algorithm::activation_granularity() const {
  return ActivationGranularity::kLockstep;
}

TransitCapability Algorithm::transit_capability() const {
  return TransitCapability::kStepOnly;
}

void Algorithm::plan_transit(const ExplorationView&, std::int32_t,
                             TransitPlan&) {
  BFDN_CHECK(false, "plan_transit called on a step-only algorithm");
}

void Algorithm::select_moves_subset(const ExplorationView&, MoveSelector&,
                                    const std::vector<std::int32_t>&) {
  BFDN_CHECK(false,
             "select_moves_subset called on a step-only algorithm");
}

// Engine-private access to MoveSelector internals (friend of
// MoveSelector; see engine.h).
struct EngineAccess {
  static std::vector<MoveSelector::Pending>& pending(MoveSelector& sel) {
    return sel.pending_;
  }
  /// Flushes this round's reanchor depths into the result histograms.
  static void flush_reanchors(const MoveSelector& sel, RunResult& result) {
    for (const std::int32_t depth : sel.reanchor_depths_) {
      result.reanchors_by_depth.add(depth);
      ++result.total_reanchors;
    }
    for (const std::int32_t depth : sel.reanchor_switch_depths_) {
      result.reanchor_switches_by_depth.add(depth);
      ++result.total_reanchor_switches;
    }
  }
  static const std::vector<std::pair<NodeId, NodeId>>& reservations(
      const MoveSelector& sel) {
    return sel.reserved_this_round_;
  }
};

namespace {

bool is_move(MoveSelector::Kind kind) {
  return kind == MoveSelector::Kind::kUp ||
         kind == MoveSelector::Kind::kDownExplored ||
         kind == MoveSelector::Kind::kDownDangling;
}

/// Claim 4: all open nodes lie in the union of anchor subtrees.
void check_open_node_coverage(const Tree& tree,
                              const ExplorationState& state,
                              const std::vector<NodeId>& anchors) {
  if (anchors.empty()) return;
  for (NodeId open : state.open_nodes()) {
    bool covered = false;
    for (NodeId anchor : anchors) {
      if (anchor != kInvalidNode &&
          tree.is_ancestor_or_self(anchor, open)) {
        covered = true;
        break;
      }
    }
    BFDN_CHECK(covered, str_format("Claim 4 violated: open node %d is in "
                                   "no anchor subtree",
                                   open));
  }
}

void init_depth_accounting(const Tree& tree, RunResult& result,
                           std::vector<std::int64_t>& unexplored_at_depth) {
  unexplored_at_depth.assign(static_cast<std::size_t>(tree.depth()) + 1, 0);
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    ++unexplored_at_depth[static_cast<std::size_t>(tree.depth(v))];
  }
  result.depth_completed_round.assign(
      static_cast<std::size_t>(tree.depth()) + 1, -1);
  result.depth_completed_round[0] = 0;
  for (std::size_t d = 1; d < unexplored_at_depth.size(); ++d) {
    if (unexplored_at_depth[d] == 0) {
      result.depth_completed_round[d] = 0;  // hollow level (impossible
                                            // in a tree, but cheap)
    }
  }
}

/// The MOVE step for one robot's selected move: position update,
/// first-traversal flags, dangling commit with depth-completion
/// accounting, per-robot move counter. Returns true iff the robot
/// actually moved. `commit_round` is the round recorded in
/// depth_completed_round when this move commits the last unexplored
/// node of a depth.
bool apply_pending_move(const Tree& tree, ExplorationState& state,
                        std::int32_t robot, const MoveSelector::Pending& p,
                        std::vector<std::int64_t>& unexplored_at_depth,
                        RunResult& result, std::int64_t commit_round) {
  const NodeId pos = state.robot_pos(robot);
  switch (p.kind) {
    case MoveSelector::Kind::kNone:
    case MoveSelector::Kind::kStay:
      return false;
    case MoveSelector::Kind::kUp:
      BFDN_CHECK(p.target == pos, "stale up-move");
      state.set_robot_pos(robot, tree.parent(pos));
      state.record_traversal(pos, /*downward=*/false);
      ++result.robot_moves[static_cast<std::size_t>(robot)];
      return true;
    case MoveSelector::Kind::kDownExplored:
      // No edge event: commit_dangling recorded this edge's downward
      // traversal when the child was explored.
      state.set_robot_pos(robot, p.target);
      ++result.robot_moves[static_cast<std::size_t>(robot)];
      return true;
    case MoveSelector::Kind::kDownDangling:
      if (!state.is_explored(p.target)) {
        state.commit_dangling(pos, p.target);
        const auto d = static_cast<std::size_t>(tree.depth(p.target));
        if (--unexplored_at_depth[d] == 0) {
          result.depth_completed_round[d] = commit_round;
        }
      }
      // else: a joiner; an earlier robot in this round's commit order
      // already explored the edge (group traversal).
      state.set_robot_pos(robot, p.target);
      ++result.robot_moves[static_cast<std::size_t>(robot)];
      return true;
  }
  return false;  // unreachable
}

/// Validates a committed walk (TransitPlan::kWalk) once, in O(1) by
/// preorder intervals. Returns true for a climb (`target` is an
/// ancestor of `from`), false for a descent (`target` is an explored
/// descendant, so every edge on the way is explored).
bool walk_climbs(const Tree& tree, const ExplorationState& state,
                 NodeId from, NodeId target) {
  if (tree.is_ancestor_or_self(target, from)) return true;
  BFDN_CHECK(tree.is_ancestor_or_self(from, target) &&
                 state.is_explored(target),
             "committed walk target is neither an ancestor nor an "
             "explored descendant of the robot's position");
  return false;
}

/// True iff a run may plan committed walks (TransitPlan) instead of
/// selecting every robot at every activation: the algorithm exposes
/// committed segments, fast-forward is requested, and nothing needs to
/// see or perturb every round (per-round hooks, break-down schedule,
/// reactive adversary). Results are identical either way.
bool plans_walks(const Algorithm& algorithm, const RunConfig& config) {
  return config.fast_forward && config.schedule == nullptr &&
         config.reactive == nullptr && config.trace == nullptr &&
         config.observer == nullptr && !config.check_invariants &&
         algorithm.transit_capability() ==
             TransitCapability::kCommittedSegments;
}

/// The engine's one execution core: the event loop cut at its event
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
class RunContext {
 public:
  /// `config` must already be validated (see run_exploration).
  RunContext(const Tree& tree, Algorithm& algorithm, const RunConfig& config);

  /// Processes one event. Returns false once the run has ended (round
  /// limit, algorithm finished, adversary done, or natural termination).
  bool advance();

  /// Final result hand-over. Call once, after advance() returned false.
  RunResult finish();

 private:
  /// Time of the next event (max_rounds + 1 when none remains within
  /// the round limit; the next advance() then terminates).
  std::int64_t next_event_round() const;
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
  // Out-of-lockstep walk replay: robot i's remaining committed steps,
  // the next one last.
  std::vector<std::vector<NodeId>> walk_;
  // Last event time at which each robot was activated and stayed.
  std::vector<std::int64_t> last_stay_;
  std::vector<std::int32_t> due_;        // activated at T, ascending
  std::vector<std::int32_t> selecting_;  // the due robots that select
  std::vector<ReactiveAdversary::ObservedMove> observed_;
  TransitPlan plan_;
  bool done_ = false;
  bool finished_ = false;
};

RunContext::RunContext(const Tree& tree, Algorithm& algorithm,
                       const RunConfig& config)
    : tree_(tree),
      algorithm_(algorithm),
      config_(config),
      k_(config.num_robots),
      max_rounds_(config.max_rounds > 0 ? config.max_rounds
                                        : default_round_limit(tree)),
      // Lockstep-only algorithms are driven synchronously under any
      // scheduler.
      scheduler_(config.async != nullptr && !config.async->lockstep() &&
                         algorithm.activation_granularity() ==
                             ActivationGranularity::kAsyncSafe
                     ? config.async
                     : nullptr),
      plans_walks_(plans_walks(algorithm, config)),
      adversary_(config.schedule != nullptr || config.reactive != nullptr),
      state_(tree, config.num_robots),
      movable_(static_cast<std::size_t>(k_), 1),
      num_movable_(k_),
      view_(state_, movable_),
      selector_(state_, movable_),
      next_(static_cast<std::size_t>(k_), 1),
      parked_(static_cast<std::size_t>(k_), 0),
      walk_(static_cast<std::size_t>(k_)),
      last_stay_(static_cast<std::size_t>(k_), -1) {
  result_.robot_moves.assign(static_cast<std::size_t>(k_), 0);
  init_depth_accounting(tree, result_, unexplored_at_depth_);
  if (scheduler_ != nullptr) {
    for (std::int32_t i = 0; i < k_; ++i) {
      const std::int64_t first = scheduler_->first_activation(i);
      BFDN_CHECK(first >= 1, "scheduler first_activation must be >= 1");
      next_[static_cast<std::size_t>(i)] = first;
    }
  }
  algorithm_.begin(view_);
  due_.reserve(static_cast<std::size_t>(k_));
  selecting_.reserve(static_cast<std::size_t>(k_));
}

std::int64_t RunContext::next_event_round() const {
  // Everyone parked: the next round is Algorithm 1's terminal all-stay.
  if (num_parked_ == k_) return result_.rounds + 1;
  std::int64_t t = max_rounds_ + 1;
  for (const std::int64_t next : next_) t = std::min(t, next);
  return t;
}

bool RunContext::stop() {
  done_ = true;
  return false;
}

bool RunContext::walking(std::size_t robot) const {
  return !walk_[robot].empty();
}

bool RunContext::stable() const {
  // Every robot is parked or has stayed strictly after the last move;
  // stay-stability (part of the kAsyncSafe contract) guarantees nobody
  // ever moves again. In lockstep this is exactly an all-stay round.
  for (std::int32_t i = 0; i < k_; ++i) {
    const auto s = static_cast<std::size_t>(i);
    if (!parked_[s] && last_stay_[s] <= result_.rounds) return false;
  }
  return true;
}

bool RunContext::advance() {
  if (done_) return false;
  const std::int64_t t = next_event_round();

  // Lockstep gap rounds (rounds, t): every unparked robot is mid-walk
  // and moves in each of them, so they all count; parked robots stay.
  if (scheduler_ == nullptr) {
    const std::int64_t gap_end = std::min(t - 1, max_rounds_);
    if (gap_end > result_.rounds) {
      const std::int64_t gap = gap_end - result_.rounds;
      result_.total_activations += gap * k_;
      if (num_parked_ > 0) {
        result_.rounds_with_idle += gap;
        result_.idle_robot_rounds += gap * num_parked_;
      }
      result_.rounds = gap_end;
    }
  }

  if (algorithm_.finished(view_)) return stop();
  if (t > max_rounds_) {
    result_.hit_round_limit = true;
    return stop();
  }
  // Section 4.2: under an adversary there is no return to the root.
  if (adversary_ && state_.exploration_complete()) return stop();
  if (config_.schedule != nullptr) {
    if (config_.schedule->exhausted(t - 1)) return stop();
    num_movable_ = 0;
    for (std::int32_t i = 0; i < k_; ++i) {
      const bool allowed = config_.schedule->allowed(t - 1, i);
      movable_[static_cast<std::size_t>(i)] = allowed ? 1 : 0;
      num_movable_ += allowed ? 1 : 0;
    }
  }

  due_.clear();
  selecting_.clear();
  for (std::int32_t i = 0; i < k_; ++i) {
    const auto s = static_cast<std::size_t>(i);
    if (next_[s] != t) continue;
    due_.push_back(i);
    if (scheduler_ != nullptr) {
      next_[s] = scheduler_->next_activation(t, i);
      BFDN_CHECK(next_[s] > t, "scheduler next_activation must advance time");
    } else {
      next_[s] = t + 1;
    }
    // In lockstep, parked robots and walkers are never due.
    if (scheduler_ == nullptr || (!parked_[s] && !walking(s))) {
      selecting_.push_back(i);
    }
  }

  selector_.reset();
  if (selecting_.size() == static_cast<std::size_t>(k_)) {
    algorithm_.select_moves(view_, selector_);
  } else if (!selecting_.empty()) {
    algorithm_.select_moves_subset(view_, selector_, selecting_);
  }
  if (config_.reactive != nullptr) apply_reactive(t);

  // MOVE over the due robots in ascending index order (the commit order
  // group traversals rely on): walkers replay their next committed
  // step, everyone else applies their selection.
  const std::vector<MoveSelector::Pending>& pending =
      EngineAccess::pending(selector_);
  std::int64_t moves = 0;
  std::int64_t idle = 0;
  for (const std::int32_t i : due_) {
    const auto s = static_cast<std::size_t>(i);
    if (scheduler_ != nullptr && parked_[s]) {
      ++idle;
    } else if (scheduler_ != nullptr && walking(s)) {
      // The next step of a validated walk. A down-step is no edge event:
      // commit_dangling recorded every explored edge's downward traversal.
      const NodeId cur = state_.robot_pos(i);
      if (walk_[s].back() == tree_.parent(cur)) {
        state_.record_traversal(cur, /*downward=*/false);
      }
      state_.set_robot_pos(i, walk_[s].back());
      walk_[s].pop_back();
      ++result_.robot_moves[s];
      ++moves;
    } else if (apply_pending_move(tree_, state_, i, pending[s],
                                  unexplored_at_depth_, result_, t)) {
      ++moves;
    } else {
      last_stay_[s] = t;
      if (movable_[s]) ++idle;
    }
  }
  if (scheduler_ == nullptr) {
    // Lockstep: parked robots stay, and the robots not due are mid-walk
    // (their step for this round was executed when the walk was planned).
    idle += num_parked_;
    moves += k_ - num_parked_ - static_cast<std::int64_t>(due_.size());
  }

  if (moves == 0 && !adversary_) {
    // Not a round. Algorithm 1's do-while ends on the first all-stay
    // round; out of lockstep, once every robot has stayed since the
    // last move.
    if (stable()) return stop();
  } else {
    // A counted round. Under break-downs an all-stay round still passes
    // time: it is counted and observed, but nothing else happened.
    result_.rounds = t;
    result_.total_activations += scheduler_ != nullptr
                                     ? static_cast<std::int64_t>(due_.size())
                                     : num_movable_;
    if (moves > 0) {
      if (idle > 0) {
        ++result_.rounds_with_idle;
        result_.idle_robot_rounds += idle;
      }
      EngineAccess::flush_reanchors(selector_, result_);
      if (config_.trace != nullptr) {
        TraceFrame frame;
        frame.round = t;
        frame.positions.reserve(static_cast<std::size_t>(k_));
        for (std::int32_t i = 0; i < k_; ++i) {
          frame.positions.push_back(state_.robot_pos(i));
        }
        config_.trace->push_back(std::move(frame));
      }
    }
    if (config_.observer != nullptr) config_.observer->on_round(t, state_);
    if (moves > 0 && config_.check_invariants) {
      check_open_node_coverage(tree_, state_, algorithm_.anchors());
    }
  }

  if (plans_walks_) plan(t);
  return true;
}

void RunContext::apply_reactive(std::int64_t t) {
  // Remark 8: the adversary sees the selections, then blocks.
  std::vector<MoveSelector::Pending>& pending =
      EngineAccess::pending(selector_);
  observed_.assign(static_cast<std::size_t>(k_),
                   ReactiveAdversary::ObservedMove{});
  for (std::int32_t i = 0; i < k_; ++i) {
    auto& entry = observed_[static_cast<std::size_t>(i)];
    const auto kind = pending[static_cast<std::size_t>(i)].kind;
    entry.robot = i;
    entry.moves = is_move(kind);
    entry.takes_dangling = kind == MoveSelector::Kind::kDownDangling;
  }
  const std::vector<char> blocked =
      config_.reactive->choose_blocked(t - 1, observed_);
  BFDN_CHECK(static_cast<std::int32_t>(blocked.size()) == k_,
             "reactive adversary returned a wrong-sized block mask");
  for (std::int32_t i = 0; i < k_; ++i) {
    if (!blocked[static_cast<std::size_t>(i)]) continue;
    auto& p = pending[static_cast<std::size_t>(i)];
    if (is_move(p.kind)) ++result_.reactive_blocks;
    p = {MoveSelector::Kind::kStay, kInvalidNode};
  }
  // Release reservations whose edge no robot will traverse anymore (a
  // group-joining teammate may still carry a blocked reserver's edge,
  // in which case the reservation must survive to be consumed by that
  // commit).
  for (const auto& [token, at] : EngineAccess::reservations(selector_)) {
    bool still_used = false;
    for (const auto& p : pending) {
      if (p.kind == MoveSelector::Kind::kDownDangling && p.target == token) {
        still_used = true;
        break;
      }
    }
    if (!still_used) state_.release_dangling(at, token);
  }
}

// Why eager walks are exact: a committed-segment algorithm decides each
// robot's move from shared exploration state plus that robot's own
// private state only, and transit moves touch no shared state another
// robot's decision reads (traversal flags are write-only bookkeeping;
// dangling counts only ever decrease). Executing a walk the moment it
// is planned is therefore indistinguishable from interleaving its steps
// with the other robots' rounds. See docs/MODEL.md.
void RunContext::plan(std::int64_t t) {
  // Re-plan every robot that just selected, from the post-MOVE state.
  for (const std::int32_t i : selecting_) {
    const auto s = static_cast<std::size_t>(i);
    plan_.kind = TransitPlan::Kind::kEvent;
    plan_.target = kInvalidNode;
    algorithm_.plan_transit(view_, i, plan_);
    if (plan_.kind == TransitPlan::Kind::kStayForever) {
      parked_[s] = 1;
      ++num_parked_;
      if (scheduler_ == nullptr) next_[s] = max_rounds_ + 1;
      continue;
    }
    if (plan_.kind != TransitPlan::Kind::kWalk) continue;
    const NodeId from = state_.robot_pos(i);
    const NodeId target = plan_.target;
    const bool climb = walk_climbs(tree_, state_, from, target);
    if (scheduler_ != nullptr) {
      // Out of lockstep the walk is replayed one step per activation.
      std::vector<NodeId>& steps = walk_[s];
      steps.clear();
      if (climb) {
        for (NodeId cur = from; cur != target;) {
          cur = tree_.parent(cur);
          steps.push_back(cur);
        }
        std::reverse(steps.begin(), steps.end());
      } else {
        for (NodeId cur = target; cur != from; cur = tree_.parent(cur)) {
          steps.push_back(cur);
        }
      }
      continue;
    }
    // Lockstep: execute the walk now; its steps occupy rounds t + 1 ..
    // t + len, and a walk capped by the limit ends len steps along the
    // way and never wakes.
    const std::int64_t full_len =
        std::abs(tree_.depth(target) - tree_.depth(from));
    const std::int64_t len = std::min(full_len, max_rounds_ - t);
    NodeId end = target;
    if (climb) {
      end = from;
      for (std::int64_t step = 0; step < len; ++step) {
        state_.record_traversal(end, /*downward=*/false);
        end = tree_.parent(end);
      }
    } else {
      // A descent is no edge event (see commit_dangling).
      for (std::int64_t step = len; step < full_len; ++step) {
        end = tree_.parent(end);
      }
    }
    state_.set_robot_pos(i, end);
    result_.robot_moves[s] += len;
    next_[s] = len < full_len ? max_rounds_ + 1 : t + len + 1;
  }
}

RunResult RunContext::finish() {
  BFDN_REQUIRE(done_, "finish() before the run ended");
  BFDN_REQUIRE(!finished_, "finish() called twice");
  finished_ = true;
  result_.complete = state_.num_explored_nodes() == tree_.num_nodes();
  result_.edge_events = state_.edge_events();
  result_.all_at_root = true;
  for (std::int32_t i = 0; i < k_; ++i) {
    if (state_.robot_pos(i) != tree_.root()) {
      result_.all_at_root = false;
      break;
    }
  }
  result_.final_state_hash = state_.state_hash();
  return std::move(result_);
}

}  // namespace

RunResult run_exploration(const Tree& tree, Algorithm& algorithm,
                          const RunConfig& config) {
  BFDN_REQUIRE(config.num_robots >= 1, "need at least one robot");
  BFDN_REQUIRE(config.schedule == nullptr || config.reactive == nullptr,
               "schedule and reactive adversary are mutually exclusive");
  BFDN_REQUIRE(config.async == nullptr ||
                   (config.schedule == nullptr && config.reactive == nullptr),
               "async scheduler is mutually exclusive with the break-down "
               "and reactive adversaries");
  RunContext run(tree, algorithm, config);
  while (run.advance()) {
  }
  return run.finish();
}

std::int64_t default_round_limit(const Tree& tree) {
  return 3 * static_cast<std::int64_t>(std::max(tree.depth(), 1)) *
             tree.num_nodes() +
         4 * tree.num_nodes() + 4 * tree.depth() + 64;
}

double theorem1_bound(std::int64_t n, std::int32_t depth,
                      std::int32_t max_degree, std::int32_t k) {
  const double log_term = std::min(std::log(static_cast<double>(k)),
                                   std::log(static_cast<double>(
                                       std::max(max_degree, 1))));
  return 2.0 * static_cast<double>(n) / static_cast<double>(k) +
         static_cast<double>(depth) * static_cast<double>(depth) *
             (std::max(log_term, 0.0) + 3.0);
}

double lemma2_bound(std::int32_t k, std::int32_t max_degree) {
  const double log_term = std::min(std::log(static_cast<double>(k)),
                                   std::log(static_cast<double>(
                                       std::max(max_degree, 1))));
  return static_cast<double>(k) * (std::max(log_term, 0.0) + 3.0);
}

double offline_lower_bound(std::int64_t n, std::int32_t depth,
                           std::int32_t k) {
  return std::max(
      2.0 * static_cast<double>(n - 1) / static_cast<double>(k),
      2.0 * static_cast<double>(depth));
}

}  // namespace bfdn
