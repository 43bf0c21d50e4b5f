// Failure injection: algorithms that violate the model must be rejected
// by the engine with a CheckError, never silently accepted — a corrupted
// exploration state would invalidate every measured result.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "sim/engine.h"
#include "support/check.h"

namespace bfdn {
namespace {

/// Adapter to write one-off misbehaving algorithms inline.
class LambdaAlgorithm : public Algorithm {
 public:
  using Fn = std::function<void(const ExplorationView&, MoveSelector&)>;
  explicit LambdaAlgorithm(Fn fn) : fn_(std::move(fn)) {}
  std::string name() const override { return "lambda"; }
  void select_moves(const ExplorationView& view,
                    MoveSelector& selector) override {
    fn_(view, selector);
  }

 private:
  Fn fn_;
};

RunConfig one_robot() {
  RunConfig config;
  config.num_robots = 1;
  return config;
}

TEST(EngineMisuseTest, DoubleSelectionRejected) {
  const Tree tree = make_star(4);
  LambdaAlgorithm algo([](const ExplorationView&, MoveSelector& sel) {
    sel.stay(0);
    sel.move_up(0);  // second selection for the same robot
  });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

TEST(EngineMisuseTest, MoveDownToUnexploredChildRejected) {
  const Tree tree = make_path(4);
  LambdaAlgorithm algo([](const ExplorationView&, MoveSelector& sel) {
    // Node 1 exists in the hidden tree but was never explored.
    sel.move_down(0, 1);
  });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

TEST(EngineMisuseTest, MoveDownToNonChildRejected) {
  const Tree tree = make_path(3);
  LambdaAlgorithm algo([](const ExplorationView& view, MoveSelector& sel) {
    if (view.robot_pos(0) == view.root()) {
      (void)sel.try_take_dangling(0);
      return;
    }
    sel.move_down(0, view.root());  // the root is nobody's child
  });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

TEST(EngineMisuseTest, OutOfRangeRobotIndexRejected) {
  const Tree tree = make_path(3);
  LambdaAlgorithm algo([](const ExplorationView&, MoveSelector& sel) {
    sel.stay(7);  // only robot 0 exists
  });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

TEST(EngineMisuseTest, JoinWithoutReservationRejected) {
  const Tree tree = make_star(4);
  LambdaAlgorithm algo([](const ExplorationView&, MoveSelector& sel) {
    sel.join_dangling(0, 1);  // nothing reserved this round
  });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

TEST(EngineMisuseTest, JoinFromDifferentNodeRejected) {
  const Tree tree = make_complete_bary(2, 2);
  RunConfig config;
  config.num_robots = 2;
  LambdaAlgorithm algo([](const ExplorationView& view, MoveSelector& sel) {
    // Robot 0 reserves at the root; robot 1, once elsewhere, tries to
    // join that token from a different node.
    const NodeId token = sel.try_take_dangling(0);
    if (token != kInvalidNode && view.robot_pos(1) != view.robot_pos(0)) {
      sel.join_dangling(1, token);
      return;
    }
    if (token == kInvalidNode) {
      sel.stay(0);
    }
    if (sel.try_take_dangling(1) == kInvalidNode) sel.move_up(1);
  });
  EXPECT_THROW(run_exploration(tree, algo, config), CheckError);
}

TEST(EngineMisuseTest, StallWithoutCompletionStopsCleanly) {
  // An algorithm that gives up mid-way: the engine terminates (do-while
  // semantics) and honestly reports the incomplete exploration.
  const Tree tree = make_path(10);
  std::int64_t budget = 3;
  LambdaAlgorithm algo(
      [&budget](const ExplorationView&, MoveSelector& sel) {
        if (budget-- > 0) (void)sel.try_take_dangling(0);
      });
  const RunResult result = run_exploration(tree, algo, one_robot());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.rounds, 3);
}

TEST(EngineMisuseTest, ViewRejectsQueriesOnUnexploredNodes) {
  const Tree tree = make_path(4);
  LambdaAlgorithm algo([](const ExplorationView& view, MoveSelector& sel) {
    (void)sel;
    (void)view.depth(3);  // node 3 not explored yet
  });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

/// Committed-segments stub: every robot takes a dangling edge if it
/// can and climbs otherwise, then plans a walk to whatever `target`
/// returns for its post-move position.
class WalkStub : public Algorithm {
 public:
  using Target = std::function<NodeId(const ExplorationView&, NodeId)>;
  explicit WalkStub(Target target) : target_(std::move(target)) {}
  std::string name() const override { return "walk-stub"; }
  void select_moves(const ExplorationView& view,
                    MoveSelector& selector) override {
    std::vector<std::int32_t> all;
    for (std::int32_t i = 0; i < view.num_robots(); ++i) all.push_back(i);
    select_moves_subset(view, selector, all);
  }
  void select_moves_subset(const ExplorationView&, MoveSelector& selector,
                           const std::vector<std::int32_t>& robots) override {
    for (const std::int32_t i : robots) {
      if (selector.try_take_dangling(i) == kInvalidNode) selector.move_up(i);
    }
  }
  TransitCapability transit_capability() const override {
    return TransitCapability::kCommittedSegments;
  }
  void plan_transit(const ExplorationView& view, std::int32_t robot,
                    TransitPlan& plan) override {
    const NodeId pos = view.robot_pos(robot);
    if (pos == view.root()) return;  // kEvent
    plan.kind = TransitPlan::Kind::kWalk;
    plan.target = target_(view, pos);
  }

 private:
  Target target_;
};

/// The run must fail on the engine's walk validation itself, not on a
/// later symptom of a robot standing where it cannot be.
void expect_walk_rejected(const Tree& tree, Algorithm& algo,
                          const RunConfig& config) {
  try {
    run_exploration(tree, algo, config);
    ADD_FAILURE() << "illegal committed walk accepted";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("committed walk target"),
              std::string::npos)
        << error.what();
  }
}

TEST(EngineMisuseTest, WalkToAncestorAccepted) {
  // Control for the rejections below: a walk back to the root is a
  // legal climb, and the stub then explores the whole star.
  const Tree tree = make_star(5);
  WalkStub algo([](const ExplorationView& view, NodeId) {
    return view.root();
  });
  RunConfig config;
  config.num_robots = 2;
  const RunResult result = run_exploration(tree, algo, config);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.all_at_root);
}

TEST(EngineMisuseTest, WalkToUnexploredDescendantRejected) {
  // path(4) is 0-1-2-3: from node 1, node 3 is a descendant the robots
  // have not explored yet.
  const Tree tree = make_path(4);
  WalkStub algo([](const ExplorationView&, NodeId) { return NodeId{3}; });
  expect_walk_rejected(tree, algo, one_robot());
}

TEST(EngineMisuseTest, WalkToExploredNonRelativeRejected) {
  // Two robots explore two leaves of a star in round 1; each then names
  // the other's leaf, which is explored but neither an ancestor nor a
  // descendant of its own position.
  const Tree tree = make_star(4);
  RunConfig config;
  config.num_robots = 2;
  WalkStub algo([](const ExplorationView& view, NodeId pos) {
    const NodeId other = view.robot_pos(0) == pos ? view.robot_pos(1)
                                                  : view.robot_pos(0);
    return other;
  });
  expect_walk_rejected(tree, algo, config);
}

TEST(EngineMisuseTest, WalkToInvalidNodeRejected) {
  const Tree tree = make_path(3);
  WalkStub algo([](const ExplorationView&, NodeId) { return kInvalidNode; });
  EXPECT_THROW(run_exploration(tree, algo, one_robot()), CheckError);
}

TEST(EngineMisuseTest, ZeroRobotsRejected) {
  const Tree tree = make_path(2);
  LambdaAlgorithm algo([](const ExplorationView&, MoveSelector&) {});
  RunConfig config;
  config.num_robots = 0;
  EXPECT_THROW(run_exploration(tree, algo, config), CheckError);
}

}  // namespace
}  // namespace bfdn
