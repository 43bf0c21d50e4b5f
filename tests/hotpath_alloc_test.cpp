// Verifies the engine round loop's allocation discipline: a BFDN run
// performs a bounded number of heap allocations (state construction,
// buffer warm-up, result histograms) that does NOT scale with the
// number of simulated rounds. A single stray per-round allocation in
// the engine, the selector, the state or BfdnAlgorithm multiplies by
// the round count and blows the ceiling by orders of magnitude.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/bfdn.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "support/rng.h"

namespace {

// Thread-local so gtest internals on other threads (none expected) and
// static initialization cannot race the counter.
thread_local bool g_counting = false;
thread_local std::int64_t g_allocations = 0;

struct CountingScope {
  CountingScope() {
    g_allocations = 0;
    g_counting = true;
  }
  ~CountingScope() { g_counting = false; }
  std::int64_t count() const { return g_allocations; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bfdn {
namespace {

std::int64_t allocations_for_run(const Tree& tree, std::int32_t k) {
  BfdnAlgorithm algorithm(k);
  RunConfig config;
  config.num_robots = k;
  CountingScope scope;
  const RunResult result = run_exploration(tree, algorithm, config);
  EXPECT_TRUE(result.complete);
  return scope.count();
}

TEST(HotpathAlloc, RunAllocationsAreRoundsIndependent) {
  // comb(40, 200): n = 8040, D = 240, thousands of rounds at k = 8.
  const Tree tree = make_comb(40, 200);
  const std::int64_t allocations = allocations_for_run(tree, 8);

  BfdnAlgorithm probe(8);
  RunConfig config;
  config.num_robots = 8;
  const RunResult result = run_exploration(tree, probe, config);
  ASSERT_GT(result.rounds, 2000);  // the scenario is genuinely long

  // Construction + warm-up budget: open-depth buckets (<= D+1), result
  // histogram nodes (<= D), fixed engine/algorithm vectors, amortized
  // buffer growth. Deliberately generous — but a single allocation per
  // round would already cost > result.rounds on its own.
  const std::int64_t budget = 6 * (tree.depth() + 1) + 2 * 8 + 512;
  EXPECT_LT(allocations, budget)
      << "rounds=" << result.rounds
      << " — the engine round loop is allocating per round again";
  EXPECT_LT(allocations, result.rounds);
}

TEST(HotpathAlloc, DeeperRunSameAllocationOrder) {
  // Same spine, 3x deeper teeth: far more rounds, allocation count must
  // move by O(D), not O(rounds).
  const Tree shallow = make_comb(24, 100);
  const Tree deep = make_comb(24, 300);
  const std::int64_t a1 = allocations_for_run(shallow, 8);
  const std::int64_t a2 = allocations_for_run(deep, 8);
  EXPECT_LT(a2 - a1, 8 * (deep.depth() - shallow.depth()) + 256);
}

TEST(HotpathAlloc, DeepTreeReanchorTalliesStayFlat) {
  // A random n = 8000 tree of depth 1000, on which BFDN (k = 16)
  // reanchors at over a hundred distinct depths across ~16k rounds. The
  // engine tallies each round's reanchors in lists reserved to k, so
  // what remains per depth is the state's open-depth bucket and one
  // histogram node per distinct reanchor (and switch) depth; everything
  // else is a small constant, however deep the tree and however many
  // events the run takes.
  Rng rng(4);
  const Tree tree = make_tree_with_depth(8000, 1000, rng);
  ASSERT_GE(tree.depth(), 1000);
  BfdnAlgorithm algorithm(16);
  RunConfig config;
  config.num_robots = 16;
  RunResult result;
  std::int64_t allocations = 0;
  {
    CountingScope scope;
    result = run_exploration(tree, algorithm, config);
    allocations = scope.count();
  }
  ASSERT_TRUE(result.complete);
  const auto reanchor_depths =
      static_cast<std::int64_t>(result.reanchors_by_depth.buckets().size());
  const auto switch_depths = static_cast<std::int64_t>(
      result.reanchor_switches_by_depth.buckets().size());
  ASSERT_GT(reanchor_depths, 100);
  const std::int64_t per_depth =
      (tree.depth() + 1) + reanchor_depths + switch_depths;
  EXPECT_LT(allocations - per_depth, 512)
      << "allocations=" << allocations << " per_depth=" << per_depth
      << " rounds=" << result.rounds;
}

}  // namespace
}  // namespace bfdn
