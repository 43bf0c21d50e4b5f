// Seeded workload inputs. The shapes (family, size, k, scheduler) of
// every request are fixed per slot of a short cycle, so each seed sends
// the same cost mix; the seed picks the tree seeds, algorithm seeds and
// draw order. See README.md for why each workload looks the way it does.
#include <algorithm>
#include <cmath>

#include "harness.h"
#include "graph/tree.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/strings.h"

namespace perfbench {
namespace {

using bfdn::AsyncKind;
using bfdn::ReanchorPolicy;
using bfdn::ServiceRequest;

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Counter-based mixing: a pure function of (a, b).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a * kGolden + b;
  return bfdn::splitmix64(state);
}

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Tree seed of stream index `index`: bijective in the index for a
/// fixed plan seed, so recipe labels never repeat within a stream.
std::uint64_t unique_tree_seed(std::uint64_t seed, std::int64_t index) {
  return seed * kGolden + static_cast<std::uint64_t>(index);
}

struct Shape {
  const char* family;
  std::int64_t nodes;
  std::int32_t depth;
  std::int32_t arms;
  std::int32_t k;
  bool async;
};

ServiceRequest make_run(const Shape& shape, std::uint64_t tree_seed,
                        std::string id) {
  ServiceRequest request;
  request.type = bfdn::RequestType::kRun;
  request.id = std::move(id);
  request.recipe.family = shape.family;
  request.recipe.nodes = shape.nodes;
  request.recipe.depth = shape.depth;
  request.recipe.arms = shape.arms;
  request.recipe.seed = tree_seed;
  request.algo.kind = bfdn::AlgoKind::kBfdn;
  request.algo.k = shape.k;
  if (shape.async) {
    request.async.kind = AsyncKind::kFixedRate;
    request.async.period = 2;
    request.async.num_slow = 2;
  }
  return request;
}

// cold_explore: n ~ 20k trees. Six of the eight shapes cost 6-11 ms of
// build + engine on the reference machine, the two caterpillars about
// 22 ms each. So the p50 lies inside the dense cheap cluster and the p90
// in the middle of the caterpillar cluster (a quarter of the mix), not
// in the gap between clusters. Two of eight (a quarter) run under a
// fixed-rate async scheduler.
constexpr Shape kColdShapes[] = {
    {"fixed-depth", 20000, 40, 3, 8, false},
    {"random", 20000, 12, 3, 32, false},
    {"caterpillar", 20000, 12, 3, 8, false},
    {"binary", 20000, 14, 3, 16, false},
    {"fixed-depth", 20000, 40, 3, 16, true},
    {"comb", 20000, 200, 100, 8, false},
    {"caterpillar", 20000, 12, 19, 8, false},
    {"spider", 20000, 12, 64, 16, true},
};

// campaign_sweep: every campaign executes 16 distinct runs over a
// random n ~ 20k tree (a fresh tree per campaign). The random reanchor
// policy consumes the algorithm seed, so 2 ks x 8 seeds = 16 members all
// execute, interleaved; least-loaded is seed-blind, so 16 ks x 2 seeds =
// 32 members coalesce onto 16 runs. The two halves cost about the same
// (150 ms of batch pass on the reference machine), so the latency
// distribution has one cluster and the p50 does not sit in a gap. One
// family keeps the tree seed the only source of cost variation.
constexpr ReanchorPolicy kCampaignPolicies[] = {ReanchorPolicy::kRandom,
                                                ReanchorPolicy::kLeastLoaded};

// warm_hits: a hot set of n ~ 2k recipes.
constexpr Shape kWarmShapes[] = {
    {"fixed-depth", 2000, 20, 3, 4, false},
    {"random", 2000, 12, 3, 8, false},
    {"comb", 2000, 100, 20, 16, false},
    {"binary", 2000, 10, 3, 8, false},
    {"spider", 2000, 12, 16, 4, true},
    {"caterpillar", 2000, 12, 3, 8, false},
};
constexpr std::size_t kWarmSetSize = 256;
constexpr double kWarmZipfExponent = 1.0;

// store_rewarm: a few thousand small-tree results, far more than the
// rebooted server's memory cache holds (WorkloadShape::cache).
constexpr Shape kStoreShapes[] = {
    {"random", 300, 12, 3, 4, false},
    {"fixed-depth", 300, 12, 3, 2, false},
    {"comb", 300, 30, 10, 8, false},
    {"spider", 300, 12, 6, 4, false},
};
constexpr std::size_t kStoreSetSize = 3000;

template <typename T, std::size_t N>
const T& cycle(const T (&shapes)[N], std::int64_t index) {
  return shapes[static_cast<std::size_t>(index) % N];
}

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  for (const Workload w :
       {Workload::kColdExplore, Workload::kCampaignSweep,
        Workload::kWarmHits, Workload::kStoreRewarm}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kColdExplore: return "cold_explore";
    case Workload::kCampaignSweep: return "campaign_sweep";
    case Workload::kWarmHits: return "warm_hits";
    case Workload::kStoreRewarm: return "store_rewarm";
  }
  return "?";
}

WorkloadShape workload_shape(Workload workload) {
  WorkloadShape shape;
  switch (workload) {
    // The stream workloads never hit, so their memory tier is kept small
    // and full within seconds: peak RSS then does not grow with the
    // number of results a run delivers.
    case Workload::kColdExplore:
      shape = {2, 2, 2, 64, 64, true, 9, 64};
      break;
    case Workload::kCampaignSweep:
      // Two in-flight campaigns of up to 32 members fit the window.
      shape = {2, 2, 2, 128, 64, false, 9, 8};
      break;
    // The hit workloads run eight closed-loop connections over four
    // client threads. With one connection per thread, vCPUs idle between
    // hits and the run measures wake-up latency and steal, not the
    // program (README.md, "Steadiness").
    case Workload::kWarmHits:
      // Cache holds the whole hot set, so every measured request hits.
      shape = {8, 4, 2, 64, 1024, false, 5, 50000};
      break;
    case Workload::kStoreRewarm:
      // Memory tier far smaller than the working set: nearly every
      // request reads through to the store and evicts.
      shape = {8, 4, 2, 64, 128, true, 5, 20000};
      break;
  }
  return shape;
}

bool is_stream(Workload workload) {
  return workload == Workload::kColdExplore ||
         workload == Workload::kCampaignSweep;
}

ServiceRequest stream_request(Workload workload, std::uint64_t seed,
                              std::int64_t index) {
  BFDN_REQUIRE(is_stream(workload), "stream_request: not a stream workload");
  BFDN_REQUIRE(index >= 0, "stream_request: negative index");
  const std::uint64_t tree_seed = unique_tree_seed(seed, index);
  if (workload == Workload::kColdExplore) {
    return make_run(cycle(kColdShapes, index), tree_seed,
                    bfdn::str_format("c%lld", static_cast<long long>(index)));
  }
  const ReanchorPolicy policy = cycle(kCampaignPolicies, index);
  ServiceRequest request =
      make_run({"random", 20000, 12, 3, 8, false}, tree_seed,
               bfdn::str_format("s%lld", static_cast<long long>(index)));
  request.type = bfdn::RequestType::kCampaign;
  request.algo.options.policy = policy;
  const std::uint64_t seed_base = mix(seed, static_cast<std::uint64_t>(index));
  if (policy == ReanchorPolicy::kRandom) {
    request.campaign_ks = {8, 16};
    for (std::uint64_t s = 0; s < 8; ++s) {
      request.campaign_seeds.push_back((seed_base + s) & 0xFFFFFFFFULL);
    }
  } else {
    for (std::int32_t k = 8; k < 24; ++k) request.campaign_ks.push_back(k);
    request.campaign_seeds = {seed_base & 0xFFFFFFFFULL,
                              (seed_base + 1) & 0xFFFFFFFFULL};
  }
  return request;
}

std::vector<ServiceRequest> working_set(Workload workload,
                                        std::uint64_t seed) {
  BFDN_REQUIRE(!is_stream(workload), "working_set: not a set workload");
  const bool warm = workload == Workload::kWarmHits;
  const std::size_t size = warm ? kWarmSetSize : kStoreSetSize;
  std::vector<ServiceRequest> set;
  set.reserve(size);
  for (std::size_t slot = 0; slot < size; ++slot) {
    const auto index = static_cast<std::int64_t>(slot);
    const Shape& shape =
        warm ? cycle(kWarmShapes, index) : cycle(kStoreShapes, index);
    set.push_back(make_run(
        shape, unique_tree_seed(seed, index),
        bfdn::str_format("%c%zu", warm ? 'w' : 'r', slot)));
  }
  return set;
}

DrawSequence::DrawSequence(Workload workload, std::uint64_t seed,
                           std::size_t set_size)
    : seed_(seed), set_size_(set_size) {
  BFDN_REQUIRE(set_size > 0, "DrawSequence: empty working set");
  if (workload != Workload::kWarmHits) return;
  cdf_.resize(set_size);
  double total = 0;
  for (std::size_t i = 0; i < set_size; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kWarmZipfExponent);
    cdf_[i] = total;
  }
  for (double& value : cdf_) value /= total;
}

std::uint32_t DrawSequence::at(std::uint64_t index) const {
  const double u = unit_interval(mix(seed_ ^ 0xD1B54A32D192ED03ULL, index));
  std::size_t slot = 0;
  if (cdf_.empty()) {
    slot = static_cast<std::size_t>(u * static_cast<double>(set_size_));
  } else {
    slot = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }
  return static_cast<std::uint32_t>(std::min(slot, set_size_ - 1));
}

std::int64_t results_of(const ServiceRequest& request) {
  if (request.type != bfdn::RequestType::kCampaign) return 1;
  return static_cast<std::int64_t>(
      std::max<std::size_t>(1, request.campaign_ks.size()) *
      std::max<std::size_t>(1, request.campaign_seeds.size()));
}

std::string expected_response(const ServiceRequest& request, bool cached) {
  const bfdn::Tree tree = request.recipe.build();
  if (request.type != bfdn::RequestType::kCampaign) {
    return bfdn::ok_response(request.id, cached,
                             bfdn::request_fingerprint(request),
                             bfdn::execute_run(request, tree));
  }
  std::vector<bfdn::CampaignMemberResponse> members;
  for (const ServiceRequest& member : bfdn::expand_campaign(request)) {
    members.push_back({cached, bfdn::request_fingerprint(member),
                       bfdn::execute_run(member, tree)});
  }
  return bfdn::campaign_response(request.id, members);
}

}  // namespace perfbench
