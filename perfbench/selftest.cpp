// Self-tests of the benchmark harness: the percentile rule, the
// quiet-window selection, plan determinism, recipe distinctness of the
// stream plans, the metric-name grammar and the /proc parsers. Run with
// `python3 perfbench/run.py --selftest` (or the perfbench_selftest
// binary); exits 1 on a failure.
#include <cstdio>
#include <set>
#include <string>

#include "harness.h"
#include "support/check.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

void test_percentile_rule() {
  expect(percentile(one_to(100), 0.5) == 50, "p50 of 1..100 is 50");
  expect(percentile(one_to(100), 0.9) == 90, "p90 of 1..100 is 90");
  expect(percentile(one_to(1), 0.9) == 1, "percentile of one sample");
  expect(percentile_reportable(100, 0.9), "p90 needs 100 samples");
  expect(!percentile_reportable(99, 0.9), "99 samples leave 9 beyond p90");
  expect(percentile_reportable(1000, 0.99), "p99 needs 1000 samples");
  expect(!percentile_reportable(999, 0.99), "999 samples: no p99");
  expect(percentile_reportable(20, 0.5), "p50 needs 20 samples");
  expect(!percentile_reportable(19, 0.5), "19 samples: no p50");
  expect(!percentile_reportable(0, 0.5), "no samples: nothing");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_quietest() {
  const std::vector<bool> kept = quietest({0.3, 0.0, 0.1, 0.0, 0.2}, 3);
  expect(kept == std::vector<bool>({false, true, true, true, false}),
         "the three windows with the least steal are kept");
  expect(quietest({0.1, 0.1, 0.1}, 2) == std::vector<bool>({true, true, false}),
         "equal steal keeps the earlier windows");
  expect(quietest({0.5, 0.4}, 3) == std::vector<bool>({true, true}),
         "fewer samples than asked: all are kept");
}

void test_plan_determinism() {
  for (const Workload w : {Workload::kColdExplore, Workload::kCampaignSweep}) {
    for (std::int64_t i = 0; i < 64; ++i) {
      const std::string a = bfdn::serialize_request(stream_request(w, 7, i));
      const std::string b = bfdn::serialize_request(stream_request(w, 7, i));
      const std::string c = bfdn::serialize_request(stream_request(w, 8, i));
      expect(a == b, "same seed, same stream request");
      expect(a != c, "another seed, another stream request");
      // Seeds change tree and algorithm seeds, never the cost shape.
      const bfdn::ServiceRequest x = stream_request(w, 7, i);
      const bfdn::ServiceRequest y = stream_request(w, 8, i);
      expect(x.recipe.family == y.recipe.family && x.algo.k == y.algo.k &&
                 x.campaign_ks == y.campaign_ks &&
                 x.async.kind == y.async.kind && results_of(x) == results_of(y),
             "the cost mix does not depend on the seed");
    }
  }
  for (const Workload w : {Workload::kWarmHits, Workload::kStoreRewarm}) {
    const auto a = working_set(w, 3);
    const auto b = working_set(w, 3);
    expect(a.size() == b.size(), "working-set size is fixed");
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect(bfdn::serialize_request(a[i]) == bfdn::serialize_request(b[i]),
             "same seed, same working set");
    }
    const DrawSequence d1(w, 3, a.size());
    const DrawSequence d2(w, 3, a.size());
    const DrawSequence other(w, 4, a.size());
    bool differs = false;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      expect(d1.at(i) == d2.at(i), "same seed, same draws");
      expect(d1.at(i) < a.size(), "draw inside the working set");
      differs = differs || d1.at(i) != other.at(i);
    }
    expect(differs, "another seed, other draws");
  }
  // Zipf: slot 0 of the warm set is drawn far more often than uniform.
  const DrawSequence zipf(Workload::kWarmHits, 1, 256);
  int head = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) head += zipf.at(i) == 0 ? 1 : 0;
  expect(head > 1000, "warm draws are Zipf-skewed");
}

void test_stream_recipes_distinct() {
  for (const Workload w : {Workload::kColdExplore, Workload::kCampaignSweep}) {
    std::set<std::string> labels;
    std::set<std::uint64_t> keys;
    for (std::int64_t i = 0; i < 4096; ++i) {
      const bfdn::ServiceRequest request = stream_request(w, 11, i);
      labels.insert(request.recipe.label());
      if (request.type == bfdn::RequestType::kRun) {
        keys.insert(bfdn::request_fingerprint(request));
      }
    }
    expect(labels.size() == 4096,
           "no two stream requests (in flight or not) share a recipe");
    if (w == Workload::kColdExplore) {
      expect(keys.size() == 4096, "every cold request misses the cache");
    }
  }
  const bfdn::ServiceRequest campaign =
      stream_request(Workload::kCampaignSweep, 1, 0);
  expect(results_of(campaign) >= 16 && results_of(campaign) <= 32,
         "campaigns have 16-32 members");
}

void test_metric_names() {
  for (const char* good : {"server.transport_us", "share.other", "p50_ms",
                           "a-b_c.d", "9lives"}) {
    expect(valid_metric_name(good), good);
  }
  for (const char* bad : {"", ".x", "_x", "a b", "a/b", "x\"y"}) {
    expect(!valid_metric_name(bad), bad);
  }
  expect(valid_metric_name(std::string(64, 'a')), "64 characters allowed");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters refused");
  MetricSet set;
  set.add("x.y", 1.5, "ms");
  bool threw = false;
  try {
    set.add("x.y", 2, "ms");
  } catch (const bfdn::CheckError&) {
    threw = true;
  }
  expect(threw, "a repeated metric is refused");
  expect(set.json() == "{\"x.y\":{\"value\":1.5,\"unit\":\"ms\"}}",
         "metric JSON shape");
}

void test_proc_parsing() {
  MachineTicks ticks;
  expect(parse_proc_stat("cpu  10 1 5 100 2 0 3 7 0 0\ncpu0 1 2 3\n", &ticks),
         "parse /proc/stat");
  expect(ticks.total == 128 && ticks.steal == 7, "/proc/stat totals");
  expect(!parse_proc_stat("intr 1 2 3\n", &ticks), "reject a non-cpu line");

  std::uint64_t cpu = 0;
  const char* stat =
      "4242 (bfdn (serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
      "250 75 0 0 20 0 6 0 12345 1000000 500";
  expect(parse_pid_cpu_ticks(stat, &cpu) && cpu == 325,
         "utime + stime past a name with spaces and parentheses");
  expect(!parse_pid_cpu_ticks("4242 (x) S 1 2", &cpu), "short stat refused");

  std::int64_t kb = 0;
  const char* status = "Name:\tbfdn_serve\nVmPeak:\t  9000 kB\n"
                       "VmHWM:\t    5120 kB\nVmRSS:\t    4000 kB\n";
  expect(parse_status_kb(status, "VmHWM", &kb) && kb == 5120, "VmHWM");
  expect(!parse_status_kb(status, "VmSwap", &kb), "missing field");
  std::uint64_t mask = 0;
  expect(parse_status_mask("SigIgn:\t0000000000001000\nSigCgt:\t"
                           "0000000180004002\n",
                           "SigCgt", &mask) &&
             mask == 0x180004002ULL,
         "SigCgt mask");
  expect(!parse_status_mask(status, "SigCgt", &mask), "missing mask");

  // The live files this machine exposes parse too.
  expect(parse_proc_stat(read_file("/proc/stat"), &ticks), "live /proc/stat");
  expect(parse_pid_cpu_ticks(read_file("/proc/self/stat"), &cpu),
         "live /proc/self/stat");
  expect(parse_status_kb(read_file("/proc/self/status"), "VmHWM", &kb) &&
             kb > 0,
         "live /proc/self/status");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_percentile_rule();
  perfbench::test_quietest();
  perfbench::test_plan_determinism();
  perfbench::test_stream_recipes_distinct();
  perfbench::test_metric_names();
  perfbench::test_proc_parsing();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
