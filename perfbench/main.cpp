// perfbench — one run of one repo benchmark workload.
//
//   perfbench --workload cold_explore --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run against a
// real bfdn_serve; --trace 1 runs the same served phase and then the
// traced in-process replay, and prints the per-layer metrics. The last
// stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// and the line before it ("perfbench-env {...}") stamps the machine,
// build and ungated diagnostics. Exit status: 0 when every checked byte
// was right and every guard held, 1 when the run measured but failed a
// check, 2 when it could not run (bad arguments, server failure).
// Normally launched through perfbench/run.py, which builds this binary
// and bfdn_serve first.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "harness.h"
#include "support/check.h"
#include "support/json.h"
#include "support/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kColdExplore;
  std::uint64_t seed = 1;
  double seconds = 0;  // required
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Accepts "--name value" and "--name=value".
std::map<std::string, std::string> split_args(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    BFDN_REQUIRE(arg.rfind("--", 0) == 0, "unexpected argument " + arg);
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      BFDN_REQUIRE(i + 1 < argc, "--" + arg + " needs a value");
      values[arg] = argv[++i];
    }
  }
  return values;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (const auto& [name, value] : split_args(argc, argv)) {
    if (name == "workload") {
      BFDN_REQUIRE(parse_workload(value, &args.workload),
                   "unknown workload " + value);
    } else if (name == "seed") {
      args.seed = std::stoull(value);
    } else if (name == "seconds") {
      args.seconds = std::stod(value);
      BFDN_REQUIRE(args.seconds > 0 && args.seconds <= 60,
                   "--seconds must be in (0, 60]");
    } else if (name == "trace") {
      BFDN_REQUIRE(value == "0" || value == "1", "--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (name == "commit") {
      args.commit = value;
    } else if (name == "source-digest") {
      args.source_digest = value;
    } else {
      BFDN_REQUIRE(false, "unknown flag --" + name);
    }
  }
  BFDN_REQUIRE(args.seconds > 0, "--seconds is required");
  return args;
}

/// A percentile for the metrics: a failed request counts as +infinity,
/// reported as the whole measured phase (it missed any limit).
double latency_metric(const ServedRun& run, double q) {
  const double value = percentile(run.latency_ms, q);
  return std::isfinite(value) ? value : run.measured_s * 1e3;
}

void end_to_end_metrics(const ServedRun& run, MetricSet* out) {
  const auto results = static_cast<double>(std::max<std::int64_t>(1, run.results));
  out->add("results_per_s", static_cast<double>(run.results) / run.measured_s,
           "1/s");
  out->add("p50_ms", latency_metric(run, 0.50), "ms");
  out->add("p90_ms", latency_metric(run, 0.90), "ms");
  out->add("success_rate",
           static_cast<double>(run.succeeded) /
               static_cast<double>(std::max<std::int64_t>(1, run.attempted)),
           "share");
  out->add("cpu_ms_per_result", run.server_cpu_ms / results, "ms");
  out->add("server_rss_mb", run.server_rss_mb, "MB");
  std::vector<double> setup_cpu_s;
  for (const ServedRun::Setup& setup : run.setups) {
    if (setup.kept) setup_cpu_s.push_back(setup.cpu_s);
  }
  out->add("setup_s", median(setup_cpu_s), "s");
}

std::string env_json(const Args& args, const WorkloadShape& shape,
                     const ServedRun& run, const MetricSet& e2e,
                     const MetricSet* layers) {
  bfdn::JsonWriter w;
  w.begin_object();
  w.kv("workload", workload_name(args.workload));
  w.kv("seed", args.seed);
  w.kv("trace", args.trace);
  w.kv("commit", args.commit);
  w.kv("source_digest", args.source_digest);
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.kv("server_threads", shape.server_threads);
  w.kv("server_queue", shape.queue);
  w.kv("server_cache", shape.cache);
  w.kv("client_connections", shape.connections);
  w.kv("client_threads", shape.client_threads);
  w.kv("machine.steal_share", run.steal_share, 4);
  w.kv("machine.phase_steal_share", run.phase_steal_share, 4);
  w.kv("client_cpu_s", run.client_cpu_s, 3);
  w.kv("phase_s", run.phase_s, 3);
  w.kv("measured_s", run.measured_s, 3);
  w.kv("windows", static_cast<std::int64_t>(run.windows));
  w.kv("windows_kept", static_cast<std::int64_t>(run.windows_kept));
  w.kv("samples", static_cast<std::int64_t>(run.latency_ms.size()));
  w.kv("retries", run.retries);
  // Tail percentiles are diagnostics only, and only with ten samples
  // beyond them.
  for (const auto& [name, q] : {std::pair{"p99_ms", 0.99},
                                std::pair{"p999_ms", 0.999}}) {
    if (percentile_reportable(run.latency_ms.size(), q)) {
      w.kv(name, latency_metric(run, q), 4);
    }
  }
  // Every set-up as [CPU s, wall s, steal share, kept].
  w.key("setups").begin_array();
  for (const ServedRun::Setup& setup : run.setups) {
    w.begin_array();
    w.value(setup.cpu_s, 5);
    w.value(setup.wall_s, 4);
    w.value(setup.steal_share, 4);
    w.value(setup.kept);
    w.end_array();
  }
  w.end_array();
  if (layers != nullptr) {
    w.kv("trace.overhead_share", layers->get("trace.overhead_share"), 4);
    w.key("end_to_end").raw(e2e.json());
  }
  w.key("errors").begin_array();
  for (const std::string& error : run.errors) w.value(error.substr(0, 400));
  w.end_array();
  w.end_object();
  return w.str();
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadShape shape = workload_shape(args.workload);
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  BFDN_REQUIRE(shape.client_threads <= cores,
               bfdn::str_format("%s needs %d client threads but the machine "
                                "has %ld cores",
                                workload_name(args.workload),
                                shape.client_threads, cores));

  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe");
  const std::string serve_binary = (exe.parent_path() / "bfdn_serve").string();
  BFDN_REQUIRE(std::filesystem::exists(serve_binary),
               "bfdn_serve not built next to perfbench");
  const std::string work_dir =
      (exe.parent_path() / "work" /
       bfdn::str_format("run-%d", static_cast<int>(::getpid())))
          .string();
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{work_dir};

  const ServedRun served = run_served(args.workload, args.seed, args.seconds,
                                      serve_binary, work_dir);
  MetricSet e2e;
  end_to_end_metrics(served, &e2e);
  MetricSet layers;
  if (args.trace) {
    run_replay(args.workload, args.seed, served, work_dir, &layers);
  }
  const bool correct = served.errors.empty() && served.failed == 0;
  std::printf("perfbench-env %s\n",
              env_json(args, shape, served, e2e, args.trace ? &layers : nullptr)
                  .c_str());
  bfdn::JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", served.attempted);
  w.kv("failed", served.failed);
  w.key("metrics").raw(args.trace ? layers.json() : e2e.json());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
