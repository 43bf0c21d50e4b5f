// Shared declarations of the repo benchmark harness (perfbench/).
//
// The harness drives a real bfdn_serve child process from one client
// process (served.cpp) and replays the same generated inputs in-process
// through each layer's public functions (replay.cpp). Everything a run
// sends is a pure function of the workload and the --seed argument
// (plan.cpp); measure.cpp holds the statistics and /proc parsing the
// self-tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"

namespace perfbench {

enum class Workload : std::uint8_t {
  kColdExplore,
  kCampaignSweep,
  kWarmHits,
  kStoreRewarm,
};

bool parse_workload(std::string_view name, Workload* out);
const char* workload_name(Workload workload);

/// Fixed server and client shape of a workload. Nothing here is derived
/// from the hardware: the harness only refuses to run more client
/// connections than the machine has cores.
struct WorkloadShape {
  std::int32_t connections = 0;
  /// Client threads driving the connections (round-robin).
  std::int32_t client_threads = 0;
  std::int32_t server_threads = 0;  // bfdn_serve --threads
  std::int32_t queue = 0;           // bfdn_serve --queue
  std::int32_t cache = 0;           // bfdn_serve --cache (entries)
  bool store = false;               // bfdn_serve --store-dir
  /// Set-ups per run that setup_s is the median of.
  std::int32_t setup_repeats = 0;
  /// Requests (campaigns for campaign_sweep) replayed per traced pass.
  std::int64_t replay_requests = 0;
};
WorkloadShape workload_shape(Workload workload);

// ---- plan.cpp: seeded inputs --------------------------------------------

/// True for the workloads that send an unbounded stream of unique
/// requests (cold_explore, campaign_sweep); false for the two that draw
/// from a fixed working set (warm_hits, store_rewarm).
bool is_stream(Workload workload);

/// Request `index` of a stream workload. Every index names a tree
/// recipe that no other index of the stream names, so no request can
/// hit the cache and no two in-flight requests share a tree build.
bfdn::ServiceRequest stream_request(Workload workload, std::uint64_t seed,
                                    std::int64_t index);

/// The distinct requests of a working-set workload, in slot order.
std::vector<bfdn::ServiceRequest> working_set(Workload workload,
                                              std::uint64_t seed);

/// Which working-set slot request `index` asks for: Zipf-distributed
/// for warm_hits, uniform for store_rewarm. A pure function of
/// (seed, index), so any client thread can draw any index.
class DrawSequence {
 public:
  DrawSequence(Workload workload, std::uint64_t seed, std::size_t set_size);
  std::uint32_t at(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
  std::size_t set_size_;
  std::vector<double> cdf_;  // empty = uniform
};

/// Run results one response to `request` delivers: the member count of
/// a campaign, 1 for a run.
std::int64_t results_of(const bfdn::ServiceRequest& request);

/// The exact response line (no newline) a server must send for
/// `request`, computed in-process through execute_run. Campaigns are
/// assembled from each member's solo bytes. `cached` is the value the
/// response's (and every member's) "cached" field must carry.
std::string expected_response(const bfdn::ServiceRequest& request,
                              bool cached);

// ---- measure.cpp: statistics and /proc parsing ---------------------------

/// Nearest-rank percentile of an ascending sample vector; q in (0, 1).
double percentile(const std::vector<double>& sorted, double q);

/// A percentile is reported only when at least ten samples lie beyond
/// it.
bool percentile_reportable(std::size_t samples, double q);

double median(std::vector<double> values);

/// Which of a run's samples enter its metrics: the `keep` samples with
/// the lowest steal share (ties to the earlier sample), or all of them
/// when there are no more than `keep`. Steal is the time the host took
/// the machine's CPUs away; it is not the program's.
std::vector<bool> quietest(const std::vector<double>& steal, std::size_t keep);

/// Metric names: a letter or digit, then letters, digits, '_', '.',
/// '-'; at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct MachineTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
bool parse_proc_stat(std::string_view text, MachineTicks* out);

/// utime + stime of a /proc/<pid>/stat document, in clock ticks. The
/// process name may contain spaces and parentheses.
bool parse_pid_cpu_ticks(std::string_view text, std::uint64_t* ticks);

/// A "Key:   <n> kB" field of a /proc/<pid>/status document.
bool parse_status_kb(std::string_view text, std::string_view key,
                     std::int64_t* kb);

/// A hexadecimal "Key:   <mask>" field of a /proc/<pid>/status document,
/// such as SigCgt (the signals the process catches; bit n-1 is signal
/// n).
bool parse_status_mask(std::string_view text, std::string_view key,
                       std::uint64_t* mask);

/// Whole file, or "" when it cannot be read.
std::string read_file(const std::string& path);

/// Named metrics in insertion order, printed as the benchmark's
/// {"name": {"value": v, "unit": u}} object.
class MetricSet {
 public:
  /// Throws bfdn::CheckError on an invalid or repeated name.
  void add(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- served.cpp: the untraced run against a real bfdn_serve --------------

/// Counters read from a bfdn_serve stats response.
struct ServerCounters {
  std::int64_t requests_retry = 0;
  std::int64_t requests_error = 0;
  std::int64_t protocol_errors = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_store_hits = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t batched_jobs = 0;
  std::int64_t trees_built = 0;
  std::int64_t batch_groups = 0;
  std::int64_t batch_members = 0;
  std::int64_t batch_coalesced = 0;
  /// Admission-to-completion mean over the server's lifetime.
  double job_latency_mean_us = 0;
  std::int64_t store_appended_records = 0;
  std::int64_t store_flushes = 0;
  std::int64_t store_syncs = 0;
  std::int64_t store_recovered_records = 0;
};

/// Parses a stats response line; throws bfdn::CheckError when it is not
/// an ok stats response.
ServerCounters parse_server_counters(const std::string& response);

struct ServedRun {
  /// Wall time of the measured phase, and of its kept (quietest)
  /// windows: the time the phase's metrics cover.
  double phase_s = 0;
  double measured_s = 0;
  std::size_t windows = 0;
  std::size_t windows_kept = 0;
  /// Checked requests: set-up fills, warm-up and measured phase.
  std::int64_t attempted = 0;
  /// Responses that were ok and, where checked, byte-correct.
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  /// Run results completed in the kept windows.
  std::int64_t results = 0;
  std::int64_t retries = 0;
  /// Client-observed milliseconds of the requests completed in the kept
  /// windows, ascending; a failed request counts as +infinity (it misses
  /// every latency limit).
  std::vector<double> latency_ms;
  /// Server CPU in the kept windows.
  double server_cpu_ms = 0;
  double server_rss_mb = 0;
  /// One counted set-up: the CPU seconds its servers spent (kept ones
  /// give setup_s), its wall seconds from launch to ready and the
  /// machine's steal share meanwhile (diagnostics).
  struct Setup {
    double cpu_s = 0;
    double wall_s = 0;
    double steal_share = 0;
    bool kept = false;
  };
  std::vector<Setup> setups;
  /// Steal share of the kept windows and of the whole measured phase.
  double steal_share = 0;
  double phase_steal_share = 0;
  double client_cpu_s = 0;
  /// Server counters at the start and end of the measured phase.
  ServerCounters before;
  ServerCounters after;
  /// Directory of the measured server's store ("" when memory-only).
  std::string store_dir;
  /// Working-set workloads: each slot's result object.
  std::vector<std::string> set_results;
  /// Stream workloads: the expected response of stream indices
  /// [0, size()), byte-compared against the served ones.
  std::vector<std::string> sample_expected;
  /// Failure descriptions (correctness and work-identity guards).
  std::vector<std::string> errors;
};

/// Set-up (repeated; see WorkloadShape::setup_repeats), then a closed
/// loop over WorkloadShape::connections connections whose quietest
/// `seconds` are measured, then the correctness sample. The server runs
/// from `serve_binary`; every file it writes stays under `work_dir`.
ServedRun run_served(Workload workload, std::uint64_t seed, double seconds,
                     const std::string& serve_binary,
                     const std::string& work_dir);

// ---- replay.cpp: the traced in-process replay -----------------------------

/// Replays the first WorkloadShape::replay_requests requests of the
/// workload's plan in-process, in the order ServiceServer handles them,
/// twice with spans off and twice with spans on, and fills `out` with
/// the per-layer metrics. Uses the served run's result bytes and store
/// directory; throws bfdn::CheckError when a replayed byte differs from
/// the served/expected one or two passes do different work.
void run_replay(Workload workload, std::uint64_t seed, const ServedRun& served,
                const std::string& work_dir, MetricSet* out);

}  // namespace perfbench
