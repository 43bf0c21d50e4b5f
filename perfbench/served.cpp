// The untraced, end-to-end half of a run: bfdn_serve as a child process,
// closed-loop client connections from this process, /proc readings of
// the server's CPU and peak RSS and of the machine's steal time.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>

#include "harness.h"
#include "support/check.h"
#include "support/json.h"
#include "support/socket.h"
#include "support/strings.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Requests every measured phase completes at least, so the p90 always
/// has ten samples beyond it.
constexpr std::int64_t kMinMeasuredRequests = 100;
constexpr double kWarmupSeconds = 6.0;
/// The measured phase is read in windows of this many seconds.
constexpr double kWindowSeconds = 0.5;
/// A window or a set-up is quiet when the host stole at most this share
/// of the machine's CPU ticks during it.
constexpr double kQuietSteal = 0.02;
/// The measured phase, and the number of set-ups, stop growing at this
/// multiple of what they need when the machine is quiet.
constexpr double kQuietCap = 2.0;
/// Stream indices whose served bytes are checked after the window.
constexpr std::int64_t kColdSample = 24;
constexpr std::int64_t kCampaignSample = 4;

double cpu_seconds(const rusage& usage) {
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One bfdn_serve child. The destructor kills and reaps a server that
/// was not stopped, so no run leaves a process behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const WorkloadShape& shape,
                const std::string& store_dir, const std::string& work_dir,
                const std::string& tag)
      : port_file_(work_dir + "/" + tag + ".port") {
    std::filesystem::remove(port_file_);
    std::vector<std::string> args = {
        binary,
        "--port=0",
        "--port-file=" + port_file_,
        bfdn::str_format("--threads=%d", shape.server_threads),
        bfdn::str_format("--queue=%d", shape.queue),
        bfdn::str_format("--cache=%d", shape.cache)};
    if (!store_dir.empty()) args.push_back("--store-dir=" + store_dir);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const std::string log = work_dir + "/" + tag + ".log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    BFDN_REQUIRE(rc == 0, "cannot start " + binary);
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Blocks until the server listens (its port file is complete).
  std::uint16_t wait_ready() {
    const auto start = Clock::now();
    for (;;) {
      const std::string text = read_file(port_file_);
      if (!text.empty() && text.back() == '\n') {
        return static_cast<std::uint16_t>(std::stoi(text));
      }
      int status = 0;
      BFDN_REQUIRE(::waitpid(pid_, &status, WNOHANG) == 0,
                   "bfdn_serve exited during start-up");
      BFDN_REQUIRE(seconds_since(start) < 60, "bfdn_serve did not start");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// SIGTERM (graceful drain, store flush) and reap. Returns true when
  /// the server exited with status 0.
  bool stop() {
    if (pid_ <= 0) return true;
    wait_catches_sigterm();
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    rusage usage{};
    while (::wait4(pid_, &status, WNOHANG, &usage) == 0) {
      if (seconds_since(start) > 60) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    cpu_s_ = cpu_seconds(usage);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// bfdn_serve installs its SIGTERM handler just after it writes the
  /// port file, so a SIGTERM right after wait_ready() could kill it
  /// instead of draining it. Waits until the handler is in place.
  void wait_catches_sigterm() const {
    const auto start = Clock::now();
    const std::string status = bfdn::str_format("/proc/%d/status", pid_);
    for (;;) {
      const std::string text = read_file(status);
      std::uint64_t caught = 0;
      if (parse_status_mask(text, "SigCgt", &caught) &&
          (caught >> (SIGTERM - 1) & 1) != 0) {
        return;
      }
      // Exited already, or never ready: stop() reports it.
      if (text.find("State:\tZ") != std::string::npos ||
          seconds_since(start) > 60) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// User plus system CPU seconds of the whole process life, all its
  /// threads included; valid after stop() returned true.
  double cpu_s() const { return cpu_s_; }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  double cpu_s_ = 0;
};

std::uint64_t process_cpu_ticks(pid_t pid) {
  std::uint64_t ticks = 0;
  BFDN_REQUIRE(parse_pid_cpu_ticks(
                   read_file(bfdn::str_format("/proc/%d/stat", pid)), &ticks),
               "cannot read the server's /proc stat");
  return ticks;
}

MachineTicks machine_ticks() {
  MachineTicks ticks;
  BFDN_REQUIRE(parse_proc_stat(read_file("/proc/stat"), &ticks),
               "cannot read /proc/stat");
  return ticks;
}

double steal_share(const MachineTicks& from, const MachineTicks& to) {
  const double total = static_cast<double>(to.total - from.total);
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0.0;
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return cpu_seconds(usage);
}

ServerCounters query_counters(bfdn::Socket& control) {
  BFDN_REQUIRE(control.send_all("{\"type\":\"stats\"}\n"),
               "stats request failed");
  const auto line = control.recv_line();
  BFDN_REQUIRE(line.has_value(), "no stats response");
  return parse_server_counters(*line);
}

/// Where a closed loop gets its requests and how it judges responses.
class LoopSource {
 public:
  virtual ~LoopSource() = default;
  /// The request line of `index`, '\n'-terminated; may live in
  /// `scratch`.
  virtual const std::string& line(std::int64_t index,
                                  std::string& scratch) const = 0;
  /// Judges a final (non-retry) response: the results it delivers, or
  /// 0 with *error filled when it is wrong.
  virtual std::int64_t check(std::int64_t index, const std::string& response,
                             std::string* error) = 0;
};

/// Working-set requests whose exact response bytes are known.
class ExactSource : public LoopSource {
 public:
  ExactSource(const std::vector<std::string>& lines,
              const std::vector<std::string>& expected,
              const DrawSequence* draws)
      : lines_(lines), expected_(expected), draws_(draws) {}

  const std::string& line(std::int64_t index, std::string&) const override {
    return lines_[slot(index)];
  }
  std::int64_t check(std::int64_t index, const std::string& response,
                     std::string* error) override {
    if (response == expected_[slot(index)]) return 1;
    *error = "wrong bytes for " + lines_[slot(index)] + "got " + response;
    return 0;
  }

 private:
  std::size_t slot(std::int64_t index) const {
    return draws_ == nullptr
               ? static_cast<std::size_t>(index)
               : draws_->at(static_cast<std::uint64_t>(index));
  }
  const std::vector<std::string>& lines_;
  const std::vector<std::string>& expected_;
  const DrawSequence* draws_;  // null = index is the slot
};

/// Unique stream requests: the status is checked on every response and
/// the bytes of the first `sample` indices are kept for the check after
/// the window.
class StreamSource : public LoopSource {
 public:
  StreamSource(Workload workload, std::uint64_t seed, std::int64_t sample)
      : workload_(workload),
        seed_(seed),
        kept_(static_cast<std::size_t>(sample)) {}

  const std::string& line(std::int64_t index,
                          std::string& scratch) const override {
    scratch = bfdn::serialize_request(stream_request(workload_, seed_, index));
    scratch += '\n';
    return scratch;
  }
  std::int64_t check(std::int64_t index, const std::string& response,
                     std::string* error) override {
    const bfdn::ServiceRequest request =
        stream_request(workload_, seed_, index);
    const std::string prefix =
        "{\"id\":\"" + request.id + "\",\"status\":\"ok\"";
    if (response.compare(0, prefix.size(), prefix) != 0) {
      *error = "not ok: " + response.substr(0, 300);
      return 0;
    }
    // Distinct indices: each slot is written by one thread only.
    if (index < static_cast<std::int64_t>(kept_.size())) {
      kept_[static_cast<std::size_t>(index)] = response;
    }
    return results_of(request);
  }
  const std::vector<std::string>& kept() const { return kept_; }

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::vector<std::string> kept_;
};

struct LoopLimits {
  /// Stop claiming new requests once this passed and min_requests were
  /// claimed.
  Clock::time_point deadline = Clock::time_point::max();
  std::int64_t min_requests = 0;
  std::int64_t max_requests = std::numeric_limits<std::int64_t>::max();
  /// Once set, counts as a passed deadline.
  const std::atomic<bool>* stop = nullptr;
  /// Stop regardless (a pathologically slow machine).
  Clock::time_point hard_deadline = Clock::time_point::max();
  /// Index of the loop's first request.
  std::int64_t first_index = 0;
  /// Completion times are recorded relative to this.
  Clock::time_point origin = Clock::now();
};

struct Completion {
  double at_s = 0;
  /// +infinity for a failed request (it misses every latency limit).
  double latency_ms = 0;
  std::int64_t results = 0;
};

struct LoopTally {
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  std::int64_t results = 0;
  std::int64_t retries = 0;
  std::vector<Completion> completions;
  std::vector<std::string> errors;
  /// One past the last index claimed.
  std::int64_t end_index = 0;
};

bool is_retry(const std::string& response, std::int32_t* retry_after_ms) {
  if (response.find("\"status\":\"retry\"") == std::string::npos) {
    return false;
  }
  bfdn::JsonValue doc;
  if (!bfdn::json_parse(response, doc, nullptr) || !doc.is_object()) {
    return false;
  }
  *retry_after_ms = static_cast<std::int32_t>(doc.get_int("retry_after_ms", 20));
  return true;
}

/// One client thread's share of a closed loop. The thread drives one or
/// more connections; each connection sends its next request only after
/// the previous one's final (non-retry) response arrived.
void run_client_thread(const std::vector<bfdn::Socket*>& sockets,
                       LoopSource& source, const LoopLimits& limits,
                       std::atomic<std::int64_t>& next, LoopTally& tally) {
  struct Slot {
    bfdn::Socket* socket = nullptr;
    bool open = true;
    std::int64_t index = -1;  // in flight; -1 = idle
    const std::string* line = nullptr;
    std::string scratch;
    Clock::time_point sent;
  };
  std::vector<Slot> slots(sockets.size());
  for (std::size_t i = 0; i < sockets.size(); ++i) slots[i].socket = sockets[i];
  std::string error;
  const auto record = [&](Slot& slot, const std::optional<std::string>& response) {
    const auto done = Clock::now();
    const double millis =
        std::chrono::duration<double, std::milli>(done - slot.sent).count();
    ++tally.attempted;
    std::int64_t results = 0;
    if (!response.has_value()) {
      error = "connection lost";
    } else {
      results = source.check(slot.index, *response, &error);
    }
    const double at_s =
        std::chrono::duration<double>(done - limits.origin).count();
    if (results > 0) {
      ++tally.succeeded;
      tally.results += results;
      tally.completions.push_back({at_s, millis, results});
    } else {
      ++tally.failed;
      tally.completions.push_back(
          {at_s, std::numeric_limits<double>::infinity(), 0});
      if (tally.errors.size() < 3) tally.errors.push_back(error);
      if (!response.has_value()) slot.open = false;
    }
    slot.index = -1;
  };
  std::vector<pollfd> fds;
  std::vector<Slot*> polled;
  for (;;) {
    for (Slot& slot : slots) {
      if (!slot.open || slot.index >= 0) continue;
      const auto now = Clock::now();
      const bool stopped = now >= limits.deadline ||
                           (limits.stop != nullptr && limits.stop->load());
      if (now >= limits.hard_deadline ||
          (stopped &&
           next.load(std::memory_order_relaxed) - limits.first_index >=
               limits.min_requests)) {
        slot.open = false;
        continue;
      }
      const std::int64_t index = next.fetch_add(1);
      if (index >= limits.max_requests) {
        slot.open = false;
        continue;
      }
      slot.index = index;
      slot.line = &source.line(index, slot.scratch);
      slot.sent = Clock::now();
      if (!slot.socket->send_all(*slot.line)) record(slot, std::nullopt);
    }
    fds.clear();
    polled.clear();
    for (Slot& slot : slots) {
      if (slot.index < 0) continue;
      fds.push_back({slot.socket->fd(), POLLIN, 0});
      polled.push_back(&slot);
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/60000) <= 0) {
      for (Slot* slot : polled) record(*slot, std::nullopt);
      continue;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Slot& slot = *polled[i];
      const std::optional<std::string> response = slot.socket->recv_line();
      std::int32_t retry_after_ms = 0;
      if (response.has_value() && is_retry(*response, &retry_after_ms)) {
        ++tally.retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(retry_after_ms));
        if (!slot.socket->send_all(*slot.line)) record(slot, std::nullopt);
        continue;
      }
      record(slot, response);
    }
  }
}

/// Closed loop over every connection. Indices are claimed from one
/// shared counter, so the set of requests sent does not depend on which
/// connection is faster.
LoopTally run_loop(std::vector<bfdn::Socket>& connections,
                   std::int32_t client_threads, LoopSource& source,
                   const LoopLimits& limits) {
  std::atomic<std::int64_t> next{limits.first_index};
  const auto thread_count = static_cast<std::size_t>(client_threads);
  std::vector<LoopTally> tallies(thread_count);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < thread_count; ++t) {
    std::vector<bfdn::Socket*> mine;
    for (std::size_t c = t; c < connections.size(); c += thread_count) {
      mine.push_back(&connections[c]);
    }
    threads.emplace_back([&, t, mine] {
      LoopTally& tally = tallies[t];
      try {
        run_client_thread(mine, source, limits, next, tally);
      } catch (const std::exception& e) {
        ++tally.failed;
        tally.errors.push_back(std::string("client: ") + e.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoopTally total;
  for (LoopTally& tally : tallies) {
    total.attempted += tally.attempted;
    total.succeeded += tally.succeeded;
    total.failed += tally.failed;
    total.results += tally.results;
    total.retries += tally.retries;
    total.completions.insert(total.completions.end(),
                             tally.completions.begin(),
                             tally.completions.end());
    for (std::string& e : tally.errors) total.errors.push_back(std::move(e));
  }
  total.end_index = next.load();
  return total;
}

std::vector<bfdn::Socket> connect_all(std::uint16_t port, std::int32_t count) {
  std::vector<bfdn::Socket> sockets;
  for (std::int32_t i = 0; i < count; ++i) {
    sockets.push_back(bfdn::connect_local(port, /*recv_timeout_ms=*/60000));
  }
  return sockets;
}

}  // namespace

ServerCounters parse_server_counters(const std::string& response) {
  bfdn::JsonValue doc;
  std::string error;
  BFDN_REQUIRE(bfdn::json_parse(response, doc, &error) && doc.is_object() &&
                   doc.get_string("status", "") == "ok" && doc.has("stats"),
               "not a stats response: " + response.substr(0, 200));
  const bfdn::JsonValue& stats = doc.at("stats");
  ServerCounters c;
  const bfdn::JsonValue& requests = stats.at("requests");
  c.requests_retry = requests.get_int("retry", 0);
  c.requests_error = requests.get_int("error", 0);
  c.protocol_errors = requests.get_int("protocol_errors", 0);
  const bfdn::JsonValue& cache = stats.at("cache");
  c.cache_hits = cache.get_int("hits", 0);
  c.cache_misses = cache.get_int("misses", 0);
  c.cache_store_hits = cache.get_int("store_hits", 0);
  c.cache_evictions = cache.get_int("evictions", 0);
  const bfdn::JsonValue& jobs = stats.at("jobs");
  c.jobs_completed = jobs.get_int("completed", 0);
  c.batched_jobs = jobs.get_int("batched", 0);
  c.trees_built = jobs.get_int("trees_built", 0);
  c.batch_groups = jobs.get_int("batch_groups", 0);
  c.batch_members = jobs.get_int("batch_members", 0);
  c.batch_coalesced = jobs.get_int("batch_coalesced", 0);
  c.job_latency_mean_us = stats.at("latency_us").get_double("mean", 0);
  if (stats.has("store")) {
    const bfdn::JsonValue& store = stats.at("store");
    c.store_appended_records = store.get_int("appended_records", 0);
    c.store_flushes = store.get_int("flushes", 0);
    c.store_syncs = store.get_int("syncs", 0);
    c.store_recovered_records = store.get_int("recovered_records", 0);
  }
  return c;
}

ServedRun run_served(Workload workload, std::uint64_t seed, double seconds,
                     const std::string& serve_binary,
                     const std::string& work_dir) {
  const WorkloadShape shape = workload_shape(workload);
  ServedRun run;

  // Inputs and their expected bytes come first: computing them is the
  // harness's work, not the server's, and stays out of setup_s.
  std::vector<std::string> lines;
  std::vector<std::string> expect_miss;
  std::vector<std::string> expect_hit;
  if (!is_stream(workload)) {
    for (const bfdn::ServiceRequest& request : working_set(workload, seed)) {
      const std::string result =
          bfdn::execute_run(request, request.recipe.build());
      const std::uint64_t key = bfdn::request_fingerprint(request);
      lines.push_back(bfdn::serialize_request(request) + "\n");
      expect_miss.push_back(bfdn::ok_response(request.id, false, key, result));
      expect_hit.push_back(bfdn::ok_response(request.id, true, key, result));
      run.set_results.push_back(result);
    }
  }

  std::unique_ptr<ServerProcess> server;
  std::vector<bfdn::Socket> clients;
  std::optional<bfdn::Socket> control;
  std::string store_dir;
  // Every response outside the measured phase is checked as well and
  // counts as attempted; only measured requests enter throughput and
  // latency.
  const auto count_checked = [&run](const LoopTally& tally, const char* phase) {
    run.attempted += tally.attempted;
    run.succeeded += tally.succeeded;
    run.failed += tally.failed;
    for (const std::string& error : tally.errors) {
      run.errors.push_back(std::string(phase) + ": " + error);
    }
  };
  // Set-up, repeated until setup_repeats of them were quiet, or
  // kQuietCap times that many in all. setup_s is the median, over the
  // setup_repeats quietest, of the CPU (user + system, all threads, from
  // wait4) that the set-up's servers spent from launch to exit: neither
  // disk-sync waits nor steal enter it. Wall times are a diagnostic.
  // One more set-up, not counted, provides the server of the measured
  // phase.
  const auto max_setups =
      static_cast<std::int32_t>(kQuietCap * shape.setup_repeats);
  std::int32_t quiet_setups = 0;
  for (std::int32_t rep = 0;; ++rep) {
    const bool counted =
        quiet_setups < shape.setup_repeats && rep < max_setups;
    const std::string tag = bfdn::str_format("setup%d", rep);
    store_dir = shape.store ? work_dir + "/" + tag + "-store" : "";
    const auto start = Clock::now();
    const MachineTicks machine_start = machine_ticks();
    double cpu_s = 0;
    server = std::make_unique<ServerProcess>(serve_binary, shape, store_dir,
                                             work_dir, tag);
    std::uint16_t port = server->wait_ready();
    clients = connect_all(port, shape.connections);
    if (!is_stream(workload)) {
      // Serve the working set once; every miss must equal execute_run.
      ExactSource fill(lines, expect_miss, nullptr);
      LoopLimits all;
      all.max_requests = static_cast<std::int64_t>(lines.size());
      count_checked(run_loop(clients, shape.client_threads, fill, all),
                    "set-up");
    }
    if (workload == Workload::kStoreRewarm) {
      // Drain (group commit flushed), then reboot over the directory:
      // boot recovery is part of set-up.
      clients.clear();
      BFDN_REQUIRE(server->stop(), "fill server did not drain cleanly");
      cpu_s += server->cpu_s();
      server = std::make_unique<ServerProcess>(serve_binary, shape, store_dir,
                                               work_dir, tag + "b");
      port = server->wait_ready();
      clients = connect_all(port, shape.connections);
    }
    control = bfdn::connect_local(port, /*recv_timeout_ms=*/60000);
    query_counters(*control);
    if (!counted) break;
    ServedRun::Setup setup;
    setup.wall_s = seconds_since(start);
    clients.clear();
    control.reset();
    BFDN_REQUIRE(server->stop(), "set-up server did not drain cleanly");
    setup.cpu_s = cpu_s + server->cpu_s();
    setup.steal_share = steal_share(machine_start, machine_ticks());
    if (setup.steal_share <= kQuietSteal) ++quiet_setups;
    run.setups.push_back(setup);
    if (!store_dir.empty()) std::filesystem::remove_all(store_dir);
  }
  std::vector<double> setup_steal;
  for (const ServedRun::Setup& setup : run.setups) {
    setup_steal.push_back(setup.steal_share);
  }
  const std::vector<bool> kept_setups =
      quietest(setup_steal, static_cast<std::size_t>(shape.setup_repeats));
  for (std::size_t i = 0; i < run.setups.size(); ++i) {
    run.setups[i].kept = kept_setups[i];
  }

  // Measured phase.
  const DrawSequence draws(workload, seed, std::max<std::size_t>(1, lines.size()));
  ExactSource hits(lines, expect_hit, &draws);
  const std::int64_t sample =
      workload == Workload::kColdExplore     ? kColdSample
      : workload == Workload::kCampaignSweep ? kCampaignSample
                                             : 0;
  StreamSource stream(workload, seed, sample);
  LoopSource& source = is_stream(workload)
                           ? static_cast<LoopSource&>(stream)
                           : static_cast<LoopSource&>(hits);

  // Warm-up: the same loop, unmeasured, so the measured phase starts
  // with the machine, the server's threads and the allocator in steady
  // state. Stream indices continue after it, so nothing repeats.
  LoopLimits warmup;
  warmup.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           kWarmupSeconds));
  const LoopTally warm = run_loop(clients, shape.client_threads, source, warmup);
  count_checked(warm, "warm-up");

  // The measured phase, read in windows of kWindowSeconds (server CPU
  // and machine steal at each boundary). It ends once it holds `seconds`
  // of quiet windows, or at kQuietCap times `seconds`; its metrics come
  // from the `seconds` worth of windows with the least steal, so a burst
  // of steal does not enter them (README.md, "Steadiness").
  run.before = query_counters(*control);
  const pid_t pid = server->pid();
  const double client_before = self_cpu_s();
  const auto needed = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  const auto cap =
      static_cast<std::size_t>(std::ceil(kQuietCap * static_cast<double>(needed)));
  std::vector<double> bound_s{0.0};
  std::vector<std::uint64_t> cpu_at{process_cpu_ticks(pid)};
  std::vector<MachineTicks> machine_at{machine_ticks()};
  std::atomic<bool> stop{false};
  std::atomic<bool> loop_done{false};
  std::string sampler_error;
  const auto start = Clock::now();
  std::thread sampler([&] {
    try {
      std::size_t quiet = 0;
      for (std::size_t w = 1; w <= cap && quiet < needed && !loop_done; ++w) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(w * kWindowSeconds)));
        bound_s.push_back(seconds_since(start));
        cpu_at.push_back(process_cpu_ticks(pid));
        machine_at.push_back(machine_ticks());
        if (steal_share(machine_at[w - 1], machine_at[w]) <= kQuietSteal) {
          ++quiet;
        }
      }
    } catch (const std::exception& e) {
      sampler_error = e.what();
    }
    stop = true;
  });
  LoopLimits limits;
  limits.stop = &stop;
  limits.hard_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kQuietCap * seconds + 10));
  limits.min_requests = kMinMeasuredRequests;
  limits.first_index = warm.end_index;
  limits.origin = start;
  LoopTally tally = run_loop(clients, shape.client_threads, source, limits);
  loop_done = true;
  sampler.join();
  run.phase_s = seconds_since(start);
  run.client_cpu_s = self_cpu_s() - client_before;
  run.after = query_counters(*control);
  std::int64_t hwm_kb = 0;
  BFDN_REQUIRE(parse_status_kb(read_file(bfdn::str_format("/proc/%d/status",
                                                          pid)),
                               "VmHWM", &hwm_kb),
               "cannot read the server's VmHWM");
  clients.clear();
  control.reset();
  if (!server->stop()) run.errors.push_back("server did not drain cleanly");
  run.store_dir = store_dir;
  if (!sampler_error.empty()) run.errors.push_back("sampler: " + sampler_error);
  BFDN_REQUIRE(bound_s.size() > 1, "the measured phase has no window");

  count_checked(tally, "measured");
  run.retries = tally.retries;
  run.server_rss_mb = static_cast<double>(hwm_kb) / 1024.0;
  run.phase_steal_share = steal_share(machine_at.front(), machine_at.back());
  run.windows = bound_s.size() - 1;
  std::vector<double> window_steal;
  for (std::size_t w = 0; w < run.windows; ++w) {
    window_steal.push_back(steal_share(machine_at[w], machine_at[w + 1]));
  }
  const std::vector<bool> kept = quietest(window_steal, needed);
  MachineTicks kept_ticks;
  std::uint64_t kept_cpu = 0;
  for (std::size_t w = 0; w < run.windows; ++w) {
    if (!kept[w]) continue;
    ++run.windows_kept;
    run.measured_s += bound_s[w + 1] - bound_s[w];
    kept_cpu += cpu_at[w + 1] - cpu_at[w];
    kept_ticks.total += machine_at[w + 1].total - machine_at[w].total;
    kept_ticks.steal += machine_at[w + 1].steal - machine_at[w].steal;
  }
  // A request belongs to the window it completed in.
  for (const Completion& c : tally.completions) {
    const auto w = std::upper_bound(bound_s.begin(), bound_s.end(), c.at_s) -
                   bound_s.begin() - 1;
    if (w < 0 || static_cast<std::size_t>(w) >= run.windows ||
        !kept[static_cast<std::size_t>(w)]) {
      continue;
    }
    run.results += c.results;
    run.latency_ms.push_back(c.latency_ms);
  }
  std::sort(run.latency_ms.begin(), run.latency_ms.end());
  const double tick_ms = 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  run.server_cpu_ms = static_cast<double>(kept_cpu) * tick_ms;
  run.steal_share = steal_share(MachineTicks{}, kept_ticks);

  // Correctness sample of the stream workloads, outside the window:
  // served bytes must equal in-process execute_run (campaign members
  // their solo runs').
  for (std::int64_t i = 0; i < sample; ++i) {
    const std::string expected =
        expected_response(stream_request(workload, seed, i), false);
    run.sample_expected.push_back(expected);
    // An empty slot was a failed request, already counted.
    const std::string& served = stream.kept()[static_cast<std::size_t>(i)];
    if (!served.empty() && served != expected) {
      --run.succeeded;
      ++run.failed;
      run.errors.push_back(bfdn::str_format(
          "stream index %lld: served bytes differ from execute_run",
          static_cast<long long>(i)));
    }
  }

  // Guards that each run does the work the workload promises.
  if (workload == Workload::kColdExplore && run.after.batched_jobs != 0) {
    run.errors.push_back("cold_explore: scheduler batched jobs");
  }
  if (workload == Workload::kWarmHits &&
      run.after.cache_misses != run.before.cache_misses) {
    run.errors.push_back("warm_hits: a measured request missed the cache");
  }
  return run;
}

}  // namespace perfbench
