#include "service/scheduler.h"

#include <algorithm>
#include <cmath>

#include "sim/batch_executor.h"
#include "support/check.h"

namespace bfdn {

const JobOutcome& Scheduler::Job::wait() {
  MutexLock lock(mutex_);
  done_cv_.wait(lock.native(), [this] {
    mutex_.assert_held();
    return done_;
  });
  return outcome_;
}

void Scheduler::Job::complete(JobOutcome outcome) {
  MutexLock lock(mutex_);
  BFDN_CHECK(!done_, "job completed twice");
  outcome_ = std::move(outcome);
  done_ = true;
  // Notify under the lock (the convention everywhere since the PR-5
  // finish() race): the waiter owns this Job only through shared_ptr,
  // but sibling waiters may drop theirs the moment wait() returns.
  done_cv_.notify_all();
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_(options), pool_(options.threads) {
  BFDN_REQUIRE(options_.queue_capacity >= 1,
               "queue_capacity must be >= 1");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    pending_cv_.notify_all();
  }
  dispatcher_.join();
}

Scheduler::Admit Scheduler::submit(const ServiceRequest& request,
                                   std::shared_ptr<Job>* out) {
  BFDN_REQUIRE(request.type == RequestType::kRun,
               "submit: run requests only");
  auto job = std::make_shared<Job>();
  job->request_ = request;
  job->admitted_at_ = std::chrono::steady_clock::now();
  {
    MutexLock lock(mutex_);
    if (draining_) {
      ++stats_.rejected_draining;
      return Admit::kDraining;
    }
    if (depth_ >= options_.queue_capacity) {
      ++stats_.rejected_full;
      return Admit::kQueueFull;
    }
    ++depth_;
    ++stats_.admitted;
    pending_.push_back(job);
    pending_cv_.notify_one();
  }
  if (out != nullptr) *out = std::move(job);
  return Admit::kAdmitted;
}

Scheduler::Admit Scheduler::submit_all(
    const std::vector<ServiceRequest>& requests,
    std::vector<std::shared_ptr<Job>>* out) {
  BFDN_REQUIRE(!requests.empty(), "submit_all: empty request list");
  std::vector<std::shared_ptr<Job>> jobs;
  jobs.reserve(requests.size());
  const auto now = std::chrono::steady_clock::now();
  for (const ServiceRequest& request : requests) {
    BFDN_REQUIRE(request.type == RequestType::kRun,
                 "submit_all: run requests only");
    auto job = std::make_shared<Job>();
    job->request_ = request;
    job->admitted_at_ = now;
    jobs.push_back(std::move(job));
  }
  {
    MutexLock lock(mutex_);
    if (draining_) {
      stats_.rejected_draining += static_cast<std::int64_t>(jobs.size());
      return Admit::kDraining;
    }
    if (depth_ + static_cast<std::int64_t>(jobs.size()) >
        options_.queue_capacity) {
      stats_.rejected_full += static_cast<std::int64_t>(jobs.size());
      return Admit::kQueueFull;
    }
    depth_ += static_cast<std::int64_t>(jobs.size());
    stats_.admitted += static_cast<std::int64_t>(jobs.size());
    for (const auto& job : jobs) pending_.push_back(job);
    pending_cv_.notify_one();
  }
  if (out != nullptr) *out = std::move(jobs);
  return Admit::kAdmitted;
}

void Scheduler::drain() {
  MutexLock lock(mutex_);
  draining_ = true;
  pending_cv_.notify_all();
  drained_cv_.wait(lock.native(), [this] {
    mutex_.assert_held();
    return depth_ == 0;
  });
}

std::int64_t Scheduler::queue_depth() const {
  MutexLock lock(mutex_);
  return depth_;
}

Scheduler::Stats Scheduler::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void Scheduler::dispatcher_loop() {
  for (;;) {
    std::vector<std::shared_ptr<Job>> batch;
    {
      MutexLock lock(mutex_);
      pending_cv_.wait(lock.native(), [this] {
        mutex_.assert_held();
        return !pending_.empty() || stopping_;
      });
      if (pending_.empty() && stopping_) return;
      batch.swap(pending_);
    }

    // Identical-shape batching: consecutive-arrival jobs that name the
    // same tree recipe share one tree build. The first job of a group
    // runs in the group task itself; the rest fan back out to the pool
    // so same-shape jobs with different algorithms still run in
    // parallel.
    std::stable_sort(
        batch.begin(), batch.end(),
        [](const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) {
          return a->request_.recipe.label() < b->request_.recipe.label();
        });
    std::size_t group_start = 0;
    while (group_start < batch.size()) {
      std::size_t group_end = group_start + 1;
      while (group_end < batch.size() &&
             batch[group_end]->request_.recipe.label() ==
                 batch[group_start]->request_.recipe.label()) {
        ++group_end;
      }
      std::vector<std::shared_ptr<Job>> group(
          batch.begin() + static_cast<std::ptrdiff_t>(group_start),
          batch.begin() + static_cast<std::ptrdiff_t>(group_end));
      {
        MutexLock lock(mutex_);
        ++stats_.trees_built;
        if (group.size() > 1) {
          stats_.batched_jobs += static_cast<std::int64_t>(group.size());
        }
      }
      pool_.submit([this, group = std::move(group)] {
        std::shared_ptr<const Tree> tree;
        try {
          tree = std::make_shared<const Tree>(
              group.front()->request_.recipe.build());
        } catch (const std::exception& e) {
          for (const auto& job : group) {
            finish(job, {false, std::string("tree build failed: ") +
                                    e.what()});
          }
          return;
        }
        // Route the group's synchronous complete-communication jobs
        // into one BatchExecutor pass; schedule/async jobs run solo.
        // A single batchable job gains nothing from the batch path, so
        // it stays on the solo one (identical results either way).
        std::vector<std::shared_ptr<Job>> batched;
        std::vector<std::shared_ptr<Job>> solo;
        for (const auto& job : group) {
          if (batchable_request(job->request_)) {
            batched.push_back(job);
          } else {
            solo.push_back(job);
          }
        }
        if (batched.size() < 2) {
          solo = group;
          batched.clear();
        }
        const std::size_t first_pooled = batched.empty() ? 1 : 0;
        for (std::size_t i = first_pooled; i < solo.size(); ++i) {
          pool_.submit([this, job = solo[i], tree] { run_job(job, tree); });
        }
        if (!batched.empty()) {
          run_batch(batched, tree);
        } else if (!solo.empty()) {
          run_job(solo.front(), tree);
        }
      });
      group_start = group_end;
    }
  }
}

void Scheduler::run_job(const std::shared_ptr<Job>& job,
                        const std::shared_ptr<const Tree>& tree) {
  JobOutcome outcome;
  try {
    outcome.payload = execute_run(job->request_, *tree);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.payload = e.what();
  }
  finish(job, std::move(outcome));
}

void Scheduler::run_batch(const std::vector<std::shared_ptr<Job>>& jobs,
                          const std::shared_ptr<const Tree>& tree) {
  // Every payload is produced before any job is finished: if anything
  // in the batch throws (a member rejected by the executor, an
  // engine invariant), no job has been completed yet and the whole
  // group falls back to solo execution, which reports per-job errors.
  std::vector<std::string> payloads;
  std::int64_t coalesced = 0;
  try {
    BatchExecutor batch(*tree);
    for (const auto& job : jobs) {
      const ServiceRequest& request = job->request_;
      RunConfig config;
      config.num_robots = request.algo.k;
      config.max_rounds = request.max_rounds;
      config.check_invariants = request.check_invariants;
      config.fast_forward = request.fast_forward;
      batch.add_member(make_algorithm(request.algo, *tree), config,
                       batch_coalesce_key(request));
    }
    const std::vector<RunResult> results = batch.run();
    coalesced = batch.stats().coalesced;
    payloads.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      payloads.push_back(
          serialize_run_result(jobs[i]->request_, *tree, results[i]));
    }
  } catch (const std::exception&) {
    for (const auto& job : jobs) run_job(job, tree);
    return;
  }
  {
    MutexLock lock(mutex_);
    ++stats_.batch_groups;
    stats_.batch_members += static_cast<std::int64_t>(jobs.size());
    stats_.batch_coalesced += coalesced;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    finish(jobs[i], {true, std::move(payloads[i])});
  }
}

void Scheduler::finish(const std::shared_ptr<Job>& job,
                       JobOutcome outcome) {
  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - job->admitted_at_)
          .count();
  // Account before waking the job's waiter, so "wait() returned"
  // implies the job is visible in stats() and queue_depth().
  {
    MutexLock lock(mutex_);
    ++stats_.completed;
    stats_.latency_us.add(latency_us);
    stats_.latency_log2_us.add(static_cast<std::int64_t>(
        std::ceil(std::log2(std::max(1.0, latency_us)))));
    --depth_;
    // Notify while holding the mutex: drain() may wake for any reason,
    // see depth_ == 0 and let ~Scheduler destroy drained_cv_ — an
    // unlocked notify here could then touch a dead condition variable.
    // (The worker itself stays joinable past that point: pool_ is
    // declared first, so its destructor — which joins — runs last.)
    if (depth_ == 0) drained_cv_.notify_all();
  }
  job->complete(std::move(outcome));
}

}  // namespace bfdn
