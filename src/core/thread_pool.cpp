#include "core/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/env.hpp"
#include "core/obs/metrics.hpp"

namespace wheels::core {

namespace {

// Dense ids resolved once; add() is a thread-local vector increment.
obs::MetricId tasks_run_id() {
  static const obs::MetricId id =
      obs::MetricsRegistry::global().counter_id("pool.tasks_run");
  return id;
}

obs::MetricId batches_id() {
  static const obs::MetricId id =
      obs::MetricsRegistry::global().counter_id("pool.batches");
  return id;
}

// Wall-clock depends on scheduling, hence the "rt." prefix that keeps it out
// of the deterministic snapshot.
const obs::MetricsRegistry::HistogramHandle& batch_ms_hist() {
  static const obs::MetricsRegistry::HistogramHandle h =
      obs::MetricsRegistry::global().histogram("rt.pool.batch_ms");
  return h;
}

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const auto v = env_int("WHEELS_THREADS")) {
    if (*v >= 1 && *v <= 4096) return static_cast<int>(*v);
    ignore_env("WHEELS_THREADS", "1..4096");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(threads, 1) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::drain(const std::function<void(std::size_t)>& job,
                       std::size_t jobs) {
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= jobs) return;
    try {
      job(i);
    } catch (...) {
      std::lock_guard lk{mu_};
      if (!error_ || i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lk{mu_};
  for (;;) {
    work_cv_.wait(lk, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    const std::function<void(std::size_t)>& job = *job_;
    const std::size_t jobs = jobs_;
    ++inside_;
    lk.unlock();
    drain(job, jobs);
    lk.lock();
    if (--inside_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run_indexed(std::size_t jobs,
                             const std::function<void(std::size_t)>& job) {
  if (jobs == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.add(batches_id());
  registry.add(tasks_run_id(), jobs);
  const auto batch_start = std::chrono::steady_clock::now();

  // No worker is inside a batch here, so the cursor is the caller's alone
  // until the batch is published under the lock.
  cursor_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard lk{mu_};
    job_ = &job;
    jobs_ = jobs;
    ++generation_;
  }
  // Wake no more workers than there are jobs beside the caller's first.
  const std::size_t helpers = std::min(jobs - 1, workers_.size());
  for (std::size_t k = 0; k < helpers; ++k) work_cv_.notify_one();
  drain(job, jobs);
  {
    // Withdraw the batch so a late-waking worker cannot enter it, then wait
    // out the workers still running the jobs they claimed.
    std::unique_lock lk{mu_};
    job_ = nullptr;
    done_cv_.wait(lk, [this] { return inside_ == 0; });
  }
  registry.observe(batch_ms_hist(),
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - batch_start)
                       .count());
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void run_indexed(int threads, std::size_t jobs,
                 const std::function<void(std::size_t)>& job) {
  ThreadPool{resolve_threads(threads)}.run_indexed(jobs, job);
}

}  // namespace wheels::core
