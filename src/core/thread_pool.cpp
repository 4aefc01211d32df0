#include "core/thread_pool.hpp"

#include <chrono>
#include <cstdio>
#include <exception>

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

// Steals and wall-clock depend on scheduling, hence the "rt." prefix that
// keeps them out of the deterministic snapshot.
obs::MetricId steals_id() {
  static const obs::MetricId id =
      obs::MetricsRegistry::global().counter_id("rt.pool.steals");
  return id;
}

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
    std::fprintf(stderr,
                 "[wheels] ignoring WHEELS_THREADS=%lld: expected 1..4096, "
                 "using auto\n",
                 *v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) workers = 0;
  queues_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::try_take(std::size_t prefer, Task& out) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (prefer + k) % n;
    Queue& q = *queues_[i];
    std::lock_guard lk{q.mu};
    if (q.q.empty()) continue;
    if (i == prefer) {
      out = std::move(q.q.front());
      q.q.pop_front();
    } else {
      out = std::move(q.q.back());
      q.q.pop_back();
      obs::MetricsRegistry::global().add(steals_id());
    }
    std::lock_guard blk{mu_};
    --unstarted_;
    return true;
  }
  return false;
}

void ThreadPool::finish_task() {
  std::lock_guard lk{mu_};
  if (--pending_ == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    Task task;
    if (try_take(self, task)) {
      task();
      obs::MetricsRegistry::global().add(tasks_run_id());
      finish_task();
      continue;
    }
    std::unique_lock lk{mu_};
    work_cv_.wait(lk, [this] { return stop_ || unstarted_ > 0; });
    if (stop_) return;
  }
}

void ThreadPool::run_batch(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.add(batches_id());
  const auto batch_start = std::chrono::steady_clock::now();
  if (queues_.empty()) {
    for (Task& t : tasks) {
      t();
      registry.add(tasks_run_id());
    }
    registry.observe(batch_ms_hist(),
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - batch_start)
                         .count());
    return;
  }
  {
    std::lock_guard lk{mu_};
    unstarted_ += tasks.size();
    pending_ += tasks.size();
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Queue& q = *queues_[i % queues_.size()];
    std::lock_guard lk{q.mu};
    q.q.push_back(std::move(tasks[i]));
  }
  work_cv_.notify_all();

  // Help drain the batch, then wait out the stragglers.
  Task task;
  while (try_take(0, task)) {
    task();
    registry.add(tasks_run_id());
    finish_task();
  }
  {
    std::unique_lock lk{mu_};
    done_cv_.wait(lk, [this] { return pending_ == 0; });
  }
  registry.observe(batch_ms_hist(),
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - batch_start)
                       .count());
}

void run_indexed(int threads, std::size_t jobs,
                 const std::function<void(std::size_t)>& job) {
  // A pool task that throws terminates the process, so each job's exception
  // lands in its own slot and the lowest index is rethrown after the join:
  // the same error a serial loop over the jobs meets first.
  std::vector<std::exception_ptr> errors(jobs);
  std::vector<ThreadPool::Task> tasks;
  tasks.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    tasks.push_back([&job, &errors, i] {
      try {
        job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  // The calling thread drains the batch too, so `threads` jobs run
  // concurrently with a pool of threads - 1 workers.
  ThreadPool pool{resolve_threads(threads) - 1};
  pool.run_batch(std::move(tasks));
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wheels::core
