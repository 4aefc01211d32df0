// A small work-stealing thread pool for deterministic fan-out/join
// parallelism.
//
// The campaign runner fans the three per-carrier pipelines of one campaign
// across this pool; campaign::FleetRunner fans whole (seed, config)
// campaigns across it. Both callers rely on the same contract: the pool
// guarantees *completion* of a batch, never execution order. Callers that
// need reproducible output must make their tasks computationally independent
// and merge the results in a fixed order after run_batch returns — see
// measure::merge_shard_into for the campaign's merge step.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wheels::core {

/// Resolve a requested worker-thread count: values > 0 pass through
/// unchanged; 0 means "auto" — the WHEELS_THREADS environment variable when
/// set to a positive integer, otherwise std::thread::hardware_concurrency().
/// Always returns >= 1; 1 selects the legacy serial path everywhere.
int resolve_threads(int requested);

/// Batch-oriented work-stealing pool. Tasks are dealt round-robin onto
/// per-worker deques; a worker pops from the front of its own deque and
/// steals from the back of a sibling's when it runs dry. The thread calling
/// run_batch participates in draining the batch, so a pool with W workers
/// executes batches W+1 wide (ThreadPool{0} runs everything inline on the
/// caller — the serial path).
class ThreadPool {
 public:
  using Task = std::function<void()>;

  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Run every task, blocking until all have completed. One batch at a time
  /// per pool; a task that throws terminates the process (campaign tasks
  /// report failure through their results, not exceptions).
  void run_batch(std::vector<Task> tasks);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<Task> q;
  };

  /// Take a task, preferring queue `prefer` (front) and stealing from the
  /// back of the others. Decrements unstarted_ on success.
  bool try_take(std::size_t prefer, Task& out);
  void finish_task();
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a task may be available"
  std::condition_variable done_cv_;  // run_batch: "the batch completed"
  std::size_t unstarted_ = 0;        // queued, not yet picked up
  std::size_t pending_ = 0;          // queued or running
  bool stop_ = false;
};

/// Slot-ordered fan-out: run `job(i)` for every i in [0, jobs) across a
/// work-stealing pool `threads` wide (0 = auto: WHEELS_THREADS, else
/// hardware_concurrency; the calling thread participates, so `threads` jobs
/// run concurrently). Blocks until every job completed. A job that throws
/// does not stop the others; after the join the exception of the
/// lowest-index job that threw is rethrown.
///
/// This is the deterministic-fleet discipline shared by
/// campaign::FleetRunner, replay::ReplayFleet and measure::write_dataset:
/// each job writes only its own pre-allocated result slot, so no lock is
/// needed and downstream merges that read the slots in index order produce
/// identical output for every thread count.
void run_indexed(int threads, std::size_t jobs,
                 const std::function<void(std::size_t)>& job);

}  // namespace wheels::core
