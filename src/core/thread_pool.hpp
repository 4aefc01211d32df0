// A small thread pool for deterministic fan-out/join parallelism.
//
// Every fan-out in the tree runs through run_indexed, among them the
// campaign runner's per-carrier pipelines and UE blocks, the replay
// carriers, the wheelsd worker loops, campaign::FleetRunner's campaigns and
// the bundle writer's tables. They all rely on the same contract: the
// pool guarantees *completion* of a batch, never execution order. Callers
// that need reproducible output make their jobs computationally
// independent, have each job write only its own slot, and merge the slots
// in index order after run_indexed returns — see measure::merge_shard_into
// for the campaign's merge step.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wheels::core {

/// Resolve a requested thread count: values > 0 pass through unchanged;
/// 0 means "auto" — the WHEELS_THREADS environment variable when set to a
/// positive integer, otherwise std::thread::hardware_concurrency().
/// Always returns >= 1; 1 selects the serial path everywhere.
int resolve_threads(int requested);

/// Batch-oriented pool whose width counts the calling thread: ThreadPool{n}
/// starts n - 1 persistent workers, and the thread calling run_indexed
/// claims jobs beside them. ThreadPool{1} starts none and runs every batch
/// inline, in index order — the serial path.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Batch width, the calling thread included.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run `job(i)` for every i in [0, jobs), blocking until all have
  /// finished. Participants claim indices from one shared cursor. One batch
  /// at a time per pool, and a job must not call back into its own pool.
  /// A job that throws does not stop the others; after the join the
  /// exception of the lowest-index job that threw is rethrown — the error a
  /// serial loop over the jobs meets first.
  void run_indexed(std::size_t jobs,
                   const std::function<void(std::size_t)>& job);

 private:
  /// Claim and run indices of the published batch until the cursor passes
  /// its end.
  void drain(const std::function<void(std::size_t)>& job, std::size_t jobs);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::atomic<std::size_t> cursor_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a batch was published"
  std::condition_variable done_cv_;  // run_indexed: "no worker is inside"
  // The published batch; job_ is null between batches, so a worker that
  // wakes late never enters a batch that already finished.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t jobs_ = 0;
  std::uint64_t generation_ = 0;  // bumped per batch; a worker enters once
  int inside_ = 0;                // workers inside the published batch
  bool stop_ = false;
  // The lowest failing index of the current batch and its exception.
  std::size_t error_index_ = 0;
  std::exception_ptr error_;
};

/// One-shot form for callers without a pool of their own:
/// ThreadPool{resolve_threads(threads)}.run_indexed(jobs, job), where
/// `threads` = 0 means auto (WHEELS_THREADS, else hardware_concurrency).
void run_indexed(int threads, std::size_t jobs,
                 const std::function<void(std::size_t)>& job);

}  // namespace wheels::core
