// Server: the wheelsd daemon core — an AF_UNIX line-protocol front end over
// the job scheduler and the result cache.
//
// Threading model: one accept thread, one connection thread per open
// client, and ServiceConfig::threads workers. The accept loop joins the
// threads of closed connections before it starts the next one, so a closed
// connection keeps no stack; stop() joins the rest. The scheduler thread
// runs one worker loop per pool thread, all as one
// core::ThreadPool::run_indexed batch that lasts until stop(). A free
// worker takes the oldest admitted job, so a job reads Running only once a
// worker holds it, and every job not yet taken reads Queued and counts
// against the queue bound. Each job runs its library entry point with
// threads = 1 (the ReplayFleet discipline); only measure::write_dataset
// still writes a bundle's tables WHEELS_THREADS wide, on its own one-shot
// pool, and no byte depends on that width. Every output byte is therefore
// independent of how many jobs ran beside it — concurrent submission is
// byte-identical to serial, at every WHEELS_THREADS.
//
// Job lifecycle: submit → cache lookup (hit: Done instantly, the cached
// bundle is the result) → bounded queue admission (full: rejected with
// "submit: queue full (depth N)") → Running (stages "cache lookup",
// "computing", "publishing": a cache re-check, a compute into a private
// stage dir, a publish) → Done/Failed/Cancelled. Cancellation is
// cooperative: a queued job is dropped in place; a running one is abandoned
// at the next checkpoint and never published. A job's state and stage
// change only in move_locked, which wakes every waiter on the server's one
// condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "service/cache.hpp"
#include "service/config.hpp"
#include "service/protocol.hpp"

namespace wheels::service {

struct ServerOptions {
  ServiceConfig config;
  /// Start with the scheduler paused: jobs are admitted and queued but none
  /// starts until resume() — deterministic queue-depth and cancel tests.
  bool start_paused = false;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and start the accept/scheduler threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// Stop accepting, finish running jobs (queued ones stay queued), join
  /// every thread, remove the socket. Idempotent.
  void stop();

  /// Release a start_paused scheduler.
  void resume();

  /// Block until a client sent the shutdown op (or stop() was called).
  void wait_for_shutdown();

  /// Like wait_for_shutdown, but gives up after `timeout_ms`; true when a
  /// shutdown was requested — lets a main loop interleave a signal-flag
  /// check (a signal handler cannot call stop() safely).
  bool wait_for_shutdown_for(int timeout_ms);

  const ServiceConfig& config() const { return options_.config; }
  ResultCache& cache() { return cache_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    CacheKey key;
    JobState state = JobState::Queued;
    std::string stage = "queued";
    std::string error;
    bool cache_hit = false;
    std::optional<CacheEntry> result;
    std::atomic<bool> cancel_requested{false};
  };
  using JobPtr = std::shared_ptr<Job>;

  void accept_loop();
  /// Take the oldest pending job whenever free, until stop.
  void worker_loop();
  void handle_connection(int fd);
  /// Handle one request line; writes the response (or the watch stream) to
  /// `fd`. Returns false when the connection should close.
  bool handle_line(const std::string& line, int fd);
  void execute_job(Job& job);
  /// The one place a job's state and stage change: sets them (the stage
  /// defaults to the state's name), bumps the outcome counter of a terminal
  /// state and wakes every waiter on cv_. Requires mu_.
  void move_locked(Job& job, JobState state, std::string_view stage = {});
  JobStatus status_of_locked(const Job& job) const;
  JobPtr find_job(std::uint64_t id);

  ServerOptions options_;
  ResultCache cache_;
  core::ThreadPool pool_;

  std::mutex mu_;
  /// Woken by every job move, admission, resume, shutdown request and
  /// stop: workers wait for work, watch streams for their job's next move.
  std::condition_variable cv_;
  std::map<std::uint64_t, JobPtr> jobs_;
  std::deque<JobPtr> pending_;  // admitted, not yet taken; oldest first
  std::uint64_t next_id_ = 1;
  bool paused_ = false;
  bool stop_ = false;
  bool shutdown_requested_ = false;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread scheduler_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  /// Connection threads that have closed their connection, to be joined.
  std::vector<std::thread::id> closed_conns_;
};

}  // namespace wheels::service
