#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/obs/metrics.hpp"

namespace wheels::service {

namespace fs = std::filesystem;

namespace {

const core::obs::Counter& submitted_counter() {
  static const core::obs::Counter c{"service.jobs_submitted"};
  return c;
}
const core::obs::Counter& completed_counter() {
  static const core::obs::Counter c{"service.jobs_completed"};
  return c;
}
const core::obs::Counter& failed_counter() {
  static const core::obs::Counter c{"service.jobs_failed"};
  return c;
}
const core::obs::Counter& cancelled_counter() {
  static const core::obs::Counter c{"service.jobs_cancelled"};
  return c;
}

/// The daemon's own counters, for the progress snapshot carried by every
/// status line.
std::vector<std::pair<std::string, std::uint64_t>> service_counters() {
  const auto snapshot = core::obs::MetricsRegistry::global().snapshot();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("service.", 0) == 0) out.emplace_back(name, value);
  }
  return out;
}

/// Write all of `line` plus the newline; false on a closed/failed peer.
bool write_line(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

ResultInfo result_info(const ResultCache& cache, const CacheEntry& entry) {
  ResultInfo info;
  info.path = cache.entry_path(entry);
  info.content_digest = entry.content_digest;
  info.bytes = entry.bytes;
  for (const fs::directory_entry& file : fs::directory_iterator{info.path}) {
    if (file.is_regular_file()) {
      info.files.push_back(file.path().filename().string());
    }
  }
  std::sort(info.files.begin(), info.files.end());
  return info;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.config.cache_dir, options_.config.cache_max_bytes),
      pool_(core::resolve_threads(options_.config.threads)),
      paused_(options_.start_paused) {}

Server::~Server() { stop(); }

void Server::start() {
  const std::string& path = options_.config.socket_path;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error{"wheelsd: socket path too long: " + path};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error{"wheelsd: cannot create socket"};
  }
  ::unlink(path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error{"wheelsd: cannot bind " + path + ": " +
                             std::strerror(errno)};
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error{"wheelsd: cannot listen on " + path};
  }
  accept_thread_ = std::thread{[this] { accept_loop(); }};
  // One worker loop per pool thread, all one batch for the server's life;
  // jobs never touch the pool.
  scheduler_thread_ = std::thread{[this] {
    pool_.run_indexed(static_cast<std::size_t>(pool_.threads()),
                      [this](std::size_t) { worker_loop(); });
  }};
}

void Server::stop() {
  {
    std::lock_guard lk{mu_};
    if (stop_) return;
    stop_ = true;
    cv_.notify_all();
    shutdown_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard lk{conn_mu_};
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.config.socket_path.c_str());
}

void Server::resume() {
  std::lock_guard lk{mu_};
  paused_ = false;
  cv_.notify_all();
}

void Server::wait_for_shutdown() {
  std::unique_lock lk{mu_};
  shutdown_cv_.wait(lk, [this] { return shutdown_requested_ || stop_; });
}

bool Server::wait_for_shutdown_for(int timeout_ms) {
  std::unique_lock lk{mu_};
  return shutdown_cv_.wait_for(
      lk, std::chrono::milliseconds{timeout_ms},
      [this] { return shutdown_requested_ || stop_; });
}

void Server::accept_loop() {
  for (;;) {
    {
      std::lock_guard lk{mu_};
      if (stop_) return;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard lk{conn_mu_};
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    {
      std::lock_guard lk{mu_};
      if (stop_) break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) break;
    if (ready == 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    bool close_conn = false;
    for (std::size_t nl; (nl = buffer.find('\n')) != std::string::npos;) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!handle_line(line, fd)) {
        close_conn = true;
        break;
      }
    }
    if (close_conn) break;
  }
  ::close(fd);
}

Server::JobPtr Server::find_job(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobStatus Server::status_of_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.stage = job.stage;
  status.cache_hit = job.cache_hit;
  status.error = job.error;
  if (job.result) {
    ResultInfo info;
    info.path = cache_.entry_path(*job.result);
    info.content_digest = job.result->content_digest;
    info.bytes = job.result->bytes;
    status.result = std::move(info);
  }
  return status;
}

bool Server::handle_line(const std::string& line, int fd) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::runtime_error& e) {
    return write_line(fd, render_error(e.what()));
  }
  switch (req.op) {
    case Request::Op::Submit: {
      submitted_counter().add();
      CacheKey key;
      try {
        key = cache_key(req.job);
      } catch (const std::runtime_error& e) {
        return write_line(fd, render_error(e.what()));
      }
      JobPtr job;
      {
        std::lock_guard lk{mu_};
        if (auto entry = cache_.lookup(key)) {
          job = std::make_shared<Job>();
          job->id = next_id_++;
          job->spec = req.job;
          job->key = key;
          job->state = JobState::Done;
          job->stage = "done";
          job->cache_hit = true;
          job->result = std::move(entry);
          jobs_[job->id] = job;
          completed_counter().add();
        } else if (pending_.size() >=
                   static_cast<std::size_t>(options_.config.queue_depth)) {
          return write_line(
              fd, render_error("submit: queue full (depth " +
                               std::to_string(options_.config.queue_depth) +
                               ")"));
        } else {
          job = std::make_shared<Job>();
          job->id = next_id_++;
          job->spec = req.job;
          job->key = key;
          jobs_[job->id] = job;
          pending_.push_back(job);
          cv_.notify_all();
        }
      }
      JobStatus status;
      {
        std::lock_guard lk{mu_};
        status = status_of_locked(*job);
      }
      status.counters = service_counters();
      return write_line(fd, render_status(status));
    }
    case Request::Op::Status:
    case Request::Op::Watch: {
      const char* op = req.op == Request::Op::Status ? "status" : "watch";
      for (;;) {
        JobStatus status;
        {
          std::lock_guard lk{mu_};
          const JobPtr job = find_job(req.id);
          if (!job) {
            return write_line(
                fd, render_error(std::string{op} + ": no such job " +
                                 std::to_string(req.id)));
          }
          status = status_of_locked(*job);
        }
        status.counters = service_counters();
        if (!write_line(fd, render_status(status))) return false;
        if (req.op == Request::Op::Status || is_terminal(status.state)) {
          return true;
        }
        {
          std::lock_guard lk{mu_};
          if (stop_) return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
      }
    }
    case Request::Op::Result: {
      std::optional<CacheEntry> entry;
      bool cache_hit = false;
      {
        std::lock_guard lk{mu_};
        const JobPtr job = find_job(req.id);
        if (!job) {
          return write_line(fd, render_error("result: no such job " +
                                             std::to_string(req.id)));
        }
        if (job->state != JobState::Done || !job->result) {
          return write_line(
              fd, render_error("result: job " + std::to_string(req.id) +
                               " is " +
                               std::string{job_state_name(job->state)}));
        }
        entry = job->result;
        cache_hit = job->cache_hit;
      }
      return write_line(
          fd, render_result(req.id, cache_hit, result_info(cache_, *entry)));
    }
    case Request::Op::Cancel: {
      JobStatus status;
      {
        std::lock_guard lk{mu_};
        const JobPtr job = find_job(req.id);
        if (!job) {
          return write_line(fd, render_error("cancel: no such job " +
                                             std::to_string(req.id)));
        }
        if (job->state == JobState::Queued) {
          pending_.erase(
              std::remove(pending_.begin(), pending_.end(), job),
              pending_.end());
          job->state = JobState::Cancelled;
          job->stage = "cancelled";
          cancelled_counter().add();
        } else if (job->state == JobState::Running) {
          job->cancel_requested.store(true, std::memory_order_relaxed);
        }
        status = status_of_locked(*job);
      }
      status.counters = service_counters();
      return write_line(fd, render_status(status));
    }
    case Request::Op::Stats: {
      StatsInfo stats;
      {
        std::lock_guard lk{mu_};
        for (const auto& [id, job] : jobs_) {
          ++stats.jobs_by_state[std::string{job_state_name(job->state)}];
        }
      }
      stats.cache_entries = cache_.entries();
      stats.cache_bytes = cache_.total_bytes();
      stats.cache_max_bytes = cache_.max_bytes();
      stats.cache_warnings = cache_.warnings();
      stats.counters = service_counters();
      return write_line(fd, render_stats(stats));
    }
    case Request::Op::Shutdown: {
      {
        std::lock_guard lk{mu_};
        shutdown_requested_ = true;
        shutdown_cv_.notify_all();
      }
      return write_line(fd, render_ok());
    }
  }
  return false;
}

void Server::worker_loop() {
  for (;;) {
    JobPtr job;
    {
      std::unique_lock lk{mu_};
      cv_.wait(lk, [this] {
        return stop_ || (!paused_ && !pending_.empty());
      });
      if (stop_) return;
      job = std::move(pending_.front());
      pending_.pop_front();
      job->state = JobState::Running;
      job->stage = "cache lookup";
    }
    execute_job(*job);
  }
}

void Server::execute_job(Job& job) {
  // run_indexed rethrows a worker loop's exception on the scheduler thread,
  // where it would end the process — every failure must land in job.error.
  const auto finish = [this, &job](JobState state) {
    std::lock_guard lk{mu_};
    job.state = state;
    job.stage = job_state_name(state);
  };
  if (job.cancel_requested.load(std::memory_order_relaxed)) {
    finish(JobState::Cancelled);
    cancelled_counter().add();
    return;
  }
  // Re-check the cache: an identical job may have published since this one
  // was admitted.
  if (auto entry = cache_.lookup(job.key)) {
    {
      std::lock_guard lk{mu_};
      job.cache_hit = true;
      job.result = std::move(entry);
    }
    finish(JobState::Done);
    completed_counter().add();
    return;
  }
  {
    std::lock_guard lk{mu_};
    job.stage = "computing";
  }
  const std::string staged = cache_.stage_dir(job.id);
  try {
    std::error_code ec;
    fs::remove_all(staged, ec);
    run_job(job.spec, staged);
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove_all(staged, ec);
    {
      std::lock_guard lk{mu_};
      job.error = e.what();
    }
    finish(JobState::Failed);
    failed_counter().add();
    return;
  }
  if (job.cancel_requested.load(std::memory_order_relaxed)) {
    std::error_code ec;
    fs::remove_all(staged, ec);
    finish(JobState::Cancelled);
    cancelled_counter().add();
    return;
  }
  {
    std::lock_guard lk{mu_};
    job.stage = "publishing";
  }
  CacheEntry entry;
  try {
    entry = cache_.publish(job.key, staged);
  } catch (const std::exception& e) {
    {
      std::lock_guard lk{mu_};
      job.error = e.what();
    }
    finish(JobState::Failed);
    failed_counter().add();
    return;
  }
  {
    std::lock_guard lk{mu_};
    job.result = entry;
  }
  finish(JobState::Done);
  completed_counter().add();
}

}  // namespace wheels::service
