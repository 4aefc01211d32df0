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
  cv_.wait(lk, [this] { return shutdown_requested_ || stop_; });
}

bool Server::wait_for_shutdown_for(int timeout_ms) {
  std::unique_lock lk{mu_};
  return cv_.wait_for(lk, std::chrono::milliseconds{timeout_ms},
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
    // A joinable thread keeps its stack until joined: join the closed ones.
    for (const std::thread::id id : closed_conns_) {
      const auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      it->join();
      conn_threads_.erase(it);
    }
    closed_conns_.clear();
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
  std::lock_guard lk{conn_mu_};
  closed_conns_.push_back(std::this_thread::get_id());
}

void Server::move_locked(Job& job, JobState state, std::string_view stage) {
  job.state = state;
  job.stage = stage.empty() ? job_state_name(state) : stage;
  if (is_terminal(state)) {
    // Looked up by name, so each outcome counter registers at its first
    // bump: a status line's counter snapshot lists it only from then on.
    core::obs::Counter{state == JobState::Done     ? "service.jobs_completed"
                       : state == JobState::Failed ? "service.jobs_failed"
                                                   : "service.jobs_cancelled"}
        .add();
  }
  cv_.notify_all();
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
      static const core::obs::Counter submitted{"service.jobs_submitted"};
      submitted.add();
      CacheKey key;
      try {
        key = cache_key(req.job);
      } catch (const std::runtime_error& e) {
        return write_line(fd, render_error(e.what()));
      }
      JobStatus status;
      {
        std::lock_guard lk{mu_};
        auto entry = cache_.lookup(key);
        if (!entry && pending_.size() >= static_cast<std::size_t>(
                                             options_.config.queue_depth)) {
          return write_line(
              fd, render_error("submit: queue full (depth " +
                               std::to_string(options_.config.queue_depth) +
                               ")"));
        }
        const JobPtr job = std::make_shared<Job>();
        job->id = next_id_++;
        job->spec = req.job;
        job->key = key;
        jobs_[job->id] = job;
        if (entry) {
          job->cache_hit = true;
          job->result = std::move(entry);
          move_locked(*job, JobState::Done);
        } else {
          pending_.push_back(job);
          cv_.notify_all();
        }
        status = status_of_locked(*job);
      }
      status.counters = service_counters();
      return write_line(fd, render_status(status));
    }
    case Request::Op::Status:
    case Request::Op::Watch: {
      const char* op = req.op == Request::Op::Status ? "status" : "watch";
      std::unique_lock lk{mu_};
      const JobPtr job = find_job(req.id);
      if (!job) {
        lk.unlock();
        return write_line(fd, render_error(std::string{op} +
                                           ": no such job " +
                                           std::to_string(req.id)));
      }
      // One line now, then one per move of the job, the terminal one last.
      for (;;) {
        JobStatus status = status_of_locked(*job);
        lk.unlock();
        status.counters = service_counters();
        if (!write_line(fd, render_status(status))) return false;
        if (req.op == Request::Op::Status || is_terminal(status.state)) {
          return true;
        }
        lk.lock();
        cv_.wait(lk, [&] {
          return stop_ || job->state != status.state ||
                 job->stage != status.stage;
        });
        if (stop_) return false;
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
          move_locked(*job, JobState::Cancelled);
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
        cv_.notify_all();
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
      move_locked(*job, JobState::Running, "cache lookup");
    }
    execute_job(*job);
  }
}

void Server::execute_job(Job& job) {
  // run_indexed rethrows a worker loop's exception on the scheduler thread,
  // where it would end the process — every failure must land in job.error.
  const auto cancelled = [&job] {
    return job.cancel_requested.load(std::memory_order_relaxed);
  };
  JobState outcome = JobState::Done;
  std::string error;
  std::optional<CacheEntry> entry;
  bool cache_hit = false;
  if (cancelled()) {
    outcome = JobState::Cancelled;
  } else if ((entry = cache_.lookup(job.key))) {
    // An identical job has published since this one was admitted.
    cache_hit = true;
  } else {
    {
      std::lock_guard lk{mu_};
      move_locked(job, JobState::Running, "computing");
    }
    const std::string staged = cache_.stage_dir(job.id);
    try {
      std::error_code ec;
      fs::remove_all(staged, ec);
      run_job(job.spec, staged);
      if (cancelled()) {
        outcome = JobState::Cancelled;
        fs::remove_all(staged, ec);
      } else {
        {
          std::lock_guard lk{mu_};
          move_locked(job, JobState::Running, "publishing");
        }
        entry = cache_.publish(job.key, staged);
      }
    } catch (const std::exception& e) {
      std::error_code ec;
      fs::remove_all(staged, ec);
      outcome = JobState::Failed;
      error = e.what();
    }
  }
  std::lock_guard lk{mu_};
  job.cache_hit = cache_hit;
  job.error = std::move(error);
  job.result = std::move(entry);
  move_locked(job, outcome);
}

}  // namespace wheels::service
