// ServiceConfig: the wheelsd daemon's runtime knobs.
//
// Every knob follows the library's env convention (core::env_int,
// core::ignore_env): a malformed or out-of-range value warns on stderr,
// counts in config.ignored and keeps the default — the daemon never starts
// with a silently misparsed limit.
#pragma once

#include <cstdint>
#include <string>

namespace wheels::service {

struct ServiceConfig {
  /// AF_UNIX socket the daemon listens on (WHEELS_SERVICE_SOCKET).
  std::string socket_path = "wheelsd.sock";
  /// Root of the result cache; created on start (WHEELS_SERVICE_CACHE_DIR).
  /// Holds one subdirectory per cached bundle plus the index.txt journal.
  std::string cache_dir = "wheelsd-cache";
  /// Max jobs admitted but not yet started (WHEELS_SERVICE_QUEUE, >= 1):
  /// exactly the jobs that read "queued", since a job starts only when a
  /// free worker takes it. Submissions past the bound are rejected, not
  /// blocked: the client gets "submit: queue full (depth N)" and decides
  /// whether to retry.
  int queue_depth = 64;
  /// Result-cache size bound in bytes (WHEELS_SERVICE_CACHE_MAX_BYTES,
  /// >= 0; 0 = unlimited). Least-recently-used bundles are evicted past it.
  std::uint64_t cache_max_bytes = 1ull << 30;
  /// Concurrent jobs, resolved like every other thread knob (0 = auto:
  /// WHEELS_THREADS, else hardware). Jobs themselves always run serially
  /// inside (the ReplayFleet discipline) — parallelism lives here.
  int threads = 0;
};

/// Read WHEELS_SERVICE_SOCKET, WHEELS_SERVICE_CACHE_DIR,
/// WHEELS_SERVICE_QUEUE and WHEELS_SERVICE_CACHE_MAX_BYTES over the
/// defaults above; malformed numeric values go through core::ignore_env
/// and fall back.
ServiceConfig service_config_from_env();

}  // namespace wheels::service
