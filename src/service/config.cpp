#include "service/config.hpp"

#include <cstdlib>
#include <limits>

#include "core/env.hpp"

namespace wheels::service {

ServiceConfig service_config_from_env() {
  ServiceConfig cfg;
  if (const char* v = std::getenv("WHEELS_SERVICE_SOCKET"); v && *v) {
    cfg.socket_path = v;
  }
  if (const char* v = std::getenv("WHEELS_SERVICE_CACHE_DIR"); v && *v) {
    cfg.cache_dir = v;
  }
  if (auto v = core::env_int("WHEELS_SERVICE_QUEUE")) {
    if (*v >= 1 && *v <= std::numeric_limits<int>::max()) {
      cfg.queue_depth = static_cast<int>(*v);
    } else {
      core::ignore_env("WHEELS_SERVICE_QUEUE", "1..2147483647");
    }
  }
  if (auto v = core::env_int("WHEELS_SERVICE_CACHE_MAX_BYTES")) {
    if (*v >= 0) {
      cfg.cache_max_bytes = static_cast<std::uint64_t>(*v);
    } else {
      core::ignore_env("WHEELS_SERVICE_CACHE_MAX_BYTES", ">= 0");
    }
  }
  return cfg;
}

}  // namespace wheels::service
