#include "core/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "core/obs/metrics.hpp"

namespace wheels::core {

namespace {

obs::MetricId ignored_id() {
  static const obs::MetricId id =
      obs::MetricsRegistry::global().counter_id("config.ignored");
  return id;
}

// Registered when the program starts, so a run that dropped no knob still
// reports config.ignored as 0.
[[maybe_unused]] const obs::MetricId kRegisterIgnored = ignored_id();

}  // namespace

void ignore_env(const char* name, std::string_view expected) {
  const char* value = std::getenv(name);
  {
    // A knob reader may run more than once per process (resolve_threads
    // runs on every call); the same dropped value is one mistake, said once.
    static std::mutex mu;
    static std::set<std::pair<std::string, std::string>> reported;
    const std::lock_guard lk{mu};
    if (!reported.emplace(name, value != nullptr ? value : "").second) return;
  }
  std::fprintf(stderr, "[wheels] ignoring %s=%s: expected %.*s\n", name,
               value != nullptr ? value : "",
               static_cast<int>(expected.size()), expected.data());
  obs::MetricsRegistry::global().add(ignored_id());
}

std::optional<long long> env_int(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (*s == '\0' || end == s || *end != '\0' || errno == ERANGE) {
    ignore_env(name, "a 64-bit integer");
    return std::nullopt;
  }
  return v;
}

std::optional<double> env_double(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*s == '\0' || end == s || *end != '\0' || errno == ERANGE) {
    ignore_env(name, "a number");
    return std::nullopt;
  }
  return v;
}

}  // namespace wheels::core
