#include "core/obs/trace_export.hpp"

#include <chrono>
#include <cstdlib>
#include <ostream>

#include "core/json.hpp"

namespace wheels::core::obs {

std::int64_t trace_now_us() {
  using namespace std::chrono;
  static const steady_clock::time_point epoch = steady_clock::now();
  return duration_cast<microseconds>(steady_clock::now() - epoch).count();
}

int trace_thread_id() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  static const bool env_enabled = [] {
    if (std::getenv("WHEELS_TRACE_OUT") != nullptr) {
      collector.set_enabled(true);
    }
    return true;
  }();
  (void)env_enabled;
  return collector;
}

void TraceCollector::record(std::string_view name, std::string_view category,
                            std::int64_t ts_us, std::int64_t dur_us) {
  TraceEvent e;
  e.name = std::string{name};
  e.category = std::string{category};
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = trace_thread_id();
  std::lock_guard lk{mu_};
  events_.push_back(std::move(e));
}

std::size_t TraceCollector::size() const {
  std::lock_guard lk{mu_};
  return events_.size();
}

void TraceCollector::clear() {
  std::lock_guard lk{mu_};
  events_.clear();
}

void TraceCollector::write_chrome_trace(std::ostream& os) const {
  std::lock_guard lk{mu_};
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) os << ',';
    os << "\n  {\"name\": \"" << json::escape(e.name) << "\", \"cat\": \""
       << json::escape(e.category) << "\", \"ph\": \"X\", \"ts\": " << e.ts_us
       << ", \"dur\": " << e.dur_us << ", \"pid\": 1, \"tid\": " << e.tid
       << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category,
                       TraceCollector& collector) {
  if (!collector.enabled()) return;
  collector_ = &collector;
  name_ = std::string{name};
  category_ = std::string{category};
  start_us_ = trace_now_us();
}

ScopedSpan::~ScopedSpan() {
  if (collector_ == nullptr) return;
  collector_->record(name_, category_, start_us_, trace_now_us() - start_us_);
}

}  // namespace wheels::core::obs
