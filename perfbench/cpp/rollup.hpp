// Per-layer self time from the spans of one traced window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  int tid = 0;
};

/// Every span the global core::obs::TraceCollector holds (read back from its
/// Chrome-trace rendering, the collector's only export).
std::vector<Span> collected_spans();

struct Rollup {
  /// Self time per span category, seconds.
  std::map<std::string, double> self_s;
  /// Window time during which no thread had an open span.
  double uncovered_s = 0.0;
  double wall_s = 0.0;
};

/// Attribute every microsecond of [begin_us, end_us) exactly once: split
/// evenly among the threads that have a span open at that instant, each
/// thread's share going to the category of its innermost open span; an
/// instant with no open span is uncovered. On one thread this is the usual
/// self time (a span's duration minus what its children cover), and
/// sum(self_s) + uncovered_s == wall_s always.
Rollup roll_up(const std::vector<Span>& spans, std::int64_t begin_us,
               std::int64_t end_us);

}  // namespace perfbench
