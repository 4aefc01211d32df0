#include "rollup.hpp"

#include <algorithm>
#include <sstream>

#include "core/json.hpp"
#include "core/obs/trace_export.hpp"

namespace perfbench {

namespace json = wheels::core::json;

std::vector<Span> collected_spans() {
  std::ostringstream os;
  wheels::core::obs::TraceCollector::global().write_chrome_trace(os);
  const json::Doc doc{"trace"};
  const json::Value trace = doc.parse(os.str());
  const json::Value& events =
      doc.as(doc.get(trace, "traceEvents"), json::Value::Kind::Array,
             "an array");
  std::vector<Span> spans;
  for (const json::Value& e : events.items) {
    if (doc.str(e, "ph") != "X") continue;
    Span s;
    s.name = doc.str(e, "name");
    s.category = doc.str(e, "cat");
    s.ts_us = static_cast<std::int64_t>(doc.num(e, "ts"));
    s.dur_us = static_cast<std::int64_t>(doc.num(e, "dur"));
    s.tid = static_cast<int>(doc.num(e, "tid"));
    spans.push_back(std::move(s));
  }
  return spans;
}

Rollup roll_up(const std::vector<Span>& spans, std::int64_t begin_us,
               std::int64_t end_us) {
  struct Edge {
    std::int64_t t;
    bool open;
    std::size_t span;
  };
  std::vector<Edge> edges;
  std::vector<std::int64_t> start(spans.size());
  std::vector<std::int64_t> stop(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    start[i] = std::max(spans[i].ts_us, begin_us);
    stop[i] = std::min(spans[i].ts_us + spans[i].dur_us, end_us);
    if (start[i] >= stop[i]) continue;
    edges.push_back({start[i], true, i});
    edges.push_back({stop[i], false, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : (!a.open && b.open);
  });

  Rollup r;
  r.wall_s = static_cast<double>(end_us - begin_us) * 1e-6;
  std::map<int, std::vector<std::size_t>> open;  // tid -> open spans
  // The innermost open span of a thread: latest start, then earliest end.
  const auto innermost = [&](const std::vector<std::size_t>& list) {
    return *std::min_element(
        list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
          return start[a] != start[b] ? start[a] > start[b]
                                      : stop[a] < stop[b];
        });
  };
  const auto attribute = [&](std::int64_t from, std::int64_t to) {
    if (to <= from) return;
    const double dt = static_cast<double>(to - from) * 1e-6;
    std::size_t threads = 0;
    for (const auto& [tid, list] : open) threads += list.empty() ? 0 : 1;
    if (threads == 0) {
      r.uncovered_s += dt;
      return;
    }
    for (const auto& [tid, list] : open) {
      if (list.empty()) continue;
      r.self_s[spans[innermost(list)].category] +=
          dt / static_cast<double>(threads);
    }
  };

  std::int64_t cursor = begin_us;
  for (const Edge& e : edges) {
    attribute(cursor, e.t);
    cursor = e.t;
    std::vector<std::size_t>& list = open[spans[e.span].tid];
    if (e.open) {
      list.push_back(e.span);
    } else {
      list.erase(std::find(list.begin(), list.end(), e.span));
    }
  }
  attribute(cursor, end_us);
  return r;
}

}  // namespace perfbench
