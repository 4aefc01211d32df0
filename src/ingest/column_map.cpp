#include "ingest/column_map.hpp"

#include <cmath>
#include <stdexcept>

#include "ingest/line_source.hpp"
#include "ingest/stream.hpp"
#include "ingest/trace_text.hpp"
#include "measure/enum_names.hpp"

namespace wheels::ingest {

namespace {

constexpr std::size_t kMissing = static_cast<std::size_t>(-1);

std::size_t find_column(const std::vector<std::string>& header,
                        const std::string& name, std::size_t line) {
  std::size_t found = kMissing;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] != name) continue;
    if (found != kMissing) {
      trace_fail(line, "duplicated column '" + name + "'");
    }
    found = i;
  }
  return found;
}

radio::Technology parse_tech(const ColumnMap& map, std::string_view cell,
                             std::size_t line) {
  for (const TechAlias& alias : map.tech_aliases) {
    if (std::string_view{alias.name} == cell) return alias.tech;
  }
  try {
    return measure::names::parse_technology(cell);
  } catch (const std::runtime_error& e) {
    trace_fail(line, e.what());
  }
}

}  // namespace

void parse_with_map(LineSource& lines, const ColumnMap& map,
                    radio::Technology default_tech, PointSink& sink) {
  if (map.time_column.empty() || map.time_scale_ms <= 0.0) {
    throw std::runtime_error{"column map: missing time column or scale"};
  }

  LineRef line;
  if (!lines.next(line)) {
    trace_fail(lines.line_number(), "empty trace");
  }

  // Bind the header row. The header is tiny and owned — line views die at
  // the next pull, so the column names are copied out.
  std::vector<std::string_view> cells;
  split_trace_row(line.text, cells);
  std::vector<std::string> header;
  header.reserve(cells.size());
  for (std::string_view cell : cells) header.emplace_back(cell);
  const std::size_t header_line = line.number;

  const std::size_t time_idx = find_column(header, map.time_column,
                                           header_line);
  if (time_idx == kMissing) {
    trace_fail(header_line, "missing time column '" + map.time_column + "'");
  }
  struct Bound {
    const ColumnRule* rule;
    std::size_t index;  // kMissing -> use rule->fill
  };
  std::vector<Bound> bound;
  bound.reserve(map.rules.size());
  std::vector<bool> mapped(header.size(), false);
  mapped[time_idx] = true;
  for (const ColumnRule& rule : map.rules) {
    const std::size_t idx = find_column(header, rule.source, header_line);
    if (idx == kMissing && !rule.fill.has_value()) {
      trace_fail(header_line, "missing column '" + rule.source + "'");
    }
    if (idx != kMissing) mapped[idx] = true;
    bound.push_back({&rule, idx});
  }
  std::size_t tech_idx = kMissing;
  if (!map.tech_column.empty()) {
    tech_idx = find_column(header, map.tech_column, header_line);
    if (tech_idx != kMissing) mapped[tech_idx] = true;
  }
  if (!map.allow_extra_columns) {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (!mapped[i]) {
        trace_fail(header_line, "unmapped column '" + header[i] + "'");
      }
    }
  }

  std::optional<double> time_base;
  SimMillis prev_t = 0;
  std::size_t pushed = 0;
  while (lines.next(line)) {
    const std::size_t line_no = line.number;
    split_trace_row(line.text, cells);
    if (cells.size() != header.size()) {
      trace_fail(line_no, "expected " + std::to_string(header.size()) +
                              " columns, got " +
                              std::to_string(cells.size()));
    }

    double raw_t = parse_trace_double(cells[time_idx], line_no);
    if (raw_t < 0.0) trace_fail(line_no, "negative time");
    if (map.rebase_time) {
      if (!time_base.has_value()) time_base = raw_t;
      raw_t -= *time_base;
    }
    replay::TraceSample p;
    p.t = static_cast<SimMillis>(std::llround(raw_t * map.time_scale_ms));
    // A map without an RTT rule must fail below, not inherit LinkTick's
    // 50 ms default.
    p.rtt = 0.0;

    for (const Bound& b : bound) {
      p.*(b.rule->field) =
          b.index == kMissing
              ? *b.rule->fill
              : parse_trace_double(cells[b.index], line_no) * b.rule->scale;
    }
    if (p.cap_dl < 0.0 || p.cap_ul < 0.0) {
      trace_fail(line_no, "negative capacity");
    }
    if (p.rtt <= 0.0) trace_fail(line_no, "rtt must be > 0");

    p.tech = tech_idx == kMissing ? default_tech
                                  : parse_tech(map, cells[tech_idx], line_no);

    if (pushed > 0 && p.t < prev_t) {
      trace_fail(line_no, "time going backwards");
    }
    if (pushed > 0 && p.t == prev_t) {
      trace_fail(line_no, "duplicate time " + std::to_string(p.t));
    }
    prev_t = p.t;
    sink.push(p);
    ++pushed;
  }
  if (pushed == 0) {
    trace_fail(lines.line_number(), "trace has no data rows");
  }
  finish_stream(sink, pushed);
}

}  // namespace wheels::ingest
