#include "measure/csv_export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/line_reader.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"
#include "measure/enum_names.hpp"

namespace wheels::measure {

namespace {

// The writers hand their rows to the stream, and the readers pull it, in
// blocks of this size. write_dataset writes several tables at a time, one
// block each.
constexpr std::size_t kBlockBytes = std::size_t{256} << 10;

// Room for one number's text: "%.17g" needs at most 24 characters
// ("-2.2250738585072014e-308"), an int64 at most 20.
constexpr std::size_t kMaxNumberChars = 32;

/// Writes `v` at `p` as printf's "%.17g", which is exactly what an ostream
/// prints at max_digits10: the text converts back to the identical bits.
/// Returns the end of the text; `p` needs kMaxNumberChars of room.
char* put_double(char* p, double v) {
  return std::to_chars(p, p + kMaxNumberChars, v, std::chars_format::general,
                       std::numeric_limits<double>::max_digits10)
      .ptr;
}

constexpr char kTestHeader[] =
    "id,type,carrier,is_static,start,end,start_km,end_km,tz,server,"
    "direction,cycle";

constexpr char kRttHeader[] =
    "test_id,t,carrier,tech,rtt,speed,tz,server,is_static";

constexpr char kHandoverHeader[] =
    "test_id,carrier,direction,t,duration,from_tech,to_tech,from_cell,"
    "to_cell,type";

constexpr char kAppRunHeader[] =
    "test_id,app,carrier,is_static,server,high_speed_5g_fraction,"
    "handovers,compressed,median_e2e,offload_fps,map_percent,qoe,"
    "rebuffer_fraction,avg_bitrate,gaming_bitrate,gaming_latency,"
    "gaming_frame_drop,gaming_max_frame_drop";

constexpr char kLinkTickHeader[] =
    "test_id,t,carrier,tech,cap_dl,cap_ul,rtt,interruption,handovers";

constexpr char kCellLoadHeader[] =
    "carrier,cell_id,tech,ticks,avg_attached,avg_active,avg_demand,"
    "avg_allocated,avg_capacity,utilization,fairness";

constexpr char kCoverageHeader[] = "carrier,view,map_km_start,map_km_end,tech";

constexpr char kSummaryHeader[] = "key,carrier,value";

constexpr char kCellsHeader[] = "carrier,view,cell_id";

/// Renders CSV rows into a reused buffer and hands it to the stream with
/// os.write once it is full. Doubles print through put_double, integers in
/// decimal, bools as 0/1, enums by their canonical names and anything else
/// as text. The stream's format flags play no part. Call flush() after the
/// last row.
class RowWriter {
 public:
  RowWriter(std::ostream& os, std::string_view header)
      : os_(os),
        buf_(std::make_unique_for_overwrite<char[]>(kBlockBytes)),
        p_(buf_.get()),
        end_(buf_.get() + kBlockBytes) {
    row(header);
  }

  template <typename... Fields>
  void row(const Fields&... fields) {
    std::size_t left = sizeof...(fields);
    (put(fields, --left == 0 ? '\n' : ','), ...);
  }

  void flush() {
    os_.write(buf_.get(), p_ - buf_.get());
    p_ = buf_.get();
  }

 private:
  /// Appends one field and the separator `after` it.
  template <typename T>
  void put(const T& v, char after) {
    if constexpr (std::is_same_v<T, bool>) {
      reserve(2);
      *p_++ = v ? '1' : '0';
    } else if constexpr (std::is_enum_v<T>) {
      put_text(names::to_name(v));
    } else if constexpr (std::is_integral_v<T>) {
      reserve(kMaxNumberChars + 1);
      p_ = std::to_chars(p_, p_ + kMaxNumberChars, v).ptr;
    } else if constexpr (std::is_floating_point_v<T>) {
      reserve(kMaxNumberChars + 1);
      p_ = put_double(p_, v);
    } else {
      put_text(std::string_view{v});
    }
    *p_++ = after;
  }

  /// Leaves room for `text` and one byte after it.
  void put_text(std::string_view text) {
    if (reserve(text.size() + 1)) {
      p_ = std::copy(text.begin(), text.end(), p_);
    } else {
      os_.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
  }

  /// Makes room for `n` more bytes, flushing if needed. False when `n`
  /// exceeds the whole buffer, which is then empty.
  bool reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) >= n) return true;
    flush();
    return n <= kBlockBytes;
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  char* p_;
  char* end_;
};

// Strict row cursor over one CSV table. Pulls the stream in blocks through
// core::LineReader, verifies the header on construction, enforces the
// column count per row, rejects a repeated header line, and parses each
// field with full-string validation. Fields are views into the block, valid
// until the next call to next(); no row allocates. Every failure throws
// std::runtime_error citing the 1-based line number of the offending line.
class CsvTable {
 public:
  CsvTable(std::istream& is, std::string_view header, std::size_t columns)
      : lines_(is, kBlockBytes), header_(header), fields_(columns) {
    std::string_view line;
    if (!lines_.next(line)) {
      throw std::runtime_error{"csv: line 1: missing header, expected '" +
                               std::string{header_} + "'"};
    }
    if (line != header_) {
      throw std::runtime_error{"csv: line 1: unexpected header '" +
                               std::string{line} + "', expected '" +
                               std::string{header_} + "'"};
    }
  }

  /// Advances to the next data row; false at end of input. Blank lines are
  /// skipped (the writers never emit them mid-table).
  bool next() {
    std::string_view line;
    while (lines_.next(line)) {
      if (line.empty()) continue;
      if (line == header_) fail("duplicated header");
      split(line);
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error{"csv: line " +
                             std::to_string(lines_.line_number()) + ": " + msg};
  }

  std::string_view cell(std::size_t i) const { return fields_[i]; }

  double as_double(std::size_t i) const {
    const std::string_view cell = fields_[i];
    if (cell.empty()) fail("empty numeric field");
    double v = 0.0;
    const char* end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end) {
      fail("malformed number '" + std::string{cell} + "'");
    }
    if (ec == std::errc::result_out_of_range) {
      fail("number out of range '" + std::string{cell} + "'");
    }
    if (!std::isfinite(v)) {
      fail("non-finite number '" + std::string{cell} + "'");
    }
    return v;
  }

  std::int64_t as_i64(std::size_t i) const {
    const std::string_view cell = fields_[i];
    if (cell.empty()) fail("empty integer field");
    std::int64_t v = 0;
    const char* end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end) {
      fail("malformed integer '" + std::string{cell} + "'");
    }
    if (ec == std::errc::result_out_of_range) {
      fail("integer out of range '" + std::string{cell} + "'");
    }
    return v;
  }

  int as_int(std::size_t i) const {
    const std::int64_t v = as_i64(i);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      fail("integer out of range '" + std::string{fields_[i]} + "'");
    }
    return static_cast<int>(v);
  }

  std::uint32_t as_u32(std::size_t i) const {
    const std::int64_t v = as_i64(i);
    if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
      fail("id out of range '" + std::string{fields_[i]} + "'");
    }
    return static_cast<std::uint32_t>(v);
  }

  bool as_bool(std::size_t i) const {
    if (fields_[i] == "0") return false;
    if (fields_[i] == "1") return true;
    fail("malformed bool '" + std::string{fields_[i]} + "' (expected 0 or 1)");
  }

  /// Runs one of the names::parse_* lookups, re-raising its "unknown ...
  /// name" error with this row's line number attached.
  template <typename Parser>
  auto as_enum(std::size_t i, Parser parser) const {
    try {
      return parser(fields_[i]);
    } catch (const std::runtime_error& e) {
      fail(e.what());
    }
  }

 private:
  /// Splits `line` into fields_, failing unless it has exactly as many.
  void split(std::string_view line) {
    std::size_t n = 0;
    std::size_t start = 0;
    for (;;) {
      const std::size_t comma = line.find(',', start);
      if (n < fields_.size()) fields_[n] = line.substr(start, comma - start);
      ++n;
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    if (n != fields_.size()) {
      fail("expected " + std::to_string(fields_.size()) + " fields, got " +
           std::to_string(n));
    }
  }

  core::LineReader lines_;
  std::string_view header_;
  std::vector<std::string_view> fields_;
};

}  // namespace

std::string csv_double(double v) {
  char text[kMaxNumberChars];
  return std::string(text, put_double(text, v));
}

void write_tests_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kTestHeader};
  for (const auto& t : db.tests) {
    out.row(t.id, t.type, t.carrier, t.is_static, t.start, t.end, t.start_km,
            t.end_km, t.tz, t.server, t.direction, t.cycle);
  }
  out.flush();
}

void write_kpis_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kKpiHeader};
  for (const auto& k : db.kpis) {
    out.row(k.test_id, k.t, k.carrier, k.tech, k.cell_id, k.rsrp, k.mcs,
            k.bler, k.ca, k.throughput, k.speed, k.km, k.map_km, k.tz,
            k.region, k.handovers, k.server, k.direction, k.is_static);
  }
  out.flush();
}

void write_rtts_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kRttHeader};
  for (const auto& r : db.rtts) {
    out.row(r.test_id, r.t, r.carrier, r.tech, r.rtt, r.speed, r.tz, r.server,
            r.is_static);
  }
  out.flush();
}

void write_handovers_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kHandoverHeader};
  for (const auto& h : db.handovers) {
    out.row(h.test_id, h.carrier, h.direction, h.event.t, h.event.duration,
            h.event.from, h.event.to, h.event.from_cell, h.event.to_cell,
            h.event.type);
  }
  out.flush();
}

void write_app_runs_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kAppRunHeader};
  for (const auto& r : db.app_runs) {
    out.row(r.test_id, r.app, r.carrier, r.is_static, r.server,
            r.high_speed_5g_fraction, r.handovers, r.compressed, r.median_e2e,
            r.offload_fps, r.map_percent, r.qoe, r.rebuffer_fraction,
            r.avg_bitrate, r.gaming_bitrate, r.gaming_latency,
            r.gaming_frame_drop, r.gaming_max_frame_drop);
  }
  out.flush();
}

void write_link_ticks_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kLinkTickHeader};
  for (const auto& l : db.link_ticks) {
    out.row(l.test_id, l.t, l.carrier, l.tech, l.cap_dl, l.cap_ul, l.rtt,
            l.interruption, l.handovers);
  }
  out.flush();
}

void write_cell_load_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kCellLoadHeader};
  for (const auto& c : db.cell_load) {
    out.row(c.carrier, c.cell_id, c.tech, c.ticks, c.avg_attached,
            c.avg_active, c.avg_demand, c.avg_allocated, c.avg_capacity,
            c.utilization, c.fairness);
  }
  out.flush();
}

void write_coverage_csv(std::ostream& os,
                        const std::vector<CoverageSegment>& segments,
                        radio::Carrier carrier, bool passive) {
  RowWriter out{os, kCoverageHeader};
  const std::string_view view = passive ? "passive" : "active";
  for (const auto& s : segments) {
    out.row(carrier, view, s.map_km_start, s.map_km_end, s.tech);
  }
  out.flush();
}

void write_summary_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kSummaryHeader};
  out.row("driven_km", "", db.driven_km);
  out.row("rx_bytes", "", db.rx_bytes);
  out.row("tx_bytes", "", db.tx_bytes);
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = carrier_index(c);
    out.row("experiment_runtime", c, db.experiment_runtime[ci]);
    out.row("passive_handovers", c, db.passive[ci].handovers);
    out.row("passive_pings", c, db.passive[ci].pings);
  }
  out.flush();
}

void write_cells_csv(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, kCellsHeader};
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = carrier_index(c);
    for (const std::uint32_t id : db.active_cells[ci]) {
      out.row(c, "active", id);
    }
    for (const std::uint32_t id : db.passive[ci].cells) {
      out.row(c, "passive", id);
    }
  }
  out.flush();
}

std::vector<TestRecord> read_tests_csv(std::istream& is) {
  CsvTable table{is, kTestHeader, 12};
  std::vector<TestRecord> out;
  while (table.next()) {
    TestRecord t;
    t.id = table.as_u32(0);
    t.type = table.as_enum(1, names::parse_test_type);
    t.carrier = table.as_enum(2, names::parse_carrier);
    t.is_static = table.as_bool(3);
    t.start = table.as_i64(4);
    t.end = table.as_i64(5);
    t.start_km = table.as_double(6);
    t.end_km = table.as_double(7);
    t.tz = table.as_enum(8, names::parse_timezone);
    t.server = table.as_enum(9, names::parse_server_kind);
    t.direction = table.as_enum(10, names::parse_direction);
    t.cycle = table.as_int(11);
    out.push_back(t);
  }
  return out;
}

std::vector<KpiRecord> read_kpis_csv(std::istream& is) {
  CsvTable table{is, kKpiHeader, kKpiColumns};
  std::vector<KpiRecord> out;
  while (table.next()) {
    KpiRecord k;
    k.test_id = table.as_u32(0);
    k.t = table.as_i64(1);
    k.carrier = table.as_enum(2, names::parse_carrier);
    k.tech = table.as_enum(3, names::parse_technology);
    k.cell_id = table.as_u32(4);
    k.rsrp = table.as_double(5);
    k.mcs = table.as_int(6);
    k.bler = table.as_double(7);
    k.ca = table.as_int(8);
    k.throughput = table.as_double(9);
    k.speed = table.as_double(10);
    k.km = table.as_double(11);
    k.map_km = table.as_double(12);
    k.tz = table.as_enum(13, names::parse_timezone);
    k.region = table.as_enum(14, names::parse_region);
    k.handovers = table.as_int(15);
    k.server = table.as_enum(16, names::parse_server_kind);
    k.direction = table.as_enum(17, names::parse_direction);
    k.is_static = table.as_bool(18);
    out.push_back(k);
  }
  return out;
}

std::vector<RttRecord> read_rtts_csv(std::istream& is) {
  CsvTable table{is, kRttHeader, 9};
  std::vector<RttRecord> out;
  while (table.next()) {
    RttRecord r;
    r.test_id = table.as_u32(0);
    r.t = table.as_i64(1);
    r.carrier = table.as_enum(2, names::parse_carrier);
    r.tech = table.as_enum(3, names::parse_technology);
    r.rtt = table.as_double(4);
    r.speed = table.as_double(5);
    r.tz = table.as_enum(6, names::parse_timezone);
    r.server = table.as_enum(7, names::parse_server_kind);
    r.is_static = table.as_bool(8);
    out.push_back(r);
  }
  return out;
}

std::vector<HandoverRecord> read_handovers_csv(std::istream& is) {
  CsvTable table{is, kHandoverHeader, 10};
  std::vector<HandoverRecord> out;
  while (table.next()) {
    HandoverRecord h;
    h.test_id = table.as_u32(0);
    h.carrier = table.as_enum(1, names::parse_carrier);
    h.direction = table.as_enum(2, names::parse_direction);
    h.event.t = table.as_i64(3);
    h.event.duration = table.as_double(4);
    h.event.from = table.as_enum(5, names::parse_technology);
    h.event.to = table.as_enum(6, names::parse_technology);
    h.event.from_cell = table.as_u32(7);
    h.event.to_cell = table.as_u32(8);
    h.event.type = table.as_enum(9, names::parse_handover_type);
    out.push_back(h);
  }
  return out;
}

std::vector<AppRunRecord> read_app_runs_csv(std::istream& is) {
  CsvTable table{is, kAppRunHeader, 18};
  std::vector<AppRunRecord> out;
  while (table.next()) {
    AppRunRecord r;
    r.test_id = table.as_u32(0);
    r.app = table.as_enum(1, names::parse_app_kind);
    r.carrier = table.as_enum(2, names::parse_carrier);
    r.is_static = table.as_bool(3);
    r.server = table.as_enum(4, names::parse_server_kind);
    r.high_speed_5g_fraction = table.as_double(5);
    r.handovers = table.as_int(6);
    r.compressed = table.as_bool(7);
    r.median_e2e = table.as_double(8);
    r.offload_fps = table.as_double(9);
    r.map_percent = table.as_double(10);
    r.qoe = table.as_double(11);
    r.rebuffer_fraction = table.as_double(12);
    r.avg_bitrate = table.as_double(13);
    r.gaming_bitrate = table.as_double(14);
    r.gaming_latency = table.as_double(15);
    r.gaming_frame_drop = table.as_double(16);
    r.gaming_max_frame_drop = table.as_double(17);
    out.push_back(r);
  }
  return out;
}

std::vector<CoverageSegment> read_coverage_csv(std::istream& is,
                                               radio::Carrier expected_carrier,
                                               bool expected_passive) {
  CsvTable table{is, kCoverageHeader, 5};
  std::vector<CoverageSegment> out;
  const std::string expected_view = expected_passive ? "passive" : "active";
  while (table.next()) {
    const auto carrier = table.as_enum(0, names::parse_carrier);
    if (carrier != expected_carrier) {
      table.fail("carrier '" + std::string{table.cell(0)} +
                 "' does not match the file's '" +
                 std::string{names::to_name(expected_carrier)} + "'");
    }
    if (table.cell(1) != expected_view) {
      table.fail("view '" + std::string{table.cell(1)} +
                 "' does not match the file's '" + expected_view + "'");
    }
    CoverageSegment s;
    s.map_km_start = table.as_double(2);
    s.map_km_end = table.as_double(3);
    s.tech = table.as_enum(4, names::parse_technology);
    out.push_back(s);
  }
  return out;
}

std::vector<LinkTickRecord> read_link_ticks_csv(std::istream& is) {
  CsvTable table{is, kLinkTickHeader, 9};
  std::vector<LinkTickRecord> out;
  while (table.next()) {
    LinkTickRecord l;
    l.test_id = table.as_u32(0);
    l.t = table.as_i64(1);
    l.carrier = table.as_enum(2, names::parse_carrier);
    l.tech = table.as_enum(3, names::parse_technology);
    l.cap_dl = table.as_double(4);
    l.cap_ul = table.as_double(5);
    l.rtt = table.as_double(6);
    l.interruption = table.as_double(7);
    l.handovers = table.as_int(8);
    out.push_back(l);
  }
  return out;
}

std::vector<CellLoadRecord> read_cell_load_csv(std::istream& is) {
  CsvTable table{is, kCellLoadHeader, 11};
  std::vector<CellLoadRecord> out;
  while (table.next()) {
    CellLoadRecord c;
    c.carrier = table.as_enum(0, names::parse_carrier);
    c.cell_id = table.as_u32(1);
    c.tech = table.as_enum(2, names::parse_technology);
    c.ticks = table.as_i64(3);
    c.avg_attached = table.as_double(4);
    c.avg_active = table.as_double(5);
    c.avg_demand = table.as_double(6);
    c.avg_allocated = table.as_double(7);
    c.avg_capacity = table.as_double(8);
    c.utilization = table.as_double(9);
    c.fairness = table.as_double(10);
    out.push_back(c);
  }
  return out;
}

void read_summary_csv(std::istream& is, ConsolidatedDb& db) {
  CsvTable table{is, kSummaryHeader, 3};
  // Each (key, carrier) row is read exactly once: a repeat would overwrite
  // the earlier row, and a missing row would leave its field at zero.
  std::set<std::pair<std::string, std::string>> seen;
  while (table.next()) {
    const std::string_view key = table.cell(0);
    const bool global = table.cell(1).empty();
    if (!seen.emplace(key, table.cell(1)).second) {
      table.fail("repeated summary row '" + std::string{key} + "," +
                 std::string{table.cell(1)} + "'");
    }
    if (key == "driven_km" || key == "rx_bytes" || key == "tx_bytes") {
      if (!global) {
        table.fail("key '" + std::string{key} + "' takes no carrier");
      }
      const double v = table.as_double(2);
      if (key == "driven_km") {
        db.driven_km = v;
      } else if (key == "rx_bytes") {
        db.rx_bytes = v;
      } else {
        db.tx_bytes = v;
      }
      continue;
    }
    if (global) table.fail("key '" + std::string{key} + "' requires a carrier");
    const auto carrier = table.as_enum(1, names::parse_carrier);
    const std::size_t ci = carrier_index(carrier);
    if (key == "experiment_runtime") {
      db.experiment_runtime[ci] = table.as_double(2);
    } else if (key == "passive_handovers") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].handovers = table.as_i64(2);
    } else if (key == "passive_pings") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].pings = table.as_i64(2);
    } else {
      table.fail("unknown summary key '" + std::string{key} + "'");
    }
  }
  const auto require = [&](std::string_view key, std::string_view carrier) {
    if (seen.contains({std::string{key}, std::string{carrier}})) return;
    throw std::runtime_error{
        "csv: missing summary key '" + std::string{key} + "'" +
        (carrier.empty() ? "" : " for carrier " + std::string{carrier})};
  };
  for (const std::string_view key : {"driven_km", "rx_bytes", "tx_bytes"}) {
    require(key, "");
  }
  for (radio::Carrier c : radio::kAllCarriers) {
    for (const std::string_view key :
         {"experiment_runtime", "passive_handovers", "passive_pings"}) {
      require(key, names::to_name(c));
    }
  }
}

void read_cells_csv(std::istream& is, ConsolidatedDb& db) {
  CsvTable table{is, kCellsHeader, 3};
  while (table.next()) {
    const auto carrier = table.as_enum(0, names::parse_carrier);
    const std::size_t ci = carrier_index(carrier);
    const std::uint32_t id = table.as_u32(2);
    if (table.cell(1) == "active") {
      db.active_cells[ci].insert(id);
    } else if (table.cell(1) == "passive") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].cells.insert(id);
    } else {
      table.fail("unknown view '" + std::string{table.cell(1)} +
                 "' (expected active|passive)");
    }
  }
}

std::vector<std::string> write_dataset(
    const ConsolidatedDb& db, const std::string& directory,
    const core::obs::RunManifest& manifest) {
  namespace fs = std::filesystem;
  using Writer = std::function<void(std::ostream&)>;
  std::vector<std::string> written;
  {
    const core::obs::ScopedSpan span{"measure.write_dataset", "measure"};
    fs::create_directories(directory);

    // The bundle's tables in file order.
    std::vector<std::pair<std::string, Writer>> tables = {
        {"tests.csv", [&](std::ostream& os) { write_tests_csv(os, db); }},
        {"kpis.csv", [&](std::ostream& os) { write_kpis_csv(os, db); }},
        {"rtts.csv", [&](std::ostream& os) { write_rtts_csv(os, db); }},
        {"handovers.csv",
         [&](std::ostream& os) { write_handovers_csv(os, db); }},
        {"app_runs.csv",
         [&](std::ostream& os) { write_app_runs_csv(os, db); }},
    };
    // link_ticks.csv exists only when app sessions recorded their per-tick
    // link state: emitting an empty table unconditionally would change the
    // byte content of the committed golden bundle and every appless bundle.
    if (!db.link_ticks.empty()) {
      tables.emplace_back("link_ticks.csv", [&](std::ostream& os) {
        write_link_ticks_csv(os, db);
      });
    }
    // cell_load.csv exists only for population campaigns: emitting an empty
    // table unconditionally would change the byte content of every seed
    // bundle (and the replay_roundtrip / golden CI gates diff bundles
    // recursively).
    if (!db.cell_load.empty()) {
      tables.emplace_back("cell_load.csv", [&](std::ostream& os) {
        write_cell_load_csv(os, db);
      });
    }
    for (radio::Carrier c : radio::kAllCarriers) {
      const std::size_t ci = carrier_index(c);
      const std::string base{carrier_name(c)};
      tables.emplace_back("coverage_passive_" + base + ".csv",
                          [&db, c, ci](std::ostream& os) {
                            write_coverage_csv(os, db.passive[ci].segments, c,
                                               true);
                          });
      tables.emplace_back("coverage_active_" + base + ".csv",
                          [&db, c, ci](std::ostream& os) {
                            write_coverage_csv(os, db.active_coverage[ci], c,
                                               false);
                          });
    }
    tables.emplace_back("summary.csv", [&](std::ostream& os) {
      write_summary_csv(os, db);
    });
    tables.emplace_back("cells.csv",
                        [&](std::ostream& os) { write_cells_csv(os, db); });

    // Each table is its own file, so the tables are written as independent
    // tasks; a failure surfaces as the first failing table in file order.
    for (const auto& table : tables) {
      written.push_back((fs::path(directory) / table.first).string());
    }
    core::run_indexed(0, tables.size(), [&](std::size_t i) {
      const core::obs::ScopedSpan table_span{"measure.write:" + tables[i].first,
                                             "measure"};
      const std::string& path = written[i];
      std::ofstream os{path};
      if (!os) throw std::runtime_error{"csv: cannot open " + path};
      tables[i].second(os);
      os.close();
      if (!os) throw std::runtime_error{"csv: cannot write " + path};
    });
    const fs::path manifest_path = fs::path(directory) / "manifest.json";
    core::obs::write_manifest(manifest, manifest_path.string());
    written.push_back(manifest_path.string());
  }
  // After the span has closed, so a flushed trace includes it.
  core::obs::flush_to_env_sinks();
  return written;
}

std::vector<std::string> write_dataset(const ConsolidatedDb& db,
                                       const std::string& directory) {
  return write_dataset(db, directory, core::obs::make_run_manifest());
}

}  // namespace wheels::measure
