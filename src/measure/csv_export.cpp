#include "measure/csv_export.hpp"

#include <algorithm>
#include <array>
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
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/line_reader.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"
#include "measure/enum_names.hpp"

namespace wheels::measure {

namespace {

namespace fs = std::filesystem;

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

// --- the record tables -----------------------------------------------------

/// One column of a record table: its header name and the record field it
/// holds.
template <typename Record, typename Field>
struct Column {
  std::string_view name;
  Field Record::*field;

  template <typename Row>
  auto& of(Row& row) const {
    return row.*field;
  }
};

/// A column whose field sits in a member struct (HandoverRecord::event).
template <typename Record, typename Inner, typename Field>
struct NestedColumn {
  std::string_view name;
  Inner Record::*inner;
  Field Inner::*field;

  template <typename Row>
  auto& of(Row& row) const {
    return (row.*inner).*field;
  }
};

template <typename Record, typename Field>
constexpr Column<Record, Field> col(std::string_view name,
                                    Field Record::*field) {
  return {name, field};
}

template <typename Record, typename Inner, typename Field>
constexpr NestedColumn<Record, Inner, Field> col(std::string_view name,
                                                 Inner Record::*inner,
                                                 Field Inner::*field) {
  return {name, inner, field};
}

/// One record table: its bundle file, the database vector it holds and its
/// columns in file order.
template <typename Row, typename... Columns>
struct RecordTable {
  using Record = Row;
  static constexpr std::size_t kColumns = sizeof...(Columns);

  std::string_view file;
  std::vector<Record> ConsolidatedDb::*rows;
  std::tuple<Columns...> columns;
};

template <typename Record, typename... Columns>
constexpr RecordTable<Record, Columns...> record_table(
    std::string_view file, std::vector<Record> ConsolidatedDb::*rows,
    Columns... columns) {
  return {file, rows, std::tuple<Columns...>{columns...}};
}

constexpr auto kTests = record_table(
    "tests.csv", &ConsolidatedDb::tests, col("id", &TestRecord::id),
    col("type", &TestRecord::type), col("carrier", &TestRecord::carrier),
    col("is_static", &TestRecord::is_static),
    col("start", &TestRecord::start), col("end", &TestRecord::end),
    col("start_km", &TestRecord::start_km),
    col("end_km", &TestRecord::end_km), col("tz", &TestRecord::tz),
    col("server", &TestRecord::server),
    col("direction", &TestRecord::direction),
    col("cycle", &TestRecord::cycle));

constexpr auto kKpis = record_table(
    "kpis.csv", &ConsolidatedDb::kpis, col("test_id", &KpiRecord::test_id),
    col("t", &KpiRecord::t), col("carrier", &KpiRecord::carrier),
    col("tech", &KpiRecord::tech), col("cell_id", &KpiRecord::cell_id),
    col("rsrp", &KpiRecord::rsrp), col("mcs", &KpiRecord::mcs),
    col("bler", &KpiRecord::bler), col("ca", &KpiRecord::ca),
    col("throughput", &KpiRecord::throughput),
    col("speed", &KpiRecord::speed), col("km", &KpiRecord::km),
    col("map_km", &KpiRecord::map_km), col("tz", &KpiRecord::tz),
    col("region", &KpiRecord::region),
    col("handovers", &KpiRecord::handovers),
    col("server", &KpiRecord::server),
    col("direction", &KpiRecord::direction),
    col("is_static", &KpiRecord::is_static));

constexpr auto kRtts = record_table(
    "rtts.csv", &ConsolidatedDb::rtts, col("test_id", &RttRecord::test_id),
    col("t", &RttRecord::t), col("carrier", &RttRecord::carrier),
    col("tech", &RttRecord::tech), col("rtt", &RttRecord::rtt),
    col("speed", &RttRecord::speed), col("tz", &RttRecord::tz),
    col("server", &RttRecord::server),
    col("is_static", &RttRecord::is_static));

constexpr auto kHandovers = record_table(
    "handovers.csv", &ConsolidatedDb::handovers,
    col("test_id", &HandoverRecord::test_id),
    col("carrier", &HandoverRecord::carrier),
    col("direction", &HandoverRecord::direction),
    col("t", &HandoverRecord::event, &ran::HandoverEvent::t),
    col("duration", &HandoverRecord::event, &ran::HandoverEvent::duration),
    col("from_tech", &HandoverRecord::event, &ran::HandoverEvent::from),
    col("to_tech", &HandoverRecord::event, &ran::HandoverEvent::to),
    col("from_cell", &HandoverRecord::event, &ran::HandoverEvent::from_cell),
    col("to_cell", &HandoverRecord::event, &ran::HandoverEvent::to_cell),
    col("type", &HandoverRecord::event, &ran::HandoverEvent::type));

constexpr auto kAppRuns = record_table(
    "app_runs.csv", &ConsolidatedDb::app_runs,
    col("test_id", &AppRunRecord::test_id), col("app", &AppRunRecord::app),
    col("carrier", &AppRunRecord::carrier),
    col("is_static", &AppRunRecord::is_static),
    col("server", &AppRunRecord::server),
    col("high_speed_5g_fraction", &AppRunRecord::high_speed_5g_fraction),
    col("handovers", &AppRunRecord::handovers),
    col("compressed", &AppRunRecord::compressed),
    col("median_e2e", &AppRunRecord::median_e2e),
    col("offload_fps", &AppRunRecord::offload_fps),
    col("map_percent", &AppRunRecord::map_percent),
    col("qoe", &AppRunRecord::qoe),
    col("rebuffer_fraction", &AppRunRecord::rebuffer_fraction),
    col("avg_bitrate", &AppRunRecord::avg_bitrate),
    col("gaming_bitrate", &AppRunRecord::gaming_bitrate),
    col("gaming_latency", &AppRunRecord::gaming_latency),
    col("gaming_frame_drop", &AppRunRecord::gaming_frame_drop),
    col("gaming_max_frame_drop", &AppRunRecord::gaming_max_frame_drop));

constexpr auto kLinkTicks = record_table(
    "link_ticks.csv", &ConsolidatedDb::link_ticks,
    col("test_id", &LinkTickRecord::test_id), col("t", &LinkTickRecord::t),
    col("carrier", &LinkTickRecord::carrier),
    col("tech", &apps::LinkTick::tech), col("cap_dl", &apps::LinkTick::cap_dl),
    col("cap_ul", &apps::LinkTick::cap_ul), col("rtt", &apps::LinkTick::rtt),
    col("interruption", &apps::LinkTick::interruption),
    col("handovers", &apps::LinkTick::handovers));

constexpr auto kCellLoad = record_table(
    "cell_load.csv", &ConsolidatedDb::cell_load,
    col("carrier", &CellLoadRecord::carrier),
    col("cell_id", &CellLoadRecord::cell_id),
    col("tech", &CellLoadRecord::tech), col("ticks", &CellLoadRecord::ticks),
    col("avg_attached", &CellLoadRecord::avg_attached),
    col("avg_active", &CellLoadRecord::avg_active),
    col("avg_demand", &CellLoadRecord::avg_demand),
    col("avg_allocated", &CellLoadRecord::avg_allocated),
    col("avg_capacity", &CellLoadRecord::avg_capacity),
    col("utilization", &CellLoadRecord::utilization),
    col("fairness", &CellLoadRecord::fairness));

/// The header row: the column names joined by commas.
template <typename Table>
std::string header_of(const Table& table) {
  return std::apply(
      [](const auto&... column) {
        std::string header;
        ((header += column.name, header += ','), ...);
        header.pop_back();
        return header;
      },
      table.columns);
}

// The keyed tables: their rows are read by key, not as records.
constexpr char kCoverageHeader[] = "carrier,view,map_km_start,map_km_end,tech";

constexpr char kSummaryHeader[] = "key,carrier,value";

constexpr char kCellsHeader[] = "carrier,view,cell_id";

// --- writing ---------------------------------------------------------------

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

// The record-table helpers take their table as a template argument, so its
// member pointers are constants and every field access compiles to a fixed
// offset, as a hand-written row would.
template <const auto& table>
void write_records(std::ostream& os, const ConsolidatedDb& db) {
  RowWriter out{os, header_of(table)};
  for (const auto& row : db.*table.rows) {
    std::apply([&](const auto&... column) { out.row(column.of(row)...); },
               table.columns);
  }
  out.flush();
}

// --- reading ---------------------------------------------------------------

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error{"csv: line " + std::to_string(line) + ": " + msg};
}

double parse_double(std::string_view cell, std::size_t line) {
  if (cell.empty()) fail(line, "empty numeric field");
  double v = 0.0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end) {
    fail(line, "malformed number '" + std::string{cell} + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    fail(line, "number out of range '" + std::string{cell} + "'");
  }
  if (!std::isfinite(v)) {
    fail(line, "non-finite number '" + std::string{cell} + "'");
  }
  return v;
}

std::int64_t parse_i64(std::string_view cell, std::size_t line) {
  if (cell.empty()) fail(line, "empty integer field");
  std::int64_t v = 0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end) {
    fail(line, "malformed integer '" + std::string{cell} + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    fail(line, "integer out of range '" + std::string{cell} + "'");
  }
  return v;
}

// The names::parse_* lookups, found by the enum they return.
constexpr std::tuple kNameParsers{
    &names::parse_test_type,   &names::parse_app_kind,
    &names::parse_carrier,     &names::parse_technology,
    &names::parse_region,      &names::parse_timezone,
    &names::parse_server_kind, &names::parse_direction,
    &names::parse_handover_type};

/// Parses `cell` into `out` by the field's type. Every number parses with
/// std::from_chars over the whole cell; an id is a uint32 ("id out of
/// range" past it), and an unknown enum name keeps the lookup's message.
template <typename T>
void parse_field(std::string_view cell, std::size_t line, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (cell != "0" && cell != "1") {
      fail(line,
           "malformed bool '" + std::string{cell} + "' (expected 0 or 1)");
    }
    out = cell == "1";
  } else if constexpr (std::is_enum_v<T>) {
    try {
      out = std::get<T (*)(std::string_view)>(kNameParsers)(cell);
    } catch (const std::runtime_error& e) {
      fail(line, e.what());
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    out = parse_double(cell, line);
  } else {
    const std::int64_t v = parse_i64(cell, line);
    if (!std::in_range<T>(v)) {
      fail(line, std::string{std::is_signed_v<T> ? "integer" : "id"} +
                     " out of range '" + std::string{cell} + "'");
    }
    out = static_cast<T>(v);
  }
}

template <typename T>
T parse_as(std::string_view cell, std::size_t line) {
  T v{};
  parse_field(cell, line, v);
  return v;
}

/// Splits `line` into its N fields, views into `line`; fails unless it has
/// exactly N.
template <std::size_t N>
std::array<std::string_view, N> split_row(std::string_view line,
                                          std::size_t number) {
  std::array<std::string_view, N> cells;
  std::size_t n = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (n < N) cells[n] = line.substr(start, comma - start);
    ++n;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (n != N) {
    fail(number, "expected " + std::to_string(N) + " fields, got " +
                     std::to_string(n));
  }
  return cells;
}

/// One data line of `table` as a record, its fields parsed in file order.
template <const auto& table>
auto decode_row(std::string_view line, std::size_t number) {
  using Table = std::remove_cvref_t<decltype(table)>;
  const auto cells = split_row<Table::kColumns>(line, number);
  typename Table::Record row;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (parse_field(cells[I], number, std::get<I>(table.columns).of(row)), ...);
  }(std::make_index_sequence<Table::kColumns>{});
  return row;
}

/// Strict line cursor over one CSV table. Pulls the stream in blocks
/// through core::LineReader, verifies the header on construction, skips
/// blank lines (the writers never emit them mid-table) and rejects a
/// repeated header line. Lines are views into the block, valid until the
/// next call to next(); no line allocates. Every failure throws
/// std::runtime_error citing the 1-based line number of the offending line.
class CsvLines {
 public:
  CsvLines(std::istream& is, std::string_view header)
      : lines_(is, kBlockBytes), header_(header) {
    std::string_view line;
    if (!lines_.next(line)) {
      fail(1, "missing header, expected '" + std::string{header_} + "'");
    }
    if (line != header_) {
      fail(1, "unexpected header '" + std::string{line} + "', expected '" +
                  std::string{header_} + "'");
    }
  }

  /// The next data line; false at end of input.
  bool next(std::string_view& line) {
    while (lines_.next(line)) {
      if (line.empty()) continue;
      if (line == header_) fail(number(), "duplicated header");
      return true;
    }
    return false;
  }

  /// 1-based number of the line next() returned last.
  std::size_t number() const { return lines_.line_number(); }

 private:
  core::LineReader lines_;
  std::string_view header_;
};

template <const auto& table>
auto read_records(std::istream& is) {
  const std::string header = header_of(table);
  CsvLines lines{is, header};
  std::vector<typename std::remove_cvref_t<decltype(table)>::Record> out;
  std::string_view line;
  while (lines.next(line)) {
    out.push_back(decode_row<table>(line, lines.number()));
  }
  return out;
}

// --- the bundle's files ----------------------------------------------------

/// One file of a bundle: how write_dataset writes it and read_dataset_tables
/// reads it back. `present` is set for an optional table only.
struct BundleFile {
  std::string name;
  std::function<bool(const ConsolidatedDb&)> present;
  std::function<void(std::ostream&, const ConsolidatedDb&)> write;
  std::function<void(std::istream&, ConsolidatedDb&)> read;
};

template <const auto& table>
BundleFile record_file(bool optional) {
  BundleFile file{std::string{table.file}, nullptr,
                  [](std::ostream& os, const ConsolidatedDb& db) {
                    write_records<table>(os, db);
                  },
                  [](std::istream& is, ConsolidatedDb& db) {
                    db.*table.rows = read_records<table>(is);
                  }};
  if (optional) {
    file.present = [](const ConsolidatedDb& db) {
      return !(db.*table.rows).empty();
    };
  }
  return file;
}

/// Every file of a bundle, in file order.
const std::vector<BundleFile>& bundle_files() {
  static const std::vector<BundleFile> files = [] {
    std::vector<BundleFile> out;
    out.push_back(record_file<kTests>(false));
    out.push_back(record_file<kKpis>(false));
    out.push_back(record_file<kRtts>(false));
    out.push_back(record_file<kHandovers>(false));
    out.push_back(record_file<kAppRuns>(false));
    // Only campaigns that ran app sessions record link ticks, and only
    // population campaigns (WHEELS_UES > 0) record cell load. Writing these
    // tables empty would change the bytes of the golden bundle and of every
    // seed bundle; older bundles predate both.
    out.push_back(record_file<kLinkTicks>(true));
    out.push_back(record_file<kCellLoad>(true));
    for (radio::Carrier c : radio::kAllCarriers) {
      const std::size_t ci = carrier_index(c);
      const std::string base{radio::carrier_name(c)};
      out.push_back(
          {"coverage_passive_" + base + ".csv", nullptr,
           [c, ci](std::ostream& os, const ConsolidatedDb& db) {
             write_coverage_csv(os, db.passive[ci].segments, c, true);
           },
           [c, ci](std::istream& is, ConsolidatedDb& db) {
             db.passive[ci].carrier = c;
             db.passive[ci].segments = read_coverage_csv(is, c, true);
           }});
      out.push_back({"coverage_active_" + base + ".csv", nullptr,
                     [c, ci](std::ostream& os, const ConsolidatedDb& db) {
                       write_coverage_csv(os, db.active_coverage[ci], c,
                                          false);
                     },
                     [c, ci](std::istream& is, ConsolidatedDb& db) {
                       db.active_coverage[ci] = read_coverage_csv(is, c, false);
                     }});
    }
    out.push_back({"summary.csv", nullptr, write_summary_csv,
                   read_summary_csv});
    out.push_back({"cells.csv", nullptr, write_cells_csv, read_cells_csv});
    return out;
  }();
  return files;
}

}  // namespace

std::string csv_double(double v) {
  char text[kMaxNumberChars];
  return std::string(text, put_double(text, v));
}

void write_tests_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kTests>(os, db);
}

void write_kpis_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kKpis>(os, db);
}

void write_rtts_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kRtts>(os, db);
}

void write_handovers_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kHandovers>(os, db);
}

void write_app_runs_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kAppRuns>(os, db);
}

void write_link_ticks_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kLinkTicks>(os, db);
}

void write_cell_load_csv(std::ostream& os, const ConsolidatedDb& db) {
  write_records<kCellLoad>(os, db);
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
  return read_records<kTests>(is);
}

std::vector<KpiRecord> read_kpis_csv(std::istream& is) {
  return read_records<kKpis>(is);
}

std::vector<RttRecord> read_rtts_csv(std::istream& is) {
  return read_records<kRtts>(is);
}

std::vector<HandoverRecord> read_handovers_csv(std::istream& is) {
  return read_records<kHandovers>(is);
}

std::vector<AppRunRecord> read_app_runs_csv(std::istream& is) {
  return read_records<kAppRuns>(is);
}

std::vector<LinkTickRecord> read_link_ticks_csv(std::istream& is) {
  return read_records<kLinkTicks>(is);
}

std::vector<CellLoadRecord> read_cell_load_csv(std::istream& is) {
  return read_records<kCellLoad>(is);
}

std::string_view kpi_header() {
  static const std::string header = header_of(kKpis);
  return header;
}

KpiRecord parse_kpi_row(std::string_view line, std::size_t line_number) {
  if (line == kpi_header()) fail(line_number, "duplicated header");
  return decode_row<kKpis>(line, line_number);
}

std::vector<CoverageSegment> read_coverage_csv(std::istream& is,
                                               radio::Carrier expected_carrier,
                                               bool expected_passive) {
  CsvLines lines{is, kCoverageHeader};
  std::vector<CoverageSegment> out;
  const std::string expected_view = expected_passive ? "passive" : "active";
  std::string_view line;
  while (lines.next(line)) {
    const std::size_t n = lines.number();
    const auto cells = split_row<5>(line, n);
    if (parse_as<radio::Carrier>(cells[0], n) != expected_carrier) {
      fail(n, "carrier '" + std::string{cells[0]} +
                  "' does not match the file's '" +
                  std::string{names::to_name(expected_carrier)} + "'");
    }
    if (cells[1] != expected_view) {
      fail(n, "view '" + std::string{cells[1]} +
                  "' does not match the file's '" + expected_view + "'");
    }
    CoverageSegment s;
    s.map_km_start = parse_as<double>(cells[2], n);
    s.map_km_end = parse_as<double>(cells[3], n);
    s.tech = parse_as<radio::Technology>(cells[4], n);
    out.push_back(s);
  }
  return out;
}

void read_summary_csv(std::istream& is, ConsolidatedDb& db) {
  CsvLines lines{is, kSummaryHeader};
  // Each (key, carrier) row is read exactly once: a repeat would overwrite
  // the earlier row, and a missing row would leave its field at zero.
  std::set<std::pair<std::string, std::string>> seen;
  std::string_view line;
  while (lines.next(line)) {
    const std::size_t n = lines.number();
    const auto [key, carrier_text, value] = split_row<3>(line, n);
    const bool global = carrier_text.empty();
    if (!seen.emplace(key, carrier_text).second) {
      fail(n, "repeated summary row '" + std::string{key} + "," +
                  std::string{carrier_text} + "'");
    }
    if (key == "driven_km" || key == "rx_bytes" || key == "tx_bytes") {
      if (!global) fail(n, "key '" + std::string{key} + "' takes no carrier");
      const double v = parse_as<double>(value, n);
      if (key == "driven_km") {
        db.driven_km = v;
      } else if (key == "rx_bytes") {
        db.rx_bytes = v;
      } else {
        db.tx_bytes = v;
      }
      continue;
    }
    if (global) fail(n, "key '" + std::string{key} + "' requires a carrier");
    const auto carrier = parse_as<radio::Carrier>(carrier_text, n);
    const std::size_t ci = carrier_index(carrier);
    if (key == "experiment_runtime") {
      db.experiment_runtime[ci] = parse_as<double>(value, n);
    } else if (key == "passive_handovers") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].handovers = parse_as<std::int64_t>(value, n);
    } else if (key == "passive_pings") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].pings = parse_as<std::int64_t>(value, n);
    } else {
      fail(n, "unknown summary key '" + std::string{key} + "'");
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
  CsvLines lines{is, kCellsHeader};
  std::string_view line;
  while (lines.next(line)) {
    const std::size_t n = lines.number();
    const auto [carrier_text, view, id_text] = split_row<3>(line, n);
    const auto carrier = parse_as<radio::Carrier>(carrier_text, n);
    const std::size_t ci = carrier_index(carrier);
    const auto id = parse_as<std::uint32_t>(id_text, n);
    if (view == "active") {
      db.active_cells[ci].insert(id);
    } else if (view == "passive") {
      db.passive[ci].carrier = carrier;
      db.passive[ci].cells.insert(id);
    } else {
      fail(n, "unknown view '" + std::string{view} +
                  "' (expected active|passive)");
    }
  }
}

std::vector<std::string> write_dataset(
    const ConsolidatedDb& db, const std::string& directory,
    const core::obs::RunManifest& manifest) {
  std::vector<std::string> written;
  {
    const core::obs::ScopedSpan span{"measure.write_dataset", "measure"};
    fs::create_directories(directory);

    // An optional table without rows gets no file, and a file of its name
    // that an earlier bundle left in the directory goes: the reader loads
    // an optional table whenever its file exists.
    std::vector<const BundleFile*> tables;
    for (const BundleFile& file : bundle_files()) {
      const fs::path path = fs::path(directory) / file.name;
      if (file.present && !file.present(db)) {
        fs::remove(path);
        continue;
      }
      tables.push_back(&file);
      written.push_back(path.string());
    }
    // Each table is its own file, so the tables are written as independent
    // tasks; a failure surfaces as the first failing table in file order.
    core::run_indexed(0, tables.size(), [&](std::size_t i) {
      const core::obs::ScopedSpan table_span{"measure.write:" + tables[i]->name,
                                             "measure"};
      const std::string& path = written[i];
      std::ofstream os{path};
      if (!os) throw std::runtime_error{"csv: cannot open " + path};
      tables[i]->write(os, db);
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

ConsolidatedDb read_dataset_tables(const std::string& directory) {
  ConsolidatedDb db;
  // The tables are read one after another. Read as parallel tasks, each
  // table's records grow in a short-lived worker thread's malloc arena,
  // which keeps the memory after the thread exits: a wheelsd running
  // several jobs at once peaked at ~29% more RSS that way.
  for (const BundleFile& file : bundle_files()) {
    const fs::path path = fs::path(directory) / file.name;
    if (file.present && !fs::exists(path)) continue;
    const core::obs::ScopedSpan span{"measure.read:" + file.name, "measure"};
    std::ifstream is{path};
    if (!is) {
      throw std::runtime_error{"replay: missing bundle file " + path.string()};
    }
    // The full path prefixes any parse error: when a fleet run ingests many
    // bundles, the error must name which bundle was malformed, not just
    // which table.
    try {
      file.read(is, db);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error{path.string() + ": " + e.what()};
    }
  }
  return db;
}

}  // namespace wheels::measure
