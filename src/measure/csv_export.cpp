#include "measure/csv_export.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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
#include <mutex>
#include <numeric>
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
static_assert(kReadChunkBytes % kBlockBytes == 0);

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

/// Parses the cells of one data line of `table` into `row`, in file order.
template <const auto& table, typename Record, std::size_t N>
void parse_cells(const std::array<std::string_view, N>& cells,
                 std::size_t number, Record& row) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (parse_field(cells[I], number, std::get<I>(table.columns).of(row)), ...);
  }(std::make_index_sequence<N>{});
}

/// The header row of `table`, built once.
template <const auto& table>
std::string_view header_text() {
  static const std::string header = header_of(table);
  return header;
}

/// The workers of one bundle read, shared by its tables: a pool
/// WHEELS_THREADS wide and one block buffer per pool thread. The caller
/// allocates the buffers, each with room for a block and the tail of a
/// line of up to 4 KiB that the block before cut, so a worker allocates no
/// memory of its own: a short-lived worker's malloc arena would keep it.
/// Only a longer line grows a buffer.
class ChunkWorkers {
 public:
  ChunkWorkers()
      : pool_(core::resolve_threads(0)),
        free_(static_cast<std::size_t>(pool_.threads())) {
    for (std::vector<char>& block : free_) block.reserve(kBlockBytes + 4096);
  }

  core::ThreadPool& pool() { return pool_; }

  /// A free block buffer; at most one per pool thread is out at a time.
  std::vector<char> take() {
    const std::lock_guard lk{mu_};
    if (free_.empty()) return {};
    std::vector<char> block = std::move(free_.back());
    free_.pop_back();
    return block;
  }

  void give(std::vector<char> block) {
    const std::lock_guard lk{mu_};
    free_.push_back(std::move(block));
  }

 private:
  core::ThreadPool pool_;
  std::mutex mu_;
  std::vector<std::vector<char>> free_;
};

/// Strict line cursor over a CSV table, or over one chunk of a table file:
/// the lines that start in it. Pulls its input in blocks through
/// core::LineReader, skips blank lines (the writers never emit them
/// mid-table) and rejects a repeated header line; the chunk at the start of
/// the input verifies the header first. Lines are views into the block,
/// valid until the next call to next(); no line allocates. Every failure
/// throws std::runtime_error citing the 1-based line number of the
/// offending line.
class CsvLines {
 public:
  /// All of `is`.
  CsvLines(std::istream& is, std::string_view header)
      : lines_(is, kBlockBytes), header_(header) {
    check_header();
  }

  /// The lines of the file `fd` that start at a byte in [begin, end), the
  /// first numbered `first_line`; end = npos reads on to the end of the
  /// file. The block buffer is one of `workers`', handed back on
  /// destruction.
  CsvLines(int fd, std::size_t begin, std::size_t end, std::size_t first_line,
           std::string_view header, ChunkWorkers& workers)
      : lines_(fd, read_start(begin), kBlockBytes, workers.take()),
        stop_(end == std::string_view::npos ? end : end - read_start(begin)),
        number_(first_line - 1),
        header_(header),
        workers_(&workers) {
    if (begin == 0) {
      check_header();
      return;
    }
    std::string_view rest;  // of the line the byte before `begin` is in
    (void)lines_.next(rest);
  }

  ~CsvLines() {
    if (workers_ != nullptr) workers_->give(std::move(lines_).take_buffer());
  }

  CsvLines(const CsvLines&) = delete;
  CsvLines& operator=(const CsvLines&) = delete;

  /// The next data line; false past the chunk's end.
  bool next(std::string_view& line) {
    while (next_physical(line)) {
      if (line.empty()) continue;
      if (line == header_) fail(number_, "duplicated header");
      return true;
    }
    return false;
  }

  /// Pass 1 of a chunked read: reads to the chunk's end without parsing
  /// and counts the lines that next() would return with `fields` fields,
  /// the only ones that get a row slot.
  std::size_t count_rows(std::size_t fields) {
    std::size_t rows = 0;
    std::string_view line;
    while (next_physical(line)) {
      if (!line.empty() && line != header_ &&
          static_cast<std::size_t>(std::count(line.begin(), line.end(),
                                              ',')) == fields - 1) {
        ++rows;
      }
    }
    return rows;
  }

  /// 1-based number of the line read last.
  std::size_t number() const { return number_; }

 private:
  /// The next physical line, blank or not; false past the chunk's end.
  bool next_physical(std::string_view& line) {
    if (!lines_.next(line) || lines_.line_offset() >= stop_) return false;
    ++number_;
    return true;
  }

  /// A chunk reads from one byte before its start, so the first line it
  /// reads is the rest of the line before it: empty when that line ends
  /// right before the chunk, and never a line of the chunk's own.
  static std::size_t read_start(std::size_t begin) {
    return begin == 0 ? 0 : begin - 1;
  }

  void check_header() {
    std::string_view line;
    if (!next_physical(line)) {
      fail(1, "missing header, expected '" + std::string{header_} + "'");
    }
    if (line != header_) {
      fail(1, "unexpected header '" + std::string{line} + "', expected '" +
                  std::string{header_} + "'");
    }
  }

  core::LineReader lines_;
  std::size_t stop_ = std::string_view::npos;  // offset in lines_' input
  std::size_t number_ = 0;
  std::string_view header_;
  ChunkWorkers* workers_ = nullptr;  // set for a file chunk
};

/// The decode loop of every record-table read: each data line of `lines`
/// is checked for `table`'s field count and then parsed into `slot()`, so
/// only a well-formed line gets a slot.
template <const auto& table, typename Slot>
void decode_rows(CsvLines& lines, Slot&& slot) {
  std::string_view line;
  while (lines.next(line)) {
    const auto cells = split_row<table.kColumns>(line, lines.number());
    parse_cells<table>(cells, lines.number(), slot());
  }
}

/// A whole stream of `table`: the one-chunk read, its rows appended.
template <const auto& table>
auto read_records(std::istream& is) {
  std::vector<typename std::remove_cvref_t<decltype(table)>::Record> rows;
  CsvLines lines{is, header_text<table>()};
  decode_rows<table>(lines, [&]() -> auto& { return rows.emplace_back(); });
  return rows;
}

/// A table file open for pread, and its size when it was opened.
class TableFile {
 public:
  explicit TableFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    struct stat st {};
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error{"csv: cannot open " + path};
    }
    size_ = static_cast<std::size_t>(st.st_size);
  }
  ~TableFile() { ::close(fd_); }

  TableFile(const TableFile&) = delete;
  TableFile& operator=(const TableFile&) = delete;

  int fd() const { return fd_; }
  std::size_t size() const { return size_; }

 private:
  int fd_;
  std::size_t size_ = 0;
};

/// Pass 2 met a line or a row that pass 1 did not count.
[[noreturn]] void changed_while_read(std::string_view file) {
  throw std::runtime_error{"csv: " + std::string{file} +
                           " changed while it was read"};
}

/// Reads `table`'s file at `path` in kReadChunkBytes chunks on the workers'
/// pool: pass 1 counts each chunk's lines and rows, `rows` is sized once
/// from the prefix sums, and pass 2 decodes each chunk straight into its
/// own slots with its own line numbers. The pool rethrows the lowest
/// failing chunk's error, which is the first error in file order, as the
/// stream reader meets it.
template <const auto& table, typename Record>
void read_chunked(const std::string& path, std::vector<Record>& rows,
                  ChunkWorkers& workers) {
  const TableFile file{path};
  const std::size_t chunks = std::max<std::size_t>(
      1, (file.size() + kReadChunkBytes - 1) / kReadChunkBytes);
  const auto chunk = [&](std::size_t k, std::size_t first_line) {
    return CsvLines{file.fd(),
                    k * kReadChunkBytes,
                    k + 1 == chunks ? std::string_view::npos
                                    : (k + 1) * kReadChunkBytes,
                    first_line,
                    header_text<table>(),
                    workers};
  };
  // Pass 1 leaves chunk k's line and row counts at k + 1; the prefix sums
  // then hold chunk k's first line number and first slot at k, and the
  // table's end at `chunks`. A chunk's lines include blanks and the header.
  std::vector<std::size_t> first_line(chunks + 1, 0);
  std::vector<std::size_t> first_row(chunks + 1, 0);
  workers.pool().run_indexed(chunks, [&](std::size_t k) {
    CsvLines lines = chunk(k, 1);
    first_row[k + 1] = lines.count_rows(table.kColumns);
    first_line[k + 1] = lines.number();
  });
  first_line[0] = 1;
  std::partial_sum(first_line.begin(), first_line.end(), first_line.begin());
  std::partial_sum(first_row.begin(), first_row.end(), first_row.begin());
  rows.resize(first_row[chunks]);
  workers.pool().run_indexed(chunks, [&](std::size_t k) {
    CsvLines lines = chunk(k, first_line[k]);
    Record* next = rows.data() + first_row[k];
    Record* const end = rows.data() + first_row[k + 1];
    decode_rows<table>(lines, [&]() -> Record& {
      if (next == end) changed_while_read(table.file);
      return *next++;
    });
    if (next != end || lines.number() + 1 != first_line[k + 1]) {
      changed_while_read(table.file);
    }
  });
}

// --- the bundle's files ----------------------------------------------------

/// How read_dataset_tables reads one file of a bundle into the database.
using TableRead = std::function<void(const std::string& path,
                                     ConsolidatedDb&, ChunkWorkers&)>;

/// One file of a bundle: how write_dataset writes it and read_dataset_tables
/// reads it back. `present` is set for an optional table only.
struct BundleFile {
  std::string name;
  std::function<bool(const ConsolidatedDb&)> present;
  std::function<void(std::ostream&, const ConsolidatedDb&)> write;
  TableRead read;
};

template <const auto& table>
BundleFile record_file(bool optional) {
  BundleFile file{std::string{table.file}, nullptr,
                  [](std::ostream& os, const ConsolidatedDb& db) {
                    write_records<table>(os, db);
                  },
                  [](const std::string& path, ConsolidatedDb& db,
                     ChunkWorkers& workers) {
                    read_chunked<table>(path, db.*table.rows, workers);
                  }};
  if (optional) {
    file.present = [](const ConsolidatedDb& db) {
      return !(db.*table.rows).empty();
    };
  }
  return file;
}

/// A keyed table's read: its stream reader over the whole file.
TableRead stream_read(
    std::function<void(std::istream&, ConsolidatedDb&)> read) {
  return [read = std::move(read)](const std::string& path, ConsolidatedDb& db,
                                  ChunkWorkers&) {
    std::ifstream is{path};
    if (!is) throw std::runtime_error{"csv: cannot open " + path};
    read(is, db);
  };
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
           stream_read([c, ci](std::istream& is, ConsolidatedDb& db) {
             db.passive[ci].carrier = c;
             db.passive[ci].segments = read_coverage_csv(is, c, true);
           })});
      out.push_back({"coverage_active_" + base + ".csv", nullptr,
                     [c, ci](std::ostream& os, const ConsolidatedDb& db) {
                       write_coverage_csv(os, db.active_coverage[ci], c,
                                          false);
                     },
                     stream_read([c, ci](std::istream& is, ConsolidatedDb& db) {
                       db.active_coverage[ci] = read_coverage_csv(is, c, false);
                     })});
    }
    out.push_back({"summary.csv", nullptr, write_summary_csv,
                   stream_read(read_summary_csv)});
    out.push_back({"cells.csv", nullptr, write_cells_csv,
                   stream_read(read_cells_csv)});
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

std::string_view kpi_header() { return header_text<kKpis>(); }

KpiRecord parse_kpi_row(std::string_view line, std::size_t line_number) {
  if (line == kpi_header()) fail(line_number, "duplicated header");
  KpiRecord row;
  parse_cells<kKpis>(split_row<kKpis.kColumns>(line, line_number),
                     line_number, row);
  return row;
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
  ChunkWorkers workers;
  for (const BundleFile& file : bundle_files()) {
    const std::string path = (fs::path(directory) / file.name).string();
    if (!fs::exists(path)) {
      if (file.present) continue;
      throw std::runtime_error{"replay: missing bundle file " + path};
    }
    const core::obs::ScopedSpan span{"measure.read:" + file.name, "measure"};
    // The full path prefixes any parse error: when a fleet run ingests many
    // bundles, the error must name which bundle was malformed, not just
    // which table.
    try {
      file.read(path, db, workers);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error{path + ": " + e.what()};
    }
  }
  return db;
}

}  // namespace wheels::measure
