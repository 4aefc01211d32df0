// CSV export/import of the consolidated database.
//
// The paper releases its dataset and scripts publicly [8]; this module is
// the equivalent release path: every table of the ConsolidatedDb is written
// as CSV and every table can be read back, so a bundle directory reassembles
// into the full database (src/replay/ ingests bundles through these readers
// and re-runs the transport/app stack over them).
//
// Format contracts:
//  - each of the seven record tables (tests, kpis, rtts, handovers,
//    app_runs, link_ticks, cell_load) is declared once in csv_export.cpp,
//    as a list of (header name, record field) columns in file order. The
//    header, the writer's row, the column count and the reader's field
//    parsers all come from that list. coverage_*, summary.csv and cells.csv
//    are keyed tables with their own readers;
//  - the bundle's files are declared once too, in one list that
//    write_dataset and read_dataset_tables both walk: tests, kpis, rtts,
//    handovers, app_runs, link_ticks, cell_load, the six coverage_* files,
//    summary, cells. link_ticks and cell_load are optional: present when
//    the table has rows. write_dataset writes such a table only then and
//    otherwise removes a file of its name from the directory;
//    read_dataset_tables reads it when its file exists;
//  - doubles are written by std::to_chars(general, 17), which is printf's
//    "%.17g" and exactly what an ostream prints at max_digits10, so a
//    written-then-read value is bit-identical (tests/test_csv_export.cpp
//    checks the formatter against an ostringstream). Integers print in
//    decimal and bools as 0/1; the stream's format flags play no part;
//  - enum columns carry the canonical printed names of
//    measure/enum_names.hpp — the writers and parsers share one table and
//    cannot drift;
//  - readers are strict: truncated rows, unknown enum names, non-finite
//    numbers and duplicated headers all raise std::runtime_error citing the
//    offending 1-based line number. Nothing is silently skipped. Numbers
//    parse with std::from_chars, so only what the writers emit is read: a
//    leading '+' or whitespace, a hex float or an underflow such as 1e-400
//    is rejected as malformed or out of range. parse_kpi_row applies the
//    same rules to one kpis.csv line;
//  - read_dataset_tables reads the tables in file order, and each record
//    table in kReadChunkBytes chunks decoded in parallel, WHEELS_THREADS
//    wide. The stream readers are the one-chunk case of the same decode
//    loop, so both give the same rows, line numbers and errors, and the
//    first error in file order is the one raised. Only a line with the
//    table's field count gets a row slot, so a table of malformed lines
//    fails at its first line without allocating for the rest;
//  - write_dataset throws when a table or the manifest could not be
//    written in full ("csv: cannot write <path>", "manifest: cannot write
//    <path>"), so a truncated bundle is never reported written.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/manifest.hpp"
#include "measure/records.hpp"

namespace wheels::measure {

/// Format `v` exactly as the CSV writers below do ("%.17g", so the text
/// converts back to the identical bits) — for auxiliary tables (fleet
/// aggregates, golden expectations) that must diff cleanly against files
/// this module wrote.
std::string csv_double(double v);

void write_tests_csv(std::ostream& os, const ConsolidatedDb& db);
void write_kpis_csv(std::ostream& os, const ConsolidatedDb& db);
void write_rtts_csv(std::ostream& os, const ConsolidatedDb& db);
void write_handovers_csv(std::ostream& os, const ConsolidatedDb& db);
void write_app_runs_csv(std::ostream& os, const ConsolidatedDb& db);
/// Per-app-session link-state ticks (written into a bundle only when
/// non-empty, so appless campaigns and pre-existing golden bundles keep
/// their exact bytes and manifest digest).
void write_link_ticks_csv(std::ostream& os, const ConsolidatedDb& db);
/// Per-cell population load (written into a bundle only when non-empty, so
/// populationless campaigns keep producing byte-identical bundles).
void write_cell_load_csv(std::ostream& os, const ConsolidatedDb& db);
void write_coverage_csv(std::ostream& os,
                        const std::vector<CoverageSegment>& segments,
                        radio::Carrier carrier, bool passive);
/// Scalar fields of the database (driven_km, byte counters, per-carrier
/// runtimes and passive-logger tallies) as key,carrier,value rows.
void write_summary_csv(std::ostream& os, const ConsolidatedDb& db);
/// Unique cells connected per carrier, active and passive views.
void write_cells_csv(std::ostream& os, const ConsolidatedDb& db);

/// Parse back what the corresponding writer wrote. All readers throw
/// std::runtime_error (with the offending line number) on malformed input.
std::vector<TestRecord> read_tests_csv(std::istream& is);
std::vector<KpiRecord> read_kpis_csv(std::istream& is);
std::vector<RttRecord> read_rtts_csv(std::istream& is);
std::vector<HandoverRecord> read_handovers_csv(std::istream& is);
std::vector<AppRunRecord> read_app_runs_csv(std::istream& is);
std::vector<LinkTickRecord> read_link_ticks_csv(std::istream& is);
std::vector<CellLoadRecord> read_cell_load_csv(std::istream& is);
/// Also verifies every row matches the expected carrier and view (a bundle
/// names both in the file name).
std::vector<CoverageSegment> read_coverage_csv(std::istream& is,
                                               radio::Carrier expected_carrier,
                                               bool expected_passive);
/// Fill `db`'s scalar fields / cell sets from the two auxiliary tables.
/// read_summary_csv requires every row write_summary_csv writes exactly
/// once: a repeated (key, carrier) row fails on its line, a missing one
/// names its key.
void read_summary_csv(std::istream& is, ConsolidatedDb& db);
void read_cells_csv(std::istream& is, ConsolidatedDb& db);

/// The header row of kpis.csv, and the bundle reader's own parser of one of
/// its data lines: a repeated header, a wrong field count or a bad field
/// throws std::runtime_error "csv: line <line_number>: ...". The ingest
/// paper adapter reads a lone kpis.csv with these two.
std::string_view kpi_header();
KpiRecord parse_kpi_row(std::string_view line, std::size_t line_number);

/// Write the whole dataset bundle into a directory (created if needed),
/// including a manifest.json recording the bundle's provenance, which is
/// written last. The tables are written as independent tasks,
/// WHEELS_THREADS wide; an optional table without rows leaves no file
/// behind. Returns the list of files written, in file order.
/// Throws std::runtime_error naming the first table (in that order) that
/// could not be opened or written in full. Also flushes the global
/// metrics/trace sinks when WHEELS_METRICS_OUT / WHEELS_TRACE_OUT are set.
std::vector<std::string> write_dataset(const ConsolidatedDb& db,
                                       const std::string& directory,
                                       const core::obs::RunManifest& manifest);

/// read_dataset_tables splits each record table into chunks of this many
/// bytes, two of the readers' 256 KiB blocks, and decodes them in parallel.
inline constexpr std::size_t kReadChunkBytes = std::size_t{512} << 10;

/// Read every table of the bundle at `directory` back (the manifest is
/// replay::read_dataset's), in file order. Each record table is read in
/// kReadChunkBytes chunks on one pool WHEELS_THREADS wide: pass 1 counts
/// every chunk's lines and rows, the table's vector is sized once, and
/// pass 2 decodes every chunk into its own slots. Throws
/// std::runtime_error "replay: missing bundle file <path>" for a missing
/// required file, "<path>: <error>" for malformed content, and "<path>:
/// csv: <file> changed while it was read" when the two passes disagree.
ConsolidatedDb read_dataset_tables(const std::string& directory);

}  // namespace wheels::measure
