// Declarative column mapping: lift a heterogeneous trace CSV into the
// canonical per-sample record, replay::TraceSample.
//
// Real drive datasets disagree on everything — column names, time units
// (ms vs. fractional unix seconds), throughput units (Mbps, kbps, bps),
// whether RTT or technology is recorded at all. A ColumnMap describes one
// format as *data*: source column -> apps::LinkTick member, a unit scale,
// and a constant fill for columns the format lacks. parse_with_map() is the
// single strict parser behind the minimal/ERRANT/MONROE adapters, so adding
// a format of this family means writing a ColumnMap, not a parser. It pulls
// payload lines one at a time from a LineSource and pushes points into a
// PointSink, holding only the header binding and the previous timestamp —
// O(1) state however large the input.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/sim_time.hpp"
#include "radio/technology.hpp"
#include "replay/trace_channel.hpp"

namespace wheels::ingest {

class LineSource;
class PointSink;

/// A parsed trace at its native (possibly irregular) timestamps, strictly
/// increasing in t: the samples every adapter reduces its native rows to.
/// The resampling layer turns this into simulator ticks.
struct CanonicalTrace {
  std::vector<replay::TraceSample> points;
};

struct ColumnRule {
  std::string source;  // header name in the input
  /// The destination: &apps::LinkTick::cap_dl, ::cap_ul or ::rtt.
  double apps::LinkTick::*field = &apps::LinkTick::cap_dl;
  double scale = 1.0;  // unit conversion (e.g. kbps -> Mbps: 1e-3)
  /// Used when `source` is missing from the header; without a fill a
  /// missing column is an error.
  std::optional<double> fill;
};

/// Extra technology spellings a format uses ("4G", "NR-SA", ...), consulted
/// before the canonical measure::names::parse_technology lookup.
struct TechAlias {
  std::string name;
  radio::Technology tech;
};

struct ColumnMap {
  std::string time_column;
  /// Source time unit in milliseconds (1.0 = ms, 1000.0 = seconds). The
  /// source value may be fractional; the product is rounded to SimMillis.
  double time_scale_ms = 1.0;
  /// Subtract the first sample's time, so unix-epoch clocks land at t = 0.
  bool rebase_time = false;
  std::vector<ColumnRule> rules;
  /// Optional technology column; empty name, or a named column missing from
  /// the header, falls back to the caller's default technology.
  std::string tech_column;
  std::vector<TechAlias> tech_aliases;
  /// Ignore source columns no rule mentions (operator ids, RSRP, ...).
  bool allow_extra_columns = false;
};

/// Incrementally parse `lines` under `map`, emitting canonical points into
/// `sink` (finishing it exactly once). Shares the strict trace dialect of
/// ingest/line_source.hpp: '#' comments and blank lines are skipped without
/// renumbering, CRLF is accepted, numbers parse full-string, and time must
/// be strictly increasing after scaling (duplicates and backwards steps are
/// rejected). Capacities must be >= 0 and RTTs > 0 after scaling. Throws
/// std::runtime_error "line N: ..." on the first violation.
void parse_with_map(LineSource& lines, const ColumnMap& map,
                    radio::Technology default_tech, PointSink& sink);

}  // namespace wheels::ingest
