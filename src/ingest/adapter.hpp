// Pluggable trace adapters and the format registry.
//
// One TraceAdapter per supported input format lifts a native trace file into
// the canonical per-sample record (ingest/column_map.hpp); the registry maps
// format names to adapters and sniffs unlabelled files (header, extension
// and first-data-line heuristics), so `--format auto` works for every
// registered format and new formats plug in without touching any caller.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/column_map.hpp"
#include "ingest/line_source.hpp"
#include "ingest/resample.hpp"
#include "ingest/stream.hpp"
#include "radio/technology.hpp"

namespace wheels::ingest {

/// What sniffing may look at: the file path (extension heuristics) and the
/// first payload lines (comments and blanks already skipped).
struct SniffInput {
  std::string path;
  std::vector<std::string> head;
};

/// Per-ingest knobs, shared by every adapter.
struct IngestOptions {
  /// Carrier the synthetic bundle is tagged with (single-trace ingest; the
  /// multi-carrier join names a carrier per input instead).
  radio::Carrier carrier = radio::Carrier::Verizon;
  /// Technology when the format records none.
  radio::Technology default_tech = radio::Technology::Lte;
  /// RTT fill for formats that record none (Mahimahi, paper KPI tables).
  double default_rtt_ms = 50.0;
  /// Mahimahi: paired uplink trace merged by load_trace(); when empty,
  /// cap_ul is synthesised as mahimahi_ul_share * cap_dl.
  std::string mahimahi_uplink_path;
  double mahimahi_ul_share = 0.1;
  /// Paper tables: optional rtts.csv overlaid onto the KPI timeline; when
  /// empty, a sibling rtts.csv next to a kpis.csv input is picked up
  /// automatically.
  std::string paper_rtts_path;
  ResampleSpec resample;
  /// Block size of the line source.
  ChunkSpec chunk;
  /// Ingest shards for multi-trace joins: one worker per input file.
  /// 0 = resolve from WHEELS_THREADS / hardware concurrency.
  int threads = 1;
};

class TraceAdapter {
 public:
  virtual ~TraceAdapter() = default;

  /// Registry key and `--format` value, e.g. "mahimahi".
  virtual std::string_view name() const = 0;
  /// One-line description for --list-formats and docs.
  virtual std::string_view description() const = 0;
  /// Confidence in [0, 100] that `input` is this format; 0 = no. The
  /// registry picks the highest strictly positive score.
  virtual int sniff(const SniffInput& input) const = 0;
  /// Incrementally parse one trace: pull payload lines from `lines` one at
  /// a time, emit canonical points into `sink` (finishing it exactly once,
  /// on success). Adapter state stays O(1) in the input size. Throws
  /// std::runtime_error "line N: ..." on malformed input (callers prefix
  /// the file path).
  virtual void parse_stream(LineSource& lines, const IngestOptions& options,
                            PointSink& sink) const = 0;
  /// parse_stream over a LineSource on `is`, collected in memory; identical
  /// semantics and errors.
  CanonicalTrace parse(std::istream& is, const IngestOptions& options) const;
};

class AdapterRegistry {
 public:
  /// Register an adapter; throws on a duplicated name.
  void add(std::unique_ptr<TraceAdapter> adapter);

  /// nullptr when no adapter has that name.
  const TraceAdapter* find(std::string_view name) const;

  /// "auto" sniffs `input`; any other value is an exact adapter name.
  /// Throws std::runtime_error listing the known formats on an unknown name
  /// or an unsniffable input.
  const TraceAdapter& resolve(std::string_view format,
                              const SniffInput& input) const;

  /// Best-scoring adapter for `input`; throws when every score is 0 or two
  /// formats tie at the top (an ambiguous file needs an explicit --format).
  const TraceAdapter& sniff_or_throw(const SniffInput& input) const;

  /// Registration order.
  std::vector<const TraceAdapter*> adapters() const;

 private:
  std::vector<std::unique_ptr<TraceAdapter>> adapters_;
};

/// The registry with every built-in adapter (minimal, mahimahi, errant,
/// monroe, paper) registered.
const AdapterRegistry& builtin_registry();

/// Read the first payload lines of `path` for sniffing. Throws
/// std::runtime_error when the file cannot be opened.
SniffInput sniff_file(const std::string& path, std::size_t max_lines = 8);

}  // namespace wheels::ingest
