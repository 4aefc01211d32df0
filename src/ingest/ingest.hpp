// Top-level ingest API: file in, validated ReplayBundle out.
//
// The free functions here tie the subsystem together for callers (the
// ingest_trace CLI, replay_dataset --import, the fleet path specs of
// replay_fleet and wheelsd, tests): resolve an adapter from
// the registry (sniffing the file only when the format is "auto" — an
// explicit format never requires a readable, sniffable head), stream the
// file through the adapter's incremental parser with the format's
// side-channel companions applied in-line (Mahimahi uplink merge, paper
// rtts.csv overlay), and hand the point stream to the join layer for
// resampling and bundle assembly. stream_trace() is the bounded-memory
// core; load_trace() is its whole-file wrapper. Every error is prefixed
// with the offending path.
#pragma once

#include <string>
#include <vector>

#include "ingest/adapter.hpp"
#include "ingest/join.hpp"

namespace wheels::ingest {

/// Stream one file's canonical points into `sink` (finished exactly once on
/// success) through a LineSource sized by options.chunk. `format` is an
/// adapter name or "auto" (sniff — only then is the file head read twice).
/// Applies the Mahimahi uplink merge when options.mahimahi_uplink_path is
/// set and the resolved adapter is "mahimahi", and the paper rtts.csv
/// overlay when options.paper_rtts_path is set (or a sibling rtts.csv
/// exists) and the resolved adapter is "paper". Runs inside one
/// "ingest.parse" span. Errors carry the path.
void stream_trace(const AdapterRegistry& registry, const std::string& format,
                  const std::string& path, const IngestOptions& options,
                  PointSink& sink);

/// Whole-file wrapper over stream_trace: materializes the stream as a
/// CanonicalTrace. Identical resolution, companions and errors.
CanonicalTrace load_trace(const AdapterRegistry& registry,
                          const std::string& format, const std::string& path,
                          const IngestOptions& options);

/// stream_trace + the join layer against the builtin registry: the one-call
/// single-carrier import, with peak memory bounded by options.chunk rather
/// than the input size.
replay::ReplayBundle ingest_file(const std::string& format,
                                 const std::string& path,
                                 const IngestOptions& options);

/// Load one fleet path spec (replay::parse_fleet_spec): a bundle directory
/// through replay::read_dataset, a ".csv[@carrier]" trace through
/// ingest_file with the "minimal" adapter, tagged with the spec's carrier —
/// so the trace is resampled onto the tick grid and split at long gaps like
/// any other ingested trace.
replay::ReplayBundle load_fleet_bundle(const std::string& spec);

struct JoinEntry {
  radio::Carrier carrier = radio::Carrier::Verizon;
  std::string path;
};

/// Parse "Carrier=path[,Carrier=path...]" (canonical carrier names) into
/// join entries. Throws on malformed specs or unknown carriers.
std::vector<JoinEntry> parse_join_spec(const std::string& spec);

/// Stream every entry (each sniffed independently when `format` is "auto")
/// and join them onto one campaign timeline. Inputs are sharded
/// options.threads wide (one worker per input file, 0 = WHEELS_THREADS /
/// auto); the bundle is byte-identical at every shard count.
replay::ReplayBundle ingest_join(const std::string& format,
                                 const std::vector<JoinEntry>& entries,
                                 const IngestOptions& options,
                                 const JoinOptions& join);

}  // namespace wheels::ingest
