// Multi-carrier joins: several single-carrier traces -> one campaign bundle.
//
// The paper's campaign runs three carrier phones over one timeline; public
// traces are recorded one carrier at a time, each on its own clock. The join
// aligns the clocks (each trace re-based so its first sample is t = 0),
// optionally trims to the window every carrier covers, resamples each trace
// onto the shared tick grid, and emits one validated ReplayBundle whose
// per-carrier test sets live on one timeline — ready for ReplayCampaign and
// ReplayFleet, which fan out per carrier.
//
// Each input of join_streams() is a *producer* that pushes its point stream
// through the align/trim/resample sink chain, so a source backed by a
// file's LineSource joins without its raw trace ever being materialized.
// Sources fan out through core::run_indexed, one job per input file at
// every thread count; the bundle is always assembled serially in canonical
// carrier order, so the output — manifest digest and deterministic metrics
// included — is byte-identical at any thread count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ingest/resample.hpp"
#include "ingest/stream.hpp"
#include "radio/technology.hpp"
#include "replay/ingest.hpp"

namespace wheels::ingest {

/// One input of a streaming join: `produce` pushes the source's whole point
/// stream into the sink it is given (finishing it exactly once) and must be
/// repeatable — overlap trimming runs a bounds pre-pass over every source
/// before the real one. With shards > 1 producers run concurrently, so a
/// producer must not touch shared mutable state.
struct StreamSource {
  radio::Carrier carrier = radio::Carrier::Verizon;
  /// Diagnostics label (usually the source path).
  std::string name;
  std::function<void(PointSink&)> produce;
};

struct JoinOptions {
  /// Re-base every trace so its first sample lands at t = 0 — the
  /// clock-offset alignment that makes traces recorded on different days
  /// share a timeline. Off: native timestamps are kept.
  bool align_clocks = true;
  /// Keep only the window every carrier covers (after alignment); a join
  /// with no common window is an error. Off: each carrier keeps its full
  /// span.
  bool trim_to_overlap = false;
};

/// Join one point stream per carrier (>= 1 sources, one per distinct
/// carrier) into a single synthetic bundle: per carrier and per resampled
/// segment, one downlink-bulk, one uplink-bulk and one RTT test over the
/// segment's ticks. Sources are assembled in canonical carrier order
/// regardless of argument order (and of `threads`, the ingest shard count —
/// 0 resolves via WHEELS_THREADS), the manifest digest hashes the joined
/// tick content, and the database passes measure::validate_or_throw before
/// returning. Runs inside one "ingest.join" span.
replay::ReplayBundle join_streams(std::vector<StreamSource> sources,
                                  const JoinOptions& join,
                                  const ResampleSpec& resample,
                                  int threads = 1);

}  // namespace wheels::ingest
