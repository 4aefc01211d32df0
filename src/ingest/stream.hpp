// Point plumbing for the streaming ingest pipeline.
//
// Incremental adapters do not build one giant point vector; they push each
// canonical point, one at a time, into a PointSink. Consumers — the
// streaming resampler, the join layer's rebase/trim wrappers, the Mahimahi
// uplink merger — are chained so a point flows reader -> adapter ->
// resample/join without the full trace ever existing in memory.
// CollectSink terminates a chain by collecting it into a CanonicalTrace.
#pragma once

#include <cstddef>
#include <utility>

#include "ingest/column_map.hpp"

namespace wheels::ingest {

/// Consumer of a point stream. Across the whole stream the pushed
/// timestamps follow the producing adapter's ordering contract (strictly
/// increasing for every built-in format).
class PointSink {
 public:
  virtual ~PointSink() = default;
  virtual void push(const replay::TraceSample& p) = 0;
  /// End of stream. A producer finishes its sink exactly once; wrapper
  /// sinks forward the call down the chain.
  virtual void finish() {}
};

/// A producer's end of stream: adds the `pushed` points to the core::obs
/// counter "ingest.rows_emitted", then finishes `sink`.
void finish_stream(PointSink& sink, std::size_t pushed);

/// Terminal sink that materializes the stream as a CanonicalTrace.
class CollectSink final : public PointSink {
 public:
  void push(const replay::TraceSample& p) override {
    trace.points.push_back(p);
  }

  CanonicalTrace take() { return std::move(trace); }

  CanonicalTrace trace;
};

}  // namespace wheels::ingest
