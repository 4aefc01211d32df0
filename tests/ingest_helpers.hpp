// Test helpers that feed the streaming ingest API from memory: a producer
// over a CanonicalTrace for ingest::join_streams, a single-carrier bundle
// built through it, a whole-trace resample, and a ColumnMap parse of
// literal text.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ingest/column_map.hpp"
#include "ingest/join.hpp"
#include "ingest/line_source.hpp"
#include "ingest/resample.hpp"
#include "ingest/stream.hpp"

namespace wheels::ingest::helpers {

/// A repeatable StreamSource producer that pushes every point of `trace`.
inline std::function<void(PointSink&)> produce_points(CanonicalTrace trace) {
  return [trace = std::move(trace)](PointSink& sink) {
    for (const replay::TraceSample& p : trace.points) sink.push(p);
    sink.finish();
  };
}

/// A join of one source named "trace", as ingest_file builds it.
inline replay::ReplayBundle bundle_of(CanonicalTrace trace,
                                      radio::Carrier carrier,
                                      const ResampleSpec& spec) {
  std::vector<StreamSource> sources;
  sources.push_back({carrier, "trace", produce_points(std::move(trace))});
  return join_streams(std::move(sources), JoinOptions{}, spec);
}

/// Every segment of `trace` resampled onto `spec`'s grid.
inline std::vector<TraceSegment> resample_all(const CanonicalTrace& trace,
                                              const ResampleSpec& spec) {
  std::vector<TraceSegment> segments;
  StreamingResampler resampler{spec, [&segments](TraceSegment&& seg) {
                                 segments.push_back(std::move(seg));
                               }};
  for (const replay::TraceSample& p : trace.points) resampler.push(p);
  resampler.finish();
  return segments;
}

/// parse_with_map over `text`.
inline CanonicalTrace parse_text(const std::string& text, const ColumnMap& map,
                                 radio::Technology default_tech) {
  std::istringstream is{text};
  LineSource lines{is, ChunkSpec{}};
  CollectSink sink;
  parse_with_map(lines, map, default_tech, sink);
  return sink.take();
}

}  // namespace wheels::ingest::helpers
