#include "ingest/stream.hpp"

#include "core/obs/metrics.hpp"

namespace wheels::ingest {

void finish_stream(PointSink& sink, std::size_t pushed) {
  static const core::obs::Counter rows{"ingest.rows_emitted"};
  rows.add(pushed);
  sink.finish();
}

}  // namespace wheels::ingest
