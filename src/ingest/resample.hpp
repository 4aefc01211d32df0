// Resampling and gap handling: native trace timestamps -> simulator ticks.
//
// External traces rarely sample on the simulator's 500 ms grid: MONROE logs
// tick at 1 s, Mahimahi delivery opportunities are per-millisecond, drive
// logs pause at gas stations. The StreamingResampler lays a uniform tick
// grid over each contiguous stretch of a point stream with *bounded
// lookahead* — interpolation needs only the bracketing source pair, and a
// gap split compares adjacent points — so resampling a multi-GB trace holds
// one pending point plus the segment being built. It also validates the
// stream: source timestamps must be strictly increasing (a duplicate would
// divide by zero under HoldPolicy::Interpolate, a backwards step would corrupt
// the tick loop), and violations throw with the 1-based point index.
#pragma once

#include <functional>
#include <vector>

#include "ingest/column_map.hpp"
#include "ingest/stream.hpp"
#include "replay/trace_channel.hpp"

namespace wheels::ingest {

struct ResampleSpec {
  SimMillis tick_ms = 500;
  /// Between two source samples: hold the earlier one, or interpolate.
  replay::HoldPolicy fill = replay::HoldPolicy::Hold;
  /// A step between consecutive source samples strictly larger than this
  /// starts a new segment; 0 disables splitting. Must be 0 or >= tick_ms.
  SimMillis max_gap_ms = 10'000;
};

/// One contiguous stretch after resampling: ticks spaced exactly tick_ms
/// apart, anchored at the segment's first source timestamp.
struct TraceSegment {
  std::vector<replay::TraceSample> ticks;
};

/// PointSink that resamples a strictly-increasing point stream onto `spec`'s
/// grid, handing each completed segment to `emit`. Tick timestamps are
/// strictly increasing within and across segments, every source stretch
/// contributes ticks from its first through its last sample, and a
/// single-sample stretch yields one tick. Memory is O(one segment); the
/// only lookahead is the pending source point. Throws std::invalid_argument
/// on a malformed spec (at construction), std::runtime_error "resample:
/// point N: ..." on a non-monotonic stream and "resample: empty trace" when
/// finish() is reached without any point.
class StreamingResampler final : public PointSink {
 public:
  using SegmentFn = std::function<void(TraceSegment&&)>;

  StreamingResampler(const ResampleSpec& spec, SegmentFn emit);

  void push(const replay::TraceSample& p) override;
  void finish() override;

 private:
  void close_segment();

  ResampleSpec spec_;
  SegmentFn emit_;
  TraceSegment seg_;
  replay::TraceSample prev_{};
  bool have_prev_ = false;
  SimMillis t_next_ = 0;
  std::size_t index_ = 0;  // 1-based count of points consumed, diagnostics
  bool finished_ = false;
};

}  // namespace wheels::ingest
