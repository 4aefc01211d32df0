#include "ingest/resample.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace wheels::ingest {

StreamingResampler::StreamingResampler(const ResampleSpec& spec,
                                       SegmentFn emit)
    : spec_(spec), emit_(std::move(emit)) {
  if (spec_.tick_ms <= 0) {
    throw std::invalid_argument{"resample: tick_ms must be > 0"};
  }
  if (spec_.max_gap_ms != 0 && spec_.max_gap_ms < spec_.tick_ms) {
    throw std::invalid_argument{"resample: max_gap_ms must be 0 or >= tick_ms"};
  }
}

void StreamingResampler::push(const replay::TraceSample& p) {
  ++index_;
  if (!have_prev_) {
    prev_ = p;
    have_prev_ = true;
    t_next_ = p.t;
    return;
  }
  if (p.t == prev_.t) {
    throw std::runtime_error{"resample: point " + std::to_string(index_) +
                             ": duplicate time " + std::to_string(p.t)};
  }
  if (p.t < prev_.t) {
    throw std::runtime_error{"resample: point " + std::to_string(index_) +
                             ": time going backwards (" +
                             std::to_string(p.t) + " after " +
                             std::to_string(prev_.t) + ")"};
  }
  if (spec_.max_gap_ms != 0 && p.t - prev_.t > spec_.max_gap_ms) {
    close_segment();
    prev_ = p;
    t_next_ = p.t;
    return;
  }
  // Every grid tick strictly before the new point is bracketed by
  // (prev_, p) — the bounded lookahead: one pending source sample.
  while (t_next_ < p.t) {
    replay::TraceSample out = prev_;
    if (spec_.fill == replay::HoldPolicy::Interpolate && t_next_ > prev_.t) {
      out = replay::interpolate(prev_, p,
                                static_cast<double>(t_next_ - prev_.t) /
                                    static_cast<double>(p.t - prev_.t));
    }
    out.t = t_next_;
    seg_.ticks.push_back(out);
    t_next_ += spec_.tick_ms;
  }
  prev_ = p;
}

void StreamingResampler::close_segment() {
  // All ticks before prev_.t were emitted when prev_ arrived; at most the
  // tick landing exactly on the segment's last sample remains.
  while (t_next_ <= prev_.t) {
    replay::TraceSample out = prev_;
    out.t = t_next_;
    seg_.ticks.push_back(out);
    t_next_ += spec_.tick_ms;
  }
  emit_(std::move(seg_));
  seg_ = TraceSegment{};
}

void StreamingResampler::finish() {
  if (finished_) return;
  finished_ = true;
  if (!have_prev_) {
    throw std::runtime_error{"resample: empty trace"};
  }
  close_segment();
}

}  // namespace wheels::ingest
