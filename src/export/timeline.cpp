#include "export/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ingest/resample.hpp"

namespace wheels::emu {

double tick_loss(const apps::LinkTick& tick, SimMillis tick_ms) {
  return std::clamp(tick.interruption / static_cast<double>(tick_ms), 0.0,
                    1.0);
}

void validate_timeline(const EmuTimeline& timeline) {
  if (timeline.tick_ms <= 0) {
    throw std::runtime_error{"export: timeline tick_ms must be > 0, got " +
                             std::to_string(timeline.tick_ms)};
  }
  if (timeline.ticks.empty()) {
    throw std::runtime_error{"export: timeline has no ticks"};
  }
  for (std::size_t i = 0; i < timeline.ticks.size(); ++i) {
    const apps::LinkTick& t = timeline.ticks[i];
    if (!std::isfinite(t.cap_dl) || t.cap_dl < 0.0 ||
        !std::isfinite(t.cap_ul) || t.cap_ul < 0.0) {
      throw std::runtime_error{"export: tick " + std::to_string(i) +
                               ": bad capacity"};
    }
    if (!std::isfinite(t.rtt) || t.rtt <= 0.0) {
      throw std::runtime_error{"export: tick " + std::to_string(i) +
                               ": non-positive rtt"};
    }
    if (!std::isfinite(t.interruption) || t.interruption < 0.0) {
      throw std::runtime_error{"export: tick " + std::to_string(i) +
                               ": bad interruption"};
    }
  }
}

EmuTimeline timeline_from_link_ticks(
    const std::vector<measure::LinkTickRecord>& rows, SimMillis tick_ms) {
  if (rows.empty()) {
    throw std::runtime_error{"export: no link ticks to export"};
  }
  EmuTimeline tl;
  tl.tick_ms = tick_ms;
  tl.start_ms = rows.front().t;
  tl.ticks.assign(rows.begin(), rows.end());
  validate_timeline(tl);
  return tl;
}

EmuTimeline timeline_from_bundle_test(const measure::ConsolidatedDb& db,
                                      std::uint32_t test_id) {
  std::vector<measure::LinkTickRecord> rows;
  for (const measure::LinkTickRecord& r : db.link_ticks) {
    if (r.test_id == test_id) rows.push_back(r);
  }
  if (rows.empty()) {
    throw std::runtime_error{
        "export: bundle records no link_ticks for test " +
        std::to_string(test_id) +
        " (not an app session, or a bundle written before per-run traces)"};
  }
  return timeline_from_link_ticks(rows);
}

EmuTimeline timeline_from_bundle(const measure::ConsolidatedDb& db,
                                 radio::Carrier carrier, bool is_static) {
  const replay::TraceChannel channel =
      replay::carrier_timeline(db, carrier, is_static);
  if (channel.empty()) {
    throw std::runtime_error{
        std::string{"export: bundle has no "} +
        std::string{radio::carrier_name(carrier)} + " samples in the " +
        (is_static ? "static" : "moving") + " regime"};
  }
  EmuTimeline tl;
  tl.start_ms = channel.start();
  // The gap split ingest applies to the same kpis.csv: a silence longer
  // than max_gap_ms between two sample times loses its held ticks.
  ingest::StreamingResampler grid{
      {tl.tick_ms, replay::HoldPolicy::Hold,
       ingest::ResampleSpec{}.max_gap_ms},
      [&](ingest::TraceSegment&& seg) {
        for (const replay::TraceSample& s : seg.ticks) {
          apps::LinkTick tick = s;
          const replay::TraceEvents ev =
              channel.events_in(s.t, static_cast<double>(tl.tick_ms));
          tick.interruption = ev.interruption;
          tick.handovers = ev.handovers;
          tl.ticks.push_back(tick);
        }
      }};
  const std::vector<replay::TraceSample>& samples = channel.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Rows sharing a timestamp are one sample: the last holds, as in
    // TraceChannel::at.
    if (i + 1 < samples.size() && samples[i + 1].t == samples[i].t) continue;
    grid.push(samples[i]);
  }
  grid.finish();
  validate_timeline(tl);
  return tl;
}

EmuTimeline timeline_from_canonical(const ingest::CanonicalTrace& trace,
                                    SimMillis tick_ms) {
  EmuTimeline tl;
  tl.tick_ms = tick_ms;
  // max_gap_ms 0: one segment, from the first point through the last.
  ingest::StreamingResampler grid{
      {tick_ms, replay::HoldPolicy::Hold, 0},
      [&tl](ingest::TraceSegment&& seg) {
        tl.start_ms = seg.ticks.front().t;
        tl.ticks.assign(seg.ticks.begin(), seg.ticks.end());
      }};
  for (const replay::TraceSample& p : trace.points) grid.push(p);
  grid.finish();
  validate_timeline(tl);
  return tl;
}

}  // namespace wheels::emu
