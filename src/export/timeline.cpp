#include "export/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "radio/channel.hpp"
#include "replay/trace_channel.hpp"

namespace wheels::emu {

void validate_timeline(const EmuTimeline& timeline) {
  if (timeline.tick_ms <= 0) {
    throw std::runtime_error{"export: timeline tick_ms must be > 0, got " +
                             std::to_string(timeline.tick_ms)};
  }
  if (timeline.ticks.empty()) {
    throw std::runtime_error{"export: timeline has no ticks"};
  }
  for (std::size_t i = 0; i < timeline.ticks.size(); ++i) {
    const EmuTick& t = timeline.ticks[i];
    if (!std::isfinite(t.cap_dl_mbps) || t.cap_dl_mbps < 0.0 ||
        !std::isfinite(t.cap_ul_mbps) || t.cap_ul_mbps < 0.0) {
      throw std::runtime_error{"export: tick " + std::to_string(i) +
                               ": bad capacity"};
    }
    if (!std::isfinite(t.rtt_ms) || t.rtt_ms <= 0.0) {
      throw std::runtime_error{"export: tick " + std::to_string(i) +
                               ": non-positive rtt"};
    }
    if (!std::isfinite(t.loss) || t.loss < 0.0 || t.loss > 1.0) {
      throw std::runtime_error{"export: tick " + std::to_string(i) +
                               ": loss outside [0, 1]"};
    }
  }
}

EmuTimeline timeline_from_link_ticks(
    const std::vector<measure::LinkTickRecord>& rows, SimMillis tick_ms) {
  if (rows.empty()) {
    throw std::runtime_error{"export: no link ticks to export"};
  }
  if (tick_ms <= 0) {
    throw std::runtime_error{"export: tick_ms must be > 0"};
  }
  EmuTimeline tl;
  tl.tick_ms = tick_ms;
  tl.start_ms = rows.front().t;
  tl.ticks.reserve(rows.size());
  const double tick = static_cast<double>(tick_ms);
  for (const measure::LinkTickRecord& r : rows) {
    EmuTick t;
    t.cap_dl_mbps = r.cap_dl;
    t.cap_ul_mbps = r.cap_ul;
    t.rtt_ms = r.rtt;
    t.loss = std::clamp(r.interruption / tick, 0.0, 1.0);
    t.tech = r.tech;
    tl.ticks.push_back(t);
  }
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
  tl.tick_ms = 500;
  tl.start_ms = channel.start();
  const SimMillis tick = tl.tick_ms;
  const double tick_d = static_cast<double>(tick);
  for (SimMillis t = channel.start(); t <= channel.end(); t += tick) {
    const replay::TraceSample s = channel.at(t);
    const replay::TraceEvents ev = channel.events_in(t, tick_d);
    EmuTick out;
    out.cap_dl_mbps = s.cap_dl;
    out.cap_ul_mbps = s.cap_ul;
    out.rtt_ms = s.rtt;
    out.loss = std::clamp(ev.interruption / tick_d, 0.0, 1.0);
    out.tech = s.tech;
    tl.ticks.push_back(out);
  }
  validate_timeline(tl);
  return tl;
}

EmuTimeline timeline_from_canonical(const ingest::CanonicalTrace& trace,
                                    SimMillis tick_ms) {
  if (trace.points.empty()) {
    throw std::runtime_error{"export: trace has no points"};
  }
  if (tick_ms <= 0) {
    throw std::runtime_error{"export: tick_ms must be > 0"};
  }
  EmuTimeline tl;
  tl.tick_ms = tick_ms;
  tl.start_ms = trace.points.front().t;
  const std::vector<ingest::TracePoint>& pts = trace.points;
  std::size_t i = 0;
  for (SimMillis t = pts.front().t; t <= pts.back().t; t += tick_ms) {
    while (i + 1 < pts.size() && pts[i + 1].t <= t) ++i;
    EmuTick out;
    out.cap_dl_mbps = pts[i].cap_dl_mbps;
    out.cap_ul_mbps = pts[i].cap_ul_mbps;
    out.rtt_ms = pts[i].rtt_ms;
    out.tech = pts[i].tech;
    tl.ticks.push_back(out);
  }
  validate_timeline(tl);
  return tl;
}

}  // namespace wheels::emu
