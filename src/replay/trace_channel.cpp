#include "replay/trace_channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace wheels::replay {

std::string_view hold_policy_name(HoldPolicy p) {
  return p == HoldPolicy::Hold ? "hold" : "linear";
}

HoldPolicy parse_hold_policy(std::string_view text) {
  for (const HoldPolicy p : {HoldPolicy::Hold, HoldPolicy::Interpolate}) {
    if (text == hold_policy_name(p)) return p;
  }
  throw std::runtime_error{"unknown interpolation '" + std::string{text} +
                           "' (expected hold|linear)"};
}

TraceSample interpolate(const TraceSample& a, const TraceSample& b,
                        double f) {
  const auto lerp = [f](double x, double y) { return x + (y - x) * f; };
  TraceSample s = a;
  s.cap_dl = lerp(a.cap_dl, b.cap_dl);
  s.cap_ul = lerp(a.cap_ul, b.cap_ul);
  s.rtt = lerp(a.rtt, b.rtt);
  s.map_km = lerp(a.map_km, b.map_km);
  return s;
}

TraceChannel::TraceChannel(std::vector<TraceSample> samples,
                           std::vector<ran::HandoverEvent> handovers,
                           HoldPolicy policy)
    : samples_(std::move(samples)),
      handovers_(std::move(handovers)),
      policy_(policy) {
  std::stable_sort(
      samples_.begin(), samples_.end(),
      [](const TraceSample& a, const TraceSample& b) { return a.t < b.t; });
  std::stable_sort(handovers_.begin(), handovers_.end(),
                   [](const ran::HandoverEvent& a,
                      const ran::HandoverEvent& b) { return a.t < b.t; });
}

std::size_t TraceChannel::index_at(SimMillis t) const {
  // Last sample with sample.t <= t; upper_bound finds the first later one.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](SimMillis value, const TraceSample& s) { return value < s.t; });
  if (it == samples_.begin()) return 0;
  return static_cast<std::size_t>(it - samples_.begin()) - 1;
}

TraceSample TraceChannel::at(SimMillis t) const {
  if (samples_.empty()) return TraceSample{};
  const std::size_t i = index_at(t);
  const TraceSample& s = samples_[i];
  if (policy_ == HoldPolicy::Hold || i + 1 >= samples_.size() || t <= s.t) {
    return s;
  }
  const TraceSample& next = samples_[i + 1];
  const double span = static_cast<double>(next.t - s.t);
  if (span <= 0.0) return s;
  return interpolate(
      s, next, std::clamp(static_cast<double>(t - s.t) / span, 0.0, 1.0));
}

TraceEvents TraceChannel::events_in(SimMillis t, Millis dt) const {
  TraceEvents ev;
  const auto lo = std::lower_bound(
      handovers_.begin(), handovers_.end(), t,
      [](const ran::HandoverEvent& h, SimMillis value) { return h.t < value; });
  const SimMillis window_end = t + static_cast<SimMillis>(dt);
  for (auto it = lo; it != handovers_.end() && it->t < window_end; ++it) {
    ++ev.handovers;
    ev.interruption += it->duration;
  }
  ev.interruption = std::min(ev.interruption, dt);
  return ev;
}

TraceChannel carrier_timeline(const measure::ConsolidatedDb& db,
                              radio::Carrier carrier, bool is_static,
                              HoldPolicy policy) {
  std::vector<const measure::KpiRecord*> rows;
  for (const auto& k : db.kpis) {
    if (k.carrier == carrier && k.is_static == is_static) rows.push_back(&k);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const measure::KpiRecord* a,
                      const measure::KpiRecord* b) { return a->t < b->t; });

  std::vector<TraceSample> samples;
  samples.reserve(rows.size());
  Mbps last_dl = 0.0;
  Mbps last_ul = 0.0;
  for (const measure::KpiRecord* k : rows) {
    if (k->direction == radio::Direction::Downlink) {
      last_dl = k->throughput;
    } else {
      last_ul = k->throughput;
    }
    TraceSample s;
    s.t = k->t;
    s.tech = k->tech;
    s.cap_dl = last_dl;
    s.cap_ul = last_ul;
    s.map_km = k->map_km;
    samples.push_back(s);
  }

  // Fold the carrier's RTT observations in: each sample carries the most
  // recent echo at or before it (the link's unloaded path RTT there).
  std::vector<const measure::RttRecord*> echoes;
  for (const auto& r : db.rtts) {
    if (r.carrier == carrier && r.is_static == is_static) echoes.push_back(&r);
  }
  std::stable_sort(echoes.begin(), echoes.end(),
                   [](const measure::RttRecord* a,
                      const measure::RttRecord* b) { return a->t < b->t; });
  std::size_t e = 0;
  Millis last_rtt = 50.0;
  for (TraceSample& s : samples) {
    while (e < echoes.size() && echoes[e]->t <= s.t) {
      last_rtt = echoes[e]->rtt;
      ++e;
    }
    s.rtt = last_rtt;
  }

  std::vector<ran::HandoverEvent> handovers;
  for (const auto& h : db.handovers) {
    if (h.carrier == carrier) handovers.push_back(h.event);
  }
  return TraceChannel{std::move(samples), std::move(handovers), policy};
}

}  // namespace wheels::replay
