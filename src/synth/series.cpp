#include "synth/series.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace wheels::synth {

namespace {

constexpr std::size_t cidx(radio::Carrier c) {
  return static_cast<std::size_t>(c);
}
constexpr std::size_t tidx(radio::Technology t) {
  return static_cast<std::size_t>(t);
}

}  // namespace

std::uint64_t StreamSeries::dl_ticks() const {
  std::uint64_t n = 0;
  for (const auto& run : dl_runs) n += run.size();
  return n;
}

std::uint64_t StreamSeries::rtt_ticks() const {
  std::uint64_t n = 0;
  for (const auto& run : rtt_runs) n += run.size();
  return n;
}

std::vector<double> StreamSeries::dl_values() const {
  std::vector<double> out;
  out.reserve(dl_ticks());
  for (const auto& run : dl_runs) out.insert(out.end(), run.begin(), run.end());
  return out;
}

std::vector<double> StreamSeries::rtt_values() const {
  std::vector<double> out;
  out.reserve(rtt_ticks());
  for (const auto& run : rtt_runs) {
    out.insert(out.end(), run.begin(), run.end());
  }
  return out;
}

StreamSeries& FleetSeries::stream(radio::Carrier c, radio::Technology t) {
  return streams[cidx(c)][tidx(t)];
}

const StreamSeries& FleetSeries::stream(radio::Carrier c,
                                        radio::Technology t) const {
  return streams[cidx(c)][tidx(t)];
}

void append_series(FleetSeries& out, const measure::ConsolidatedDb& db,
                   SimMillis tick_ms) {
  // Group downlink KPI rows by test and order by time; the map gives a
  // deterministic test order regardless of row order in the db.
  struct DlTick {
    SimMillis t;
    radio::Technology tech;
    double throughput;
    bool handover;
  };
  std::map<std::uint32_t, std::vector<DlTick>> dl_by_test;
  std::map<std::uint32_t, radio::Carrier> test_carrier;
  for (const measure::KpiRecord& k : db.kpis) {
    if (k.direction != radio::Direction::Downlink) continue;
    dl_by_test[k.test_id].push_back(
        {k.t, k.tech, k.throughput, k.handovers > 0});
    test_carrier[k.test_id] = k.carrier;
  }
  for (auto& [test_id, ticks] : dl_by_test) {
    std::stable_sort(
        ticks.begin(), ticks.end(),
        [](const DlTick& a, const DlTick& b) { return a.t < b.t; });
    const radio::Carrier carrier = test_carrier[test_id];
    CarrierSeries& cs = out.carriers[cidx(carrier)];
    std::vector<radio::Technology>* tech_run = nullptr;
    std::vector<double>* dl_run = nullptr;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      const DlTick& tk = ticks[i];
      const bool contiguous = i > 0 && tk.t == ticks[i - 1].t + tick_ms;
      if (!contiguous) {
        cs.tech_runs.emplace_back();
        tech_run = &cs.tech_runs.back();
      }
      tech_run->push_back(tk.tech);
      StreamSeries& ss = out.stream(carrier, tk.tech);
      // The per-stream run additionally breaks on a RAT change: the tick
      // after a switch is the *new* stream's entry, not a transition inside
      // the old one.
      const bool same_stream =
          contiguous && ticks[i - 1].tech == tk.tech && dl_run != nullptr;
      if (!same_stream) {
        ss.dl_runs.emplace_back();
        dl_run = &ss.dl_runs.back();
      }
      dl_run->push_back(tk.throughput);
      if (tk.handover) ++ss.handover_ticks;
    }
  }

  struct RttTick {
    SimMillis t;
    radio::Technology tech;
    double rtt;
  };
  std::map<std::uint32_t, std::vector<RttTick>> rtt_by_test;
  std::map<std::uint32_t, radio::Carrier> rtt_carrier;
  for (const measure::RttRecord& r : db.rtts) {
    rtt_by_test[r.test_id].push_back({r.t, r.tech, r.rtt});
    rtt_carrier[r.test_id] = r.carrier;
  }
  for (auto& [test_id, ticks] : rtt_by_test) {
    std::stable_sort(
        ticks.begin(), ticks.end(),
        [](const RttTick& a, const RttTick& b) { return a.t < b.t; });
    const radio::Carrier carrier = rtt_carrier[test_id];
    std::vector<double>* run = nullptr;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      const RttTick& tk = ticks[i];
      const bool same_run = i > 0 && tk.t == ticks[i - 1].t + tick_ms &&
                            ticks[i - 1].tech == tk.tech && run != nullptr;
      StreamSeries& ss = out.stream(carrier, tk.tech);
      if (!same_run) {
        ss.rtt_runs.emplace_back();
        run = &ss.rtt_runs.back();
      }
      run->push_back(tk.rtt);
    }
  }
}

FleetSeries extract_series(const measure::ConsolidatedDb& db,
                           SimMillis tick_ms) {
  FleetSeries out;
  append_series(out, db, tick_ms);
  return out;
}

}  // namespace wheels::synth
