#include "synth/sample.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/rng.hpp"
#include "ingest/join.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"

namespace wheels::synth {

namespace {

/// Draw channels within one tick.
enum Channel : std::uint64_t {
  kChTech = 0,
  kChDlStep = 1,
  kChDlEmit = 2,
  kChUlEmit = 3,
  kChRttStep = 4,
  kChRttEmit = 5,
  kChHandover = 6,
  kChHandoverRegime = 7,
  kChannels = 8,
};

struct DrawStream {
  std::uint64_t base;

  DrawStream(std::uint64_t seed, radio::Carrier carrier, std::int64_t cycle)
      : base(mix64(seed ^ mix64(0x5eedc0de +
                                static_cast<std::uint64_t>(carrier) * 0x101) ^
                   mix64(0xc7c1eull ^ static_cast<std::uint64_t>(cycle)))) {}

  double at(std::int64_t tick, Channel ch) const {
    return u01(mix64(base ^ (static_cast<std::uint64_t>(tick) * kChannels +
                             static_cast<std::uint64_t>(ch) + 1) *
                                0x9e3779b97f4a7c15ull));
  }
};

/// Invert the kEmissionGrid-point inverse CDF at u in [0, 1).
double emit(const EmissionModel& em, double u) {
  const std::size_t n = em.points.size();
  const double pos = u * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return em.points[lo] + (em.points[hi] - em.points[lo]) * frac;
}

/// Sample an index from a (sub-)stochastic weight row; the row must carry
/// positive mass. Deterministic: walks the row in index order.
std::size_t sample_index(const std::vector<double>& weights, double u) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = u * total;
  std::size_t last = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    last = i;
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return last;  // floating-point tail: the last positive entry
}

/// The degraded-coverage what-if applied to one dl transition/occupancy
/// row: scale the outage-regime mass by `factor` (clamped to 0.95 so the
/// chain can always leave), renormalizing the rest. A row with no outage
/// mass is returned unchanged — an unobserved outage cannot be synthesized.
std::vector<double> boost_outage(std::vector<double> row, double factor) {
  if (factor == 1.0 || row.empty() || row[0] <= 0.0) return row;
  double rest = 0.0;
  for (std::size_t i = 1; i < row.size(); ++i) rest += row[i];
  const double p0 = std::min(row[0] * factor, rest > 0.0 ? 0.95 : 1.0);
  if (rest > 0.0) {
    const double scale = (1.0 - p0) / rest;
    for (std::size_t i = 1; i < row.size(); ++i) row[i] *= scale;
  }
  row[0] = p0;
  return row;
}

/// The carrier's mix restricted by the spec's RAT cap: indices into
/// mix.techs that stay allowed.
std::vector<std::size_t> allowed_techs(const CarrierMix& mix,
                                       const ScenarioSpec& spec) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < mix.techs.size(); ++i) {
    if (!spec.max_tier.has_value() ||
        radio::technology_tier(mix.techs[i]) <=
            radio::technology_tier(*spec.max_tier)) {
      out.push_back(i);
    }
  }
  return out;
}

/// Restrict a weight row to the allowed indices (others zeroed). Falls back
/// to `fallback` (same restriction) when nothing survives.
std::vector<double> restrict_row(const std::vector<double>& row,
                                 const std::vector<std::size_t>& allowed,
                                 const std::vector<double>& fallback) {
  std::vector<double> out(row.size(), 0.0);
  double mass = 0.0;
  for (std::size_t i : allowed) {
    out[i] = row[i];
    mass += row[i];
  }
  if (mass > 0.0) return out;
  for (std::size_t i : allowed) out[i] = fallback[i];
  return out;
}

void check_spec(const ScenarioSpec& spec) {
  if (spec.duration_s < 0.0 || spec.route_km < 0.0) {
    throw std::runtime_error{"spec: duration_s/route_km must be >= 0"};
  }
  if (spec.duration_s == 0.0 && spec.route_km == 0.0) {
    throw std::runtime_error{"spec: need duration_s > 0 or route_km > 0"};
  }
  if (spec.route_km > 0.0 && spec.speed_kmh <= 0.0) {
    throw std::runtime_error{"spec: route_km needs speed_kmh > 0"};
  }
  if (spec.load <= 0.0) throw std::runtime_error{"spec: load must be > 0"};
  if (spec.outage_factor < 0.0) {
    throw std::runtime_error{"spec: outage_factor must be >= 0"};
  }
}

double cycle_duration_s(const ScenarioSpec& spec) {
  if (spec.duration_s > 0.0) return spec.duration_s;
  return spec.route_km / spec.speed_kmh * 3600.0;
}

/// Inter-cycle spacing: cycles land gap-split into separate drive cycles.
SimMillis cycle_stride(const ScenarioSpec& spec, SimMillis tick_ms) {
  return cycle_ticks(spec, tick_ms) * tick_ms + 4 * tick_ms;
}

}  // namespace

std::int64_t cycle_ticks(const ScenarioSpec& spec, SimMillis tick_ms) {
  check_spec(spec);
  const double ticks = cycle_duration_s(spec) * 1000.0 /
                       static_cast<double>(tick_ms);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(ticks));
}

ingest::ResampleSpec sample_resample_spec(const SynthProfile& profile) {
  ingest::ResampleSpec spec;
  spec.tick_ms = profile.tick_ms;
  spec.fill = replay::HoldPolicy::Hold;
  spec.max_gap_ms = 2 * profile.tick_ms;
  return spec;
}

ScenarioSpec parse_scenario_spec(const std::string& text) {
  ScenarioSpec spec;
  if (text.empty()) return spec;
  std::istringstream is{text};
  std::string item;
  while (std::getline(is, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error{"spec: expected key=value, got '" + item + "'"};
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const auto number = [&]() {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || value.empty()) {
        throw std::runtime_error{"spec: " + key + ": malformed number '" +
                                 value + "'"};
      }
      return v;
    };
    if (key == "duration_s") {
      spec.duration_s = number();
    } else if (key == "route_km") {
      spec.route_km = number();
      if (spec.duration_s == 120.0) spec.duration_s = 0.0;  // route sizes it
    } else if (key == "speed_kmh") {
      spec.speed_kmh = number();
    } else if (key == "load") {
      spec.load = number();
    } else if (key == "outage_factor") {
      spec.outage_factor = number();
    } else if (key == "max_tier") {
      spec.max_tier = measure::names::parse_technology(value);
    } else if (key == "carriers") {
      std::istringstream cs{value};
      std::string name;
      while (std::getline(cs, name, '+')) {
        spec.carriers.push_back(measure::names::parse_carrier(name));
      }
      if (spec.carriers.empty()) {
        throw std::runtime_error{"spec: carriers: empty list"};
      }
    } else {
      throw std::runtime_error{"spec: unknown key '" + key + "'"};
    }
  }
  check_spec(spec);
  return spec;
}

std::string scenario_summary(const ScenarioSpec& spec, SimMillis tick_ms) {
  std::ostringstream os;
  os << cycle_ticks(spec, tick_ms) << " ticks/cycle ("
     << cycle_duration_s(spec) << " s";
  if (spec.route_km > 0.0) {
    os << ", " << spec.route_km << " km @ " << spec.speed_kmh << " km/h";
  }
  os << "), load x" << spec.load << ", outage x" << spec.outage_factor;
  if (spec.max_tier.has_value()) {
    os << ", max tier " << measure::names::to_name(*spec.max_tier);
  }
  return os.str();
}

std::string scenario_canonical(const ScenarioSpec& spec) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "duration_s=%.17g;route_km=%.17g;speed_kmh=%.17g;load=%.17g;"
                "outage_factor=%.17g",
                spec.duration_s, spec.route_km, spec.speed_kmh, spec.load,
                spec.outage_factor);
  std::string out{buf};
  out += ";max_tier=";
  out += spec.max_tier.has_value()
             ? std::string{measure::names::to_name(*spec.max_tier)}
             : "none";
  out += ";carriers=";
  for (std::size_t i = 0; i < spec.carriers.size(); ++i) {
    if (i) out += '+';
    out += measure::names::to_name(spec.carriers[i]);
  }
  return out;
}

void sample_stream(const SynthProfile& profile, const ScenarioSpec& spec,
                   std::uint64_t seed, radio::Carrier carrier, int first_cycle,
                   int cycles, ingest::PointSink& sink) {
  static const core::obs::Counter points_sampled{"synth.points_sampled"};
  const CarrierMix* mix = profile.find_mix(carrier);
  if (mix == nullptr) {
    throw std::runtime_error{
        "sample: no fitted mix for carrier " +
        std::string{measure::names::to_name(carrier)}};
  }
  const std::vector<std::size_t> allowed = allowed_techs(*mix, spec);
  if (allowed.empty()) {
    throw std::runtime_error{
        "sample: max_tier excludes every fitted tech for carrier " +
        std::string{measure::names::to_name(carrier)}};
  }
  const std::int64_t n_ticks = cycle_ticks(spec, profile.tick_ms);
  const SimMillis stride = cycle_stride(spec, profile.tick_ms);
  const double rtt_mult = std::max(0.1, 1.0 + 0.3 * (spec.load - 1.0));

  // Per-tech chain state, lazily entered per cycle: -1 = not yet visited.
  struct TechState {
    int dl_regime = -1;
    int rtt_regime = -1;
  };

  std::uint64_t emitted = 0;
  for (int j = 0; j < cycles; ++j) {
    const std::int64_t cycle = first_cycle + j;
    const DrawStream draws{seed, carrier, cycle};
    const SimMillis base_t = static_cast<SimMillis>(j) * stride;
    std::array<TechState, radio::kTechnologyCount> state{};
    for (auto& s : state) s = TechState{};
    int tech_i = -1;
    for (std::int64_t k = 0; k < n_ticks; ++k) {
      // RAT step: enter from (restricted) occupancy, then walk the mix
      // chain's (restricted) transition rows.
      const double u_tech = draws.at(k, kChTech);
      if (tech_i < 0) {
        tech_i = static_cast<int>(sample_index(
            restrict_row(mix->occupancy, allowed, mix->occupancy), u_tech));
      } else {
        tech_i = static_cast<int>(sample_index(
            restrict_row(mix->transitions[static_cast<std::size_t>(tech_i)],
                         allowed, mix->occupancy),
            u_tech));
      }
      const radio::Technology tech = mix->techs[static_cast<std::size_t>(
          tech_i)];
      const StreamModel* model = profile.find_stream(carrier, tech);
      // parse_profile guarantees every mix tech has a stream.
      TechState& ts = state[static_cast<std::size_t>(tech)];

      // Throughput regime: handover arrivals re-enter from occupancy
      // (post-handover re-establishment); otherwise step the chain.
      const bool handover = draws.at(k, kChHandover) < model->handover_rate;
      if (handover || ts.dl_regime < 0) {
        const double u = handover ? draws.at(k, kChHandoverRegime)
                                  : draws.at(k, kChDlStep);
        ts.dl_regime = static_cast<int>(sample_index(
            boost_outage(model->dl.occupancy, spec.outage_factor), u));
      } else {
        ts.dl_regime = static_cast<int>(sample_index(
            boost_outage(
                model->dl.transitions[static_cast<std::size_t>(ts.dl_regime)],
                spec.outage_factor),
            draws.at(k, kChDlStep)));
      }
      if (ts.rtt_regime < 0) {
        ts.rtt_regime = static_cast<int>(
            sample_index(model->rtt.occupancy, draws.at(k, kChRttStep)));
      } else {
        ts.rtt_regime = static_cast<int>(sample_index(
            model->rtt.transitions[static_cast<std::size_t>(ts.rtt_regime)],
            draws.at(k, kChRttStep)));
      }

      replay::TraceSample p;
      p.t = base_t + static_cast<SimMillis>(k) * profile.tick_ms;
      p.tech = tech;
      p.cap_dl =
          emit(model->dl.emissions[static_cast<std::size_t>(ts.dl_regime)],
               draws.at(k, kChDlEmit)) /
          spec.load;
      const EmissionModel& ul =
          model->ul[static_cast<std::size_t>(ts.dl_regime)];
      p.cap_ul = ul.empty() ? 0.0
                            : emit(ul, draws.at(k, kChUlEmit)) / spec.load;
      p.rtt = std::max(
          0.1,
          emit(model->rtt.emissions[static_cast<std::size_t>(ts.rtt_regime)],
               draws.at(k, kChRttEmit)) *
              rtt_mult);
      sink.push(p);
      ++emitted;
    }
  }
  ingest::finish_stream(sink, emitted);
  points_sampled.add(emitted);
}

replay::ReplayBundle sample_bundle(const SynthProfile& profile,
                                   const ScenarioSpec& spec,
                                   std::uint64_t seed, int first_cycle,
                                   int cycles, int threads) {
  core::obs::ScopedSpan span{"synth.sample", "synth"};
  check_spec(spec);
  if (cycles < 1) throw std::runtime_error{"sample: cycles must be >= 1"};
  std::vector<radio::Carrier> carriers = spec.carriers;
  if (carriers.empty()) {
    for (const CarrierMix& mix : profile.mixes) carriers.push_back(mix.carrier);
  }
  if (carriers.empty()) {
    throw std::runtime_error{"sample: profile has no fitted carriers"};
  }

  std::vector<ingest::StreamSource> sources;
  sources.reserve(carriers.size());
  for (radio::Carrier carrier : carriers) {
    if (profile.find_mix(carrier) == nullptr) {
      throw std::runtime_error{
          "sample: no fitted mix for carrier " +
          std::string{measure::names::to_name(carrier)}};
    }
    ingest::StreamSource source;
    source.carrier = carrier;
    source.name = "synth:" +
                  std::string{measure::names::to_name(carrier)} + ":cycles " +
                  std::to_string(first_cycle) + "+" + std::to_string(cycles);
    source.produce = [&profile, spec, seed, carrier, first_cycle,
                      cycles](ingest::PointSink& sink) {
      sample_stream(profile, spec, seed, carrier, first_cycle, cycles, sink);
    };
    sources.push_back(std::move(source));
  }

  ingest::JoinOptions join;
  join.align_clocks = false;  // cycles are born on the shared t = 0 timeline
  replay::ReplayBundle bundle = ingest::join_streams(
      std::move(sources), join, sample_resample_spec(profile), threads);
  bundle.manifest.seed = seed;
  return bundle;
}

core::obs::RunManifest sample_to_bundle(const SynthProfile& profile,
                                        const ScenarioSpec& spec,
                                        std::uint64_t seed, int first_cycle,
                                        int cycles, int threads,
                                        const std::string& directory,
                                        bool canonical_provenance) {
  replay::ReplayBundle bundle =
      sample_bundle(profile, spec, seed, first_cycle, cycles, threads);
  if (canonical_provenance) {
    core::obs::canonicalize_provenance(bundle.manifest);
  }
  measure::write_dataset(bundle.db, directory, bundle.manifest);
  return bundle.manifest;
}

}  // namespace wheels::synth
