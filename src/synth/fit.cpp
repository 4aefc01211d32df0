#include "synth/fit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/stats.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "measure/enum_names.hpp"
#include "synth/series.hpp"

namespace wheels::synth {

namespace {

/// kEmissionGrid-point inverse-CDF grid of `values`; empty in, empty out.
EmissionModel fit_emission(std::vector<double> values) {
  EmissionModel model;
  if (values.empty()) return model;
  std::sort(values.begin(), values.end());
  model.points.reserve(kEmissionGrid);
  for (std::size_t i = 0; i < kEmissionGrid; ++i) {
    model.points.push_back(analysis::interpolated_quantile(
        values, static_cast<double>(i) / (kEmissionGrid - 1)));
  }
  return model;
}

std::size_t classify(const std::vector<double>& upper_edges, double v) {
  for (std::size_t i = 0; i < upper_edges.size(); ++i) {
    if (v <= upper_edges[i]) return i;
  }
  return upper_edges.size();
}

/// Normalize transition counts into a row-stochastic matrix: rows of
/// visited regimes get add-k smoothing over visited regimes (a visited row
/// with no outgoing observations falls back to the visited-occupancy
/// distribution); rows of unvisited regimes stay all-zero.
std::vector<std::vector<double>> normalize_transitions(
    const std::vector<std::vector<std::uint64_t>>& counts,
    const std::vector<std::uint64_t>& visits, double smoothing) {
  const std::size_t n = counts.size();
  std::vector<std::vector<double>> out(n, std::vector<double>(n, 0.0));
  std::uint64_t total_visits = 0;
  for (std::uint64_t v : visits) total_visits += v;
  for (std::size_t i = 0; i < n; ++i) {
    if (visits[i] == 0) continue;
    std::uint64_t row_total = 0;
    for (std::size_t j = 0; j < n; ++j) row_total += counts[i][j];
    double denom = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (visits[j] == 0) continue;
      const double w =
          row_total > 0
              ? static_cast<double>(counts[i][j]) + smoothing
              : static_cast<double>(visits[j]) / static_cast<double>(
                                                     total_visits);
      out[i][j] = w;
      denom += w;
    }
    for (std::size_t j = 0; j < n; ++j) out[i][j] /= denom;
  }
  return out;
}

/// Fit one regime chain over the runs: `edges` fixes the discretization,
/// transitions are counted inside runs only.
RegimeChain fit_chain(const std::vector<std::vector<double>>& runs,
                      std::vector<double> edges, double smoothing,
                      std::uint64_t* transition_pairs) {
  const std::size_t regimes = edges.size() + 1;
  RegimeChain chain;
  chain.upper_edges = std::move(edges);

  std::vector<std::uint64_t> visits(regimes, 0);
  std::vector<std::vector<std::uint64_t>> counts(
      regimes, std::vector<std::uint64_t>(regimes, 0));
  std::vector<std::vector<double>> per_regime(regimes);
  std::uint64_t total = 0;
  for (const std::vector<double>& run : runs) {
    std::size_t prev = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
      const std::size_t r = classify(chain.upper_edges, run[i]);
      ++visits[r];
      ++total;
      per_regime[r].push_back(run[i]);
      if (i > 0) {
        ++counts[prev][r];
        if (transition_pairs) ++*transition_pairs;
      }
      prev = r;
    }
  }

  chain.occupancy.resize(regimes, 0.0);
  for (std::size_t r = 0; r < regimes; ++r) {
    chain.occupancy[r] =
        static_cast<double>(visits[r]) / static_cast<double>(total);
  }
  chain.transitions = normalize_transitions(counts, visits, smoothing);
  chain.emissions.reserve(regimes);
  for (std::size_t r = 0; r < regimes; ++r) {
    chain.emissions.push_back(fit_emission(std::move(per_regime[r])));
  }
  return chain;
}

/// Ascending regime edges: the outage bound, then equal-probability
/// quantiles of the non-outage marginal. Degenerate marginals (all outage,
/// heavy ties) yield clamped, still-ascending edges whose upper regimes are
/// simply never visited.
std::vector<double> throughput_edges(const std::vector<double>& values,
                                     double outage_mbps, std::size_t regimes) {
  std::vector<double> above;
  for (double v : values) {
    if (v > outage_mbps) above.push_back(v);
  }
  std::sort(above.begin(), above.end());
  std::vector<double> edges{outage_mbps};
  const std::size_t bands = regimes - 1;  // non-outage bands
  for (std::size_t k = 1; k < bands; ++k) {
    const double q = above.empty()
                         ? outage_mbps
                         : analysis::interpolated_quantile(
                               above, static_cast<double>(k) / bands);
    edges.push_back(std::max(edges.back(), q));
  }
  return edges;
}

std::vector<double> quantile_edges(std::vector<double> values,
                                   std::size_t regimes) {
  std::sort(values.begin(), values.end());
  std::vector<double> edges;
  for (std::size_t k = 1; k < regimes; ++k) {
    const double q = analysis::interpolated_quantile(
        values, static_cast<double>(k) / regimes);
    edges.push_back(edges.empty() ? q : std::max(edges.back(), q));
  }
  return edges;
}

/// Outage arrival statistics: share of ticks in the outage band and the
/// mean length of a maximal outage stretch, in ticks.
void outage_stats(const std::vector<std::vector<double>>& runs,
                  double outage_mbps, double* fraction, double* mean_ticks) {
  std::uint64_t outage = 0, total = 0, stretches = 0;
  for (const std::vector<double>& run : runs) {
    bool in_outage = false;
    for (double v : run) {
      ++total;
      if (v <= outage_mbps) {
        ++outage;
        if (!in_outage) ++stretches;
        in_outage = true;
      } else {
        in_outage = false;
      }
    }
  }
  *fraction = total > 0 ? static_cast<double>(outage) /
                              static_cast<double>(total)
                        : 0.0;
  *mean_ticks = stretches > 0 ? static_cast<double>(outage) /
                                    static_cast<double>(stretches)
                              : 0.0;
}

}  // namespace

SynthProfile fit_profile(
    const std::vector<const replay::ReplayBundle*>& bundles,
    const FitOptions& options) {
  core::obs::ScopedSpan span{"synth.fit", "synth"};
  static const core::obs::Counter regimes_fitted{"synth.regimes"};
  static const core::obs::Counter transitions_fit{"synth.transitions_fit"};

  if (bundles.empty()) throw std::runtime_error{"fit: no input bundles"};
  if (options.tick_ms <= 0) throw std::runtime_error{"fit: tick_ms must be > 0"};
  if (options.throughput_regimes < 2) {
    throw std::runtime_error{"fit: need >= 2 throughput regimes"};
  }
  if (options.rtt_regimes < 1) {
    throw std::runtime_error{"fit: need >= 1 rtt regime"};
  }
  if (options.smoothing < 0.0) {
    throw std::runtime_error{"fit: smoothing must be >= 0"};
  }

  FleetSeries series;
  SynthProfile profile;
  profile.tick_ms = options.tick_ms;
  profile.outage_mbps = options.outage_mbps;
  for (const replay::ReplayBundle* b : bundles) {
    if (b == nullptr) throw std::runtime_error{"fit: null bundle"};
    append_series(series, b->db, options.tick_ms);
    if (!profile.source_digest.empty()) profile.source_digest += ':';
    profile.source_digest += b->manifest.config_digest;
  }

  // Uplink marginals: keyed like the downlink streams, pooled over bundles.
  std::array<std::array<std::vector<double>, radio::kTechnologyCount>,
             radio::kCarrierCount>
      ul_values;
  for (const replay::ReplayBundle* b : bundles) {
    for (const measure::KpiRecord& k : b->db.kpis) {
      if (k.direction != radio::Direction::Uplink) continue;
      ul_values[static_cast<std::size_t>(k.carrier)]
               [static_cast<std::size_t>(k.tech)]
                   .push_back(k.throughput);
    }
  }

  std::uint64_t pairs = 0;
  for (radio::Carrier carrier : radio::kAllCarriers) {
    std::vector<radio::Technology> fitted;
    for (radio::Technology tech : radio::kAllTechnologies) {
      const StreamSeries& ss = series.stream(carrier, tech);
      if (ss.dl_ticks() < options.min_stream_ticks ||
          ss.rtt_ticks() < options.min_stream_ticks) {
        continue;
      }
      StreamModel model;
      model.carrier = carrier;
      model.tech = tech;
      model.n_ticks = ss.dl_ticks();
      model.n_rtt = ss.rtt_ticks();
      model.dl = fit_chain(
          ss.dl_runs,
          throughput_edges(ss.dl_values(), options.outage_mbps,
                           options.throughput_regimes),
          options.smoothing, &pairs);
      model.rtt = fit_chain(ss.rtt_runs,
                            quantile_edges(ss.rtt_values(),
                                           options.rtt_regimes),
                            options.smoothing, &pairs);
      // Uplink: one unconditional emission grid, replicated per dl regime
      // (the schema is conditional so a finer fit can slot in later).
      const EmissionModel ul = fit_emission(
          ul_values[static_cast<std::size_t>(carrier)]
                   [static_cast<std::size_t>(tech)]);
      model.ul.assign(model.dl.regimes(), ul);
      outage_stats(ss.dl_runs, options.outage_mbps, &model.outage_fraction,
                   &model.mean_outage_ticks);
      model.handover_rate =
          static_cast<double>(ss.handover_ticks) /
          static_cast<double>(model.n_ticks);
      for (const RegimeChain* chain : {&model.dl, &model.rtt}) {
        for (double occ : chain->occupancy) {
          if (occ > 0.0) regimes_fitted.add();
        }
      }
      profile.streams.push_back(std::move(model));
      fitted.push_back(tech);
    }
    if (fitted.empty()) continue;

    // The carrier's RAT chain, restricted to the fitted techs: occupancy
    // and tick-adjacent transitions, unfitted ticks skipped (a run through
    // an unfitted tech breaks the adjacency).
    CarrierMix mix;
    mix.carrier = carrier;
    mix.techs = fitted;
    const auto index_of = [&](radio::Technology t) -> std::size_t {
      for (std::size_t i = 0; i < fitted.size(); ++i) {
        if (fitted[i] == t) return i;
      }
      return fitted.size();
    };
    std::vector<std::uint64_t> visits(fitted.size(), 0);
    std::vector<std::vector<std::uint64_t>> counts(
        fitted.size(), std::vector<std::uint64_t>(fitted.size(), 0));
    for (const auto& run :
         series.carriers[static_cast<std::size_t>(carrier)].tech_runs) {
      std::size_t prev = fitted.size();  // sentinel: no adjacency yet
      for (radio::Technology t : run) {
        const std::size_t i = index_of(t);
        if (i == fitted.size()) {
          prev = fitted.size();
          continue;
        }
        ++visits[i];
        if (prev != fitted.size()) {
          ++counts[prev][i];
          ++pairs;
        }
        prev = i;
      }
    }
    std::uint64_t total = 0;
    for (std::uint64_t v : visits) total += v;
    mix.occupancy.resize(fitted.size(), 0.0);
    for (std::size_t i = 0; i < fitted.size(); ++i) {
      mix.occupancy[i] =
          static_cast<double>(visits[i]) / static_cast<double>(total);
    }
    mix.transitions = normalize_transitions(counts, visits, options.smoothing);
    profile.mixes.push_back(std::move(mix));
  }
  transitions_fit.add(pairs);

  if (profile.streams.empty()) {
    throw std::runtime_error{
        "fit: no (carrier, tech) stream clears the sample floor of " +
        std::to_string(options.min_stream_ticks) +
        " downlink ticks and RTT samples"};
  }
  return profile;
}

SynthProfile fit_profile(const replay::ReplayBundle& bundle,
                         const FitOptions& options) {
  return fit_profile(std::vector<const replay::ReplayBundle*>{&bundle},
                     options);
}

}  // namespace wheels::synth
