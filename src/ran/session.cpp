#include "ran/session.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/obs/metrics.hpp"

namespace wheels::ran {

using radio::CellSite;
using radio::Deployment;
using radio::Direction;
using radio::Technology;

RadioSession::RadioSession(const Deployment& deployment,
                           TrafficProfile traffic, Rng rng)
    : deployment_(&deployment),
      traffic_(traffic),
      channel_(deployment.carrier(), rng.fork("channel")),
      rng_(rng.fork("session")) {}

void RadioSession::set_traffic(TrafficProfile traffic) {
  if (traffic == traffic_) return;
  traffic_ = traffic;
  since_policy_eval_ = 1e18;  // re-evaluate immediately on next tick
  force_fresh_eval_ = true;   // a new traffic profile means a new grant
}

namespace {

/// Bit t set when technology t has a covering cell in `coverage`.
unsigned availability_mask(const radio::Coverage& coverage) {
  unsigned mask = 0;
  for (std::size_t t = 0; t < coverage.size(); ++t) {
    if (coverage[t] != nullptr) mask |= 1u << t;
  }
  return mask;
}

const CellSite* covering(const radio::Coverage& coverage, Technology tech) {
  return coverage[static_cast<std::size_t>(tech)];
}

}  // namespace

void RadioSession::evaluate_policy(const radio::Coverage& coverage,
                                   geo::Timezone tz,
                                   bool availability_changed) {
  last_available_ = availability_mask(coverage);
  // Grants are sticky: while the available set is unchanged, the network
  // keeps the current tier most of the time instead of re-rolling the
  // policy (otherwise idle phones would flap between layers every few
  // seconds, which the paper's passive handover counts rule out).
  const bool still_available = covering(coverage, desired_) != nullptr;
  if (!force_fresh_eval_ && !availability_changed && still_available &&
      rng_.bernoulli(0.9)) {
    since_policy_eval_ = 0.0;
    return;
  }
  force_fresh_eval_ = false;
  std::array<Technology, radio::kTechnologyCount> available{};
  std::size_t n = 0;
  for (Technology t : radio::kAllTechnologies) {
    if (covering(coverage, t) != nullptr) available[n++] = t;
  }
  desired_ = select_technology(deployment_->carrier(),
                               std::span{available.data(), n}, traffic_, tz,
                               rng_);
  since_policy_eval_ = 0.0;
}

Km RadioSession::sector_handover_rate(radio::Carrier c) {
  switch (c) {
    case radio::Carrier::Verizon: return 0.55;
    case radio::Carrier::TMobile: return 0.45;
    case radio::Carrier::Att: return 0.35;
  }
  return 0.45;
}

namespace {

/// Log identifier of a (site, sector) pair, distinct from bare site ids.
std::uint32_t sector_id(std::uint32_t site, int sector) {
  return 0x8000'0000u | (site << 2) | static_cast<std::uint32_t>(sector);
}

/// Count one handover in the global registry. A handover whose interruption
/// eats the whole tick counts as a failure — the same "data plane stalled
/// for >= one scheduling period" criterion the throughput penalty uses.
void record_handover(const HandoverEvent& ho, Millis dt) {
  auto& reg = core::obs::MetricsRegistry::global();
  static const core::obs::MetricId attempts =
      reg.counter_id("ran.handover.attempts");
  static const core::obs::MetricId vertical =
      reg.counter_id("ran.handover.vertical");
  static const core::obs::MetricId failures =
      reg.counter_id("ran.handover.failures");
  static const core::obs::MetricsRegistry::HistogramHandle duration =
      reg.histogram("ran.handover.duration_ms");
  reg.add(attempts);
  if (is_vertical(ho.type)) reg.add(vertical);
  if (ho.duration >= dt) reg.add(failures);
  reg.observe(duration, ho.duration);
}

}  // namespace

RadioTick RadioSession::tick(const geo::DriveSample& s, Millis dt) {
  since_policy_eval_ += dt;

  // Re-evaluate the tier grant periodically or when the available set
  // changed (entering/leaving a deployment zone).
  const radio::Coverage coverage = deployment_->coverage(s.km, cursor_);
  const bool availability_changed =
      availability_mask(coverage) != last_available_;
  if (availability_changed || since_policy_eval_ >= kPolicyPeriod) {
    evaluate_policy(coverage, s.tz, availability_changed);
  }

  // Candidate serving cell for the desired tier; if the tier lost coverage
  // mid-grant, fall back through the tiers (LTE always covers).
  const CellSite* candidate = covering(coverage, desired_);
  if (candidate == nullptr) {
    evaluate_policy(coverage, s.tz, true);
    candidate = covering(coverage, desired_);
  }
  if (candidate == nullptr) {
    desired_ = Technology::Lte;
    candidate = covering(coverage, Technology::Lte);
  }
  if (candidate == nullptr && serving_ == nullptr) {
    // No coverage at all at this position — a deployment must always carry
    // an LTE floor (Deployment guarantees it); fail loudly, not with UB.
    throw std::logic_error{"RadioSession: no serving cell available"};
  }

  RadioTick out;
  // Every handover of the tick is built, drawn, counted and logged here;
  // `scale` shortens the sampled interruption of the lighter kinds.
  const Direction dir = traffic_ == TrafficProfile::BackloggedUplink
                            ? Direction::Uplink
                            : Direction::Downlink;
  const auto handover = [&](Technology from, Technology to,
                            std::uint32_t from_cell, std::uint32_t to_cell,
                            double scale) {
    HandoverEvent ho;
    ho.t = s.t;
    ho.from = from;
    ho.to = to;
    ho.from_cell = from_cell;
    ho.to_cell = to_cell;
    ho.type = classify_handover(from, to);
    ho.duration = scale * sample_handover_duration(deployment_->carrier(), dir,
                                                   is_vertical(ho.type), rng_);
    record_handover(ho, dt);
    out.handovers.push_back(ho);
    out.interruption = std::min<Millis>(out.interruption + ho.duration, dt);
  };

  if (serving_ == nullptr) {
    serving_ = candidate;
    channel_.attach(*serving_);
  } else if (candidate != nullptr && candidate->id != serving_->id) {
    // Same-tech reselection honours a hysteresis margin; tech changes and
    // loss of serving coverage switch unconditionally.
    const bool same_tech = candidate->tech == serving_->tech;
    const Km gain = std::abs(serving_->center_km - s.km) -
                    std::abs(candidate->center_km - s.km);
    const bool still_covered = serving_->covers(s.km);
    if (!same_tech || !still_covered || gain > kReselectionMarginKm) {
      handover(serving_->tech, candidate->tech, serving_->id, candidate->id,
               1.0);
      serving_ = candidate;
      channel_.attach(*serving_);
      sector_ = rng_.uniform_int(0, 2);
    }
  }

  // Intra-site sector handovers: Poisson in distance driven. Idle UEs
  // reselect far more lazily than traffic-loaded ones (the paper's passive
  // loggers log ~0.5 handovers/km while its loaded tests see 1-3/mile).
  {
    const Km moved = km_per_ms_from_mph(s.speed) * dt;
    const double idle_factor =
        traffic_ == TrafficProfile::IdlePing ? 0.15 : 1.0;
    const double p =
        1.0 - std::exp(-sector_handover_rate(deployment_->carrier()) *
                       idle_factor * moved);
    if (rng_.bernoulli(p)) {
      const int next = (sector_ + rng_.uniform_int(1, 2)) % 3;
      // Intra-site switches are the fastest handovers.
      handover(serving_->tech, serving_->tech, sector_id(serving_->id, sector_),
               sector_id(serving_->id, next), 0.7);
      sector_ = next;
    }
  }

  // EN-DC anchor management: NSA 5G rides on an LTE/LTE-A anchor whose
  // reselections are handovers too — XCAL counts them, which is part of why
  // the paper's per-mile handover counts exceed bare serving-cell changes.
  if (radio::is_5g(serving_->tech)) {
    const CellSite* anchor = covering(coverage, Technology::LteA);
    if (anchor == nullptr) anchor = covering(coverage, Technology::Lte);
    if (anchor != nullptr && anchor_ != nullptr &&
        anchor->id != anchor_->id) {
      // Anchor changes are brief (no user-plane path switch on the NR leg).
      handover(anchor_->tech, anchor->tech, anchor_->id, anchor->id, 0.5);
    }
    anchor_ = anchor;
  } else {
    anchor_ = nullptr;
  }

  out.kpis = channel_.sample(*serving_, s.km, s.speed, dt);
  out.tech = serving_->tech;
  out.cell_id = serving_->id;
  out.anchor_cell_id = anchor_ != nullptr ? anchor_->id : 0;

  // The interruption suppresses the data plane for part of the tick; the
  // surrounding RACH / path-switch / cwnd-restart costs multiply it (charged
  // at 3x, floored so a tick never fully vanishes).
  if (out.interruption > 0.0) {
    const double live =
        std::max(0.15, 1.0 - 3.0 * out.interruption / dt);
    out.kpis.capacity_dl *= live;
    out.kpis.capacity_ul *= live;
  }
  return out;
}

std::optional<StaticSession> StaticSession::try_create(
    const Deployment& deployment, Km city_km, Km search_radius_km, Rng rng) {
  // Prefer a mmWave site, else midband — the paper's static methodology.
  for (Technology tech : {Technology::NrMmWave, Technology::NrMid}) {
    const CellSite* best = nullptr;
    Km best_dist = search_radius_km;
    for (const CellSite& c : deployment.cells()) {
      if (c.tech != tech) continue;
      const Km d = std::abs(c.center_km - city_km);
      if (d <= best_dist) {
        best = &c;
        best_dist = d;
      }
    }
    if (best != nullptr) {
      return StaticSession{deployment, *best, std::move(rng)};
    }
  }
  return std::nullopt;
}

StaticSession::StaticSession(const Deployment& deployment, CellSite cell,
                             Rng rng)
    : cell_(cell), channel_(deployment.carrier(), rng.fork("static")) {
  channel_.attach(cell_);
}

RadioTick StaticSession::tick(Millis dt) {
  RadioTick out;
  out.kpis = channel_.sample_static_best(cell_, dt);
  out.tech = cell_.tech;
  out.cell_id = cell_.id;
  return out;
}

}  // namespace wheels::ran
