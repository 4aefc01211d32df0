#include "radio/deployment.hpp"

#include <algorithm>
#include <cmath>

namespace wheels::radio {

using geo::RegionType;
using geo::Timezone;

TechGeometry tech_geometry(Technology tech) {
  switch (tech) {
    case Technology::Lte: return {1e9, 3.0, 0.70};  // one zone: everywhere
    case Technology::LteA: return {30.0, 2.2, 0.65};
    case Technology::NrLow: return {18.0, 3.0, 0.65};
    case Technology::NrMid: return {7.0, 1.6, 0.62};
    case Technology::NrMmWave: return {1.0, 0.30, 0.62};
  }
  return {};
}

namespace {

/// Region-dependent base probabilities, encoding §4.2's deployment
/// strategies. Index: [urban, suburban, highway].
struct RegionProbs {
  double urban, suburban, highway;
  double at(RegionType r) const {
    switch (r) {
      case RegionType::Urban: return urban;
      case RegionType::Suburban: return suburban;
      case RegionType::Highway: return highway;
    }
    return 0.0;
  }
};

struct TzMults {
  double pacific, mountain, central, eastern;
  double at(Timezone tz) const {
    switch (tz) {
      case Timezone::Pacific: return pacific;
      case Timezone::Mountain: return mountain;
      case Timezone::Central: return central;
      case Timezone::Eastern: return eastern;
    }
    return 1.0;
  }
};

double profile(Carrier c, Technology t, Timezone tz, RegionType r) {
  RegionProbs p{0.0, 0.0, 0.0};
  TzMults m{1.0, 1.0, 1.0, 1.0};
  switch (c) {
    case Carrier::Verizon:
      switch (t) {
        case Technology::Lte: return 1.0;
        case Technology::LteA: p = {0.80, 0.75, 0.72}; break;
        case Technology::NrLow:
          p = {0.24, 0.15, 0.11};
          m = {0.9, 0.7, 1.2, 1.3};
          break;
        case Technology::NrMid:
          p = {0.18, 0.11, 0.13};
          m = {0.9, 0.6, 1.2, 1.4};
          break;
        case Technology::NrMmWave:
          // Downtown pockets; strongest mmWave of the three carriers.
          p = {0.28, 0.02, 0.002};
          m = {1.0, 0.7, 1.1, 1.3};
          break;
      }
      break;
    case Carrier::TMobile:
      switch (t) {
        case Technology::Lte: return 1.0;
        case Technology::LteA: p = {0.70, 0.66, 0.62}; break;
        case Technology::NrLow:
          // n71 blankets most of the country.
          p = {0.78, 0.72, 0.64};
          m = {1.1, 0.9, 1.0, 1.0};
          break;
        case Technology::NrMid:
          // n41 along highways too; much stronger in the Pacific zone.
          p = {0.55, 0.42, 0.40};
          m = {1.5, 0.8, 1.0, 1.0};
          break;
        case Technology::NrMmWave:
          p = {0.08, 0.005, 0.0005};
          break;
      }
      break;
    case Carrier::Att:
      switch (t) {
        case Technology::Lte: return 1.0;
        case Technology::LteA:
          // AT&T's differentiator (Fig. 2a): best LTE-A footprint.
          p = {0.90, 0.88, 0.85};
          break;
        case Technology::NrLow:
          p = {0.50, 0.38, 0.31};
          m = {1.5, 0.35, 0.6, 1.4};
          break;
        case Technology::NrMid:
          p = {0.10, 0.03, 0.02};
          m = {1.2, 0.3, 0.5, 1.2};
          break;
        case Technology::NrMmWave:
          p = {0.06, 0.003, 0.0003};
          m = {1.2, 0.3, 0.5, 1.2};
          break;
      }
      break;
  }
  return std::clamp(p.at(r) * m.at(tz), 0.0, 0.95);
}

/// Index of the first cell whose centre is not below `km`.
std::size_t first_not_below(const std::vector<CellSite>& cells, Km km) {
  return static_cast<std::size_t>(
      std::lower_bound(
          cells.begin(), cells.end(), km,
          [](const CellSite& c, Km k) { return c.center_km < k; }) -
      cells.begin());
}

/// The neighbour rule: of the two cells on each side of insertion point
/// `idx` (the first whose centre is not below `km`), the covering one whose
/// centre is nearest; on a tie the lower index wins. Radii never exceed a
/// couple of spacings, so two candidates on each side suffice.
const CellSite* nearest_covering(const std::vector<CellSite>& cells,
                                 std::size_t idx, Km km) {
  const CellSite* best = nullptr;
  Km best_dist = 1e18;
  const std::size_t lo = idx >= 2 ? idx - 2 : 0;
  const std::size_t hi = std::min(idx + 2, cells.size());
  for (std::size_t j = lo; j < hi; ++j) {
    const CellSite& c = cells[j];
    const Km d = std::abs(c.center_km - km);
    if (c.covers(km) && d < best_dist) {
      best = &c;
      best_dist = d;
    }
  }
  return best;
}

}  // namespace

double availability_probability(Carrier carrier, Technology tech,
                                geo::Timezone tz, geo::RegionType region) {
  return profile(carrier, tech, tz, region);
}

Deployment::Deployment(const geo::ScaledRoute& route, Carrier carrier, Rng rng,
                       DeploymentOverrides overrides)
    : carrier_(carrier) {
  std::uint32_t next_id = 1;
  const Km total = route.total_physical_km();

  for (Technology tech : kAllTechnologies) {
    auto& cells = by_tech_[static_cast<std::size_t>(tech)];
    Rng tech_rng = rng.fork(technology_name(tech));
    const TechGeometry g = tech_geometry(tech);
    const Km zone_len = std::min(g.zone_length_km, total);

    for (Km zone_start = 0.0; zone_start < total; zone_start += zone_len) {
      const Km zone_end = std::min(zone_start + zone_len, total);
      const geo::RoutePoint mid =
          route.at_physical((zone_start + zone_end) / 2.0);
      // 5G layers cap at 0.95 (gaps always exist); the 4G floor may stay
      // at probability 1 — LTE must blanket the route.
      const double cap = is_5g(tech) ? 0.95 : 1.0;
      const double p = std::clamp(
          availability_probability(carrier, tech, mid.tz, mid.region) *
              overrides.factor(tech),
          0.0, cap);
      if (!tech_rng.bernoulli(p)) continue;

      // Populate the zone with evenly spaced cells; always at least one.
      const int n = std::max(
          1, static_cast<int>(std::round((zone_end - zone_start) /
                                         g.cell_spacing_km)));
      const Km step = (zone_end - zone_start) / n;
      for (int i = 0; i < n; ++i) {
        CellSite cell;
        cell.id = next_id++;
        cell.carrier = carrier;
        cell.tech = tech;
        cell.center_km = zone_start + step * (i + 0.5);
        cell.radius_km = std::max(step, g.cell_spacing_km) * g.radius_factor;
        cells.push_back(cell);
      }
    }
    all_.insert(all_.end(), cells.begin(), cells.end());
  }
}

const CellSite* Deployment::covering_cell(Technology tech, Km km) const {
  const auto& cells = by_tech_[static_cast<std::size_t>(tech)];
  return nearest_covering(cells, first_not_below(cells, km), km);
}

Coverage Deployment::coverage(Km km, CoverageCursor& cursor) const {
  const bool backwards = km < cursor.last_km;
  cursor.last_km = km;
  Coverage out{};
  for (std::size_t t = 0; t < out.size(); ++t) {
    const auto& cells = by_tech_[t];
    std::size_t& next = cursor.next[t];
    if (backwards) {
      next = first_not_below(cells, km);
    } else {
      while (next < cells.size() && cells[next].center_km < km) ++next;
    }
    out[t] = nearest_covering(cells, next, km);
  }
  return out;
}

}  // namespace wheels::radio
