// Cell deployment along the driven route.
//
// Each carrier deploys each technology in "zones": contiguous stretches whose
// length is technology-specific (mmWave pockets ~1 km, low-band blankets tens
// of km). A zone is populated with probability taken from the carrier's
// deployment profile — a function of (technology, timezone, region type) that
// encodes the strategies the paper infers in §4.2: Verizon prioritises urban
// mmWave and is stronger in the east, T-Mobile blankets highways with n41
// midband (strongest in the Pacific zone), AT&T has little high-speed 5G but
// the best LTE-A footprint and weak 5G in the Mountain/Central zones.
// Populated zones carry cells at a technology-specific spacing, giving the
// handover engine real cell boundaries to cross.
//
// All positions are *physical* km (see geo::ScaledRoute), which keeps
// handover-per-mile and coverage-per-mile statistics scale-invariant.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "geo/scaled_route.hpp"
#include "radio/technology.hpp"

namespace wheels::radio {

struct CellSite {
  std::uint32_t id = 0;
  Carrier carrier = Carrier::Verizon;
  Technology tech = Technology::Lte;
  Km center_km = 0.0;
  Km radius_km = 0.0;

  bool covers(Km km) const {
    return km >= center_km - radius_km && km <= center_km + radius_km;
  }
};

/// Per-technology deployment geometry.
struct TechGeometry {
  Km zone_length_km = 10.0;   // granularity of deploy/skip decisions
  Km cell_spacing_km = 4.0;   // inter-site distance inside a deployed zone
  double radius_factor = 0.62;  // radius = spacing * factor (overlap for HO)
};

TechGeometry tech_geometry(Technology tech);

/// Probability that `carrier` has `tech` deployed in a zone with the given
/// timezone and region. LTE is the universal floor (probability 1).
double availability_probability(Carrier carrier, Technology tech,
                                geo::Timezone tz, geo::RegionType region);

/// What-if multipliers on the 2022 deployment probabilities (capped at
/// 0.95). Used by the future-buildout experiment (ext_future_deployment) to
/// ask how the paper's findings change as carriers densify.
struct DeploymentOverrides {
  double low_multiplier = 1.0;
  double mid_multiplier = 1.0;
  double mmwave_multiplier = 1.0;

  double factor(Technology tech) const {
    switch (tech) {
      case Technology::NrLow: return low_multiplier;
      case Technology::NrMid: return mid_multiplier;
      case Technology::NrMmWave: return mmwave_multiplier;
      default: return 1.0;
    }
  }
};

/// The covering cell of each technology at one km, indexed by
/// static_cast<std::size_t>(Technology); null where none covers.
using Coverage = std::array<const CellSite*, kTechnologyCount>;

/// Where a run of Deployment::coverage calls left off, for one Deployment:
/// per technology, the index of the first cell whose centre is not below
/// `last_km` (what lower_bound would return). A lookup at a km not below
/// `last_km` walks these forward; one below it searches again.
struct CoverageCursor {
  std::array<std::size_t, kTechnologyCount> next{};
  Km last_km = -std::numeric_limits<Km>::infinity();
};

class Deployment {
 public:
  /// Generate the carrier's cells along the (scaled) route, deterministically
  /// from `rng`. `overrides` scales the 5G deployment probabilities.
  Deployment(const geo::ScaledRoute& route, Carrier carrier, Rng rng,
             DeploymentOverrides overrides = {});

  Carrier carrier() const { return carrier_; }
  const std::vector<CellSite>& cells() const { return all_; }

  /// The covering cell of `tech` whose centre is nearest to `km`, if any.
  const CellSite* covering_cell(Technology tech, Km km) const;

  /// covering_cell(tech, km) for every technology at once, found from
  /// `cursor` instead of a binary search per technology: a vehicle's km
  /// grows by metres per call, so each index moves by a cell or none.
  Coverage coverage(Km km, CoverageCursor& cursor) const;

  /// True if any cell of `tech` covers `km`.
  bool has(Technology tech, Km km) const {
    return covering_cell(tech, km) != nullptr;
  }

 private:
  Carrier carrier_;
  std::array<std::vector<CellSite>, kTechnologyCount> by_tech_;  // sorted
  std::vector<CellSite> all_;
};

}  // namespace wheels::radio
