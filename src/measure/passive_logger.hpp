// The handover-logger phones (§3).
//
// Three additional unrooted phones ran a custom app sending 38-byte ICMP
// pings every 200 ms (to keep the radio awake) while logging cell ID,
// technology and GPS. Because operators do not upgrade idle UEs, these logs
// paint the pessimistic coverage picture of Figs. 1b-1d — which is exactly
// what this logger reproduces by running its RadioSession under the
// IdlePing traffic profile.
#pragma once

#include "geo/drive_trace.hpp"
#include "measure/records.hpp"
#include "ran/session.hpp"

namespace wheels::measure {

class PassiveLogger {
 public:
  PassiveLogger(const radio::Deployment& deployment, double route_scale,
                Rng rng);

  /// Feed one 500 ms drive sample (2-3 pings worth of keep-alive traffic).
  void tick(const geo::DriveSample& s);

  /// Close the current segment and return the log.
  PassiveLog finish() &&;

 private:
  ran::RadioSession session_;
  double scale_;
  PassiveLog log_;
  std::int64_t ticks_ = 0;
  /// The cell id inserted last into log_.cells; a repeat skips the insert.
  /// Cell ids start at 1, so 0 means none yet.
  std::uint32_t last_cell_id_ = 0;
  radio::Technology open_tech_ = radio::Technology::Lte;
  Km open_start_map_km_ = -1.0;
  Km last_map_km_ = 0.0;
};

/// Shared helper: fold a stream of (map_km, tech) observations into merged
/// coverage segments. Used by both the passive logger and the active (XCAL)
/// coverage extraction.
class CoverageTracker {
 public:
  void observe(Km map_km, radio::Technology tech);
  std::vector<CoverageSegment> finish() &&;

 private:
  std::vector<CoverageSegment> segments_;
  radio::Technology open_tech_ = radio::Technology::Lte;
  Km open_start_ = -1.0;
  Km last_km_ = 0.0;
};

}  // namespace wheels::measure
