#include "measure/passive_logger.hpp"

namespace wheels::measure {

void CoverageTracker::observe(Km map_km, radio::Technology tech) {
  if (open_start_ < 0.0) {
    open_start_ = map_km;
    open_tech_ = tech;
  } else if (tech != open_tech_) {
    if (map_km > open_start_) {
      segments_.push_back({open_start_, map_km, open_tech_});
    }
    open_start_ = map_km;
    open_tech_ = tech;
  }
  last_km_ = map_km;
}

std::vector<CoverageSegment> CoverageTracker::finish() && {
  if (open_start_ >= 0.0 && last_km_ > open_start_) {
    segments_.push_back({open_start_, last_km_, open_tech_});
  }
  return std::move(segments_);
}

PassiveLogger::PassiveLogger(const radio::Deployment& deployment,
                             double route_scale, Rng rng)
    : session_(deployment, ran::TrafficProfile::IdlePing, std::move(rng)),
      scale_(route_scale) {
  log_.carrier = deployment.carrier();
}

void PassiveLogger::tick(const geo::DriveSample& s) {
  const ran::RadioTick tick = session_.tick(s, 500.0);
  const Km map_km = s.km / scale_;

  log_.handovers += static_cast<std::int64_t>(tick.handovers.size());
  log_.pings += (ticks_++ % 2 == 0) ? 2 : 3;  // 2.5 pings per 500 ms
  if (tick.cell_id != last_cell_id_) {
    log_.cells.insert(tick.cell_id);
    last_cell_id_ = tick.cell_id;
  }

  if (open_start_map_km_ < 0.0) {
    open_start_map_km_ = map_km;
    open_tech_ = tick.tech;
  } else if (tick.tech != open_tech_) {
    if (map_km > open_start_map_km_) {
      log_.segments.push_back({open_start_map_km_, map_km, open_tech_});
    }
    open_start_map_km_ = map_km;
    open_tech_ = tick.tech;
  }
  last_map_km_ = map_km;
}

PassiveLog PassiveLogger::finish() && {
  if (open_start_map_km_ >= 0.0 && last_map_km_ > open_start_map_km_) {
    log_.segments.push_back({open_start_map_km_, last_map_km_, open_tech_});
  }
  return std::move(log_);
}

}  // namespace wheels::measure
