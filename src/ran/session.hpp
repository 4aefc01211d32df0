// RadioSession: the UE-side connection manager.
//
// Ties together deployment (what is available at the van's position), the
// service policy (what tier the operator grants for the current traffic),
// the channel model (what the granted link delivers) and the handover engine
// (what happens at cell boundaries). One RadioSession corresponds to one
// phone on one carrier.
#pragma once

#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "geo/drive_trace.hpp"
#include "radio/channel.hpp"
#include "radio/deployment.hpp"
#include "ran/handover.hpp"
#include "ran/service_policy.hpp"

namespace wheels::ran {

/// Everything the modem reports for one tick.
struct RadioTick {
  radio::LinkKpis kpis;
  radio::Technology tech = radio::Technology::Lte;
  std::uint32_t cell_id = 0;
  /// EN-DC: while on NSA 5G the UE keeps an LTE/LTE-A anchor; 0 when the
  /// serving technology is 4G (the serving cell *is* the anchor).
  std::uint32_t anchor_cell_id = 0;
  std::vector<HandoverEvent> handovers;
  /// Data-plane interruption within this tick caused by handovers, capped at
  /// the tick length.
  Millis interruption = 0.0;
};

class RadioSession {
 public:
  RadioSession(const radio::Deployment& deployment, TrafficProfile traffic,
               Rng rng);

  void set_traffic(TrafficProfile traffic);
  TrafficProfile traffic() const { return traffic_; }

  /// Advance by one drive sample (dt = trace sample period).
  RadioTick tick(const geo::DriveSample& s, Millis dt);

  radio::Technology current_tech() const { return desired_; }
  radio::Carrier carrier() const { return deployment_->carrier(); }

 private:
  void evaluate_policy(const radio::Coverage& coverage, geo::Timezone tz,
                       bool availability_changed);

  const radio::Deployment* deployment_;
  radio::CoverageCursor cursor_;
  TrafficProfile traffic_;
  radio::ChannelModel channel_;
  Rng rng_;
  const radio::CellSite* serving_ = nullptr;
  const radio::CellSite* anchor_ = nullptr;  // EN-DC LTE anchor while on NR
  int sector_ = 0;                           // serving sector (3 per site)
  radio::Technology desired_ = radio::Technology::Lte;
  Millis since_policy_eval_ = 1e18;  // force evaluation on first tick
  bool force_fresh_eval_ = true;     // bypass grant stickiness once
  /// Bit t set when technology t had a covering cell at the last policy
  /// evaluation.
  unsigned last_available_ = 0;
  /// Hysteresis margin for same-technology reselection (km).
  static constexpr Km kReselectionMarginKm = 0.08;
  /// Intra-site sector handover rate (events per km driven). Sites have 3
  /// sectors; crossing a sector boundary is a handover without a new site —
  /// a large share of the paper's per-mile handover counts.
  static Km sector_handover_rate(radio::Carrier c);
  /// Policy re-evaluation period (ms).
  static constexpr Millis kPolicyPeriod = 8'000.0;
};

/// A static test session: standing in front of the best high-speed 5G base
/// station found near a city centre. The paper omitted static tests for
/// (operator, city) pairs without mmWave or midband coverage — try_create
/// mirrors that by returning nullopt.
class StaticSession {
 public:
  static std::optional<StaticSession> try_create(
      const radio::Deployment& deployment, Km city_km, Km search_radius_km,
      Rng rng);

  RadioTick tick(Millis dt);
  radio::Technology tech() const { return cell_.tech; }

 private:
  StaticSession(const radio::Deployment& deployment, radio::CellSite cell,
                Rng rng);

  radio::CellSite cell_;
  radio::ChannelModel channel_;
};

}  // namespace wheels::ran
