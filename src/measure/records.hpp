// Typed records of the consolidated measurement database.
//
// The paper's pipeline joins XCAL `.drm` PHY logs with app-layer logs into
// "a consolidated database, which includes both the XCAL and the app layer
// data" (§3). ConsolidatedDb is that database: every analysis and every
// bench binary reads from it and nothing else.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "apps/link_trace.hpp"
#include "core/sim_time.hpp"
#include "core/units.hpp"
#include "geo/route.hpp"
#include "geo/speed_profile.hpp"
#include "geo/timezone.hpp"
#include "net/server.hpp"
#include "radio/channel.hpp"
#include "radio/technology.hpp"
#include "ran/handover.hpp"

namespace wheels::measure {

enum class TestType {
  DownlinkBulk,
  UplinkBulk,
  Rtt,
  ArApp,
  CavApp,
  Video,
  Gaming,
};

std::string_view test_type_name(TestType t);

enum class AppKind { Ar, Cav, Video, Gaming };

std::string_view app_kind_name(AppKind a);

/// The app a test of `type` runs; nullopt for bulk transfers and ping tests.
std::optional<AppKind> app_kind_of(TestType type);

/// One test run (bulk transfer, ping test or app session).
struct TestRecord {
  std::uint32_t id = 0;
  TestType type = TestType::DownlinkBulk;
  radio::Carrier carrier = radio::Carrier::Verizon;
  bool is_static = false;
  SimMillis start = 0;
  SimMillis end = 0;
  Km start_km = 0.0;
  Km end_km = 0.0;
  geo::Timezone tz = geo::Timezone::Pacific;
  net::ServerKind server = net::ServerKind::Cloud;
  radio::Direction direction = radio::Direction::Downlink;
  /// Round-robin cycle index; tests of the same cycle ran concurrently on
  /// the three carrier phones (used for the operator-diversity analysis).
  int cycle = -1;
};

/// One 500 ms cross-layer row: XCAL PHY KPIs joined with the app-layer
/// throughput of the same interval.
struct KpiRecord {
  std::uint32_t test_id = 0;
  SimMillis t = 0;
  radio::Carrier carrier = radio::Carrier::Verizon;
  radio::Technology tech = radio::Technology::Lte;
  std::uint32_t cell_id = 0;
  Dbm rsrp = -120.0;
  int mcs = 0;
  double bler = 0.0;
  int ca = 1;
  Mbps throughput = 0.0;
  MilesPerHour speed = 0.0;
  Km km = 0.0;      // physical km driven
  Km map_km = 0.0;  // position on the full-route map
  geo::Timezone tz = geo::Timezone::Pacific;
  geo::RegionType region = geo::RegionType::Highway;
  int handovers = 0;
  net::ServerKind server = net::ServerKind::Cloud;
  radio::Direction direction = radio::Direction::Downlink;
  bool is_static = false;
};

/// One ICMP echo observation.
struct RttRecord {
  std::uint32_t test_id = 0;
  SimMillis t = 0;
  radio::Carrier carrier = radio::Carrier::Verizon;
  radio::Technology tech = radio::Technology::Lte;
  Millis rtt = 0.0;
  MilesPerHour speed = 0.0;
  geo::Timezone tz = geo::Timezone::Pacific;
  net::ServerKind server = net::ServerKind::Cloud;
  bool is_static = false;
};

struct HandoverRecord {
  std::uint32_t test_id = 0;
  radio::Carrier carrier = radio::Carrier::Verizon;
  radio::Direction direction = radio::Direction::Downlink;
  ran::HandoverEvent event;
};

/// One app session's QoE metrics (only the fields for `app` are meaningful).
struct AppRunRecord {
  std::uint32_t test_id = 0;
  AppKind app = AppKind::Ar;
  radio::Carrier carrier = radio::Carrier::Verizon;
  bool is_static = false;
  net::ServerKind server = net::ServerKind::Cloud;
  double high_speed_5g_fraction = 0.0;
  int handovers = 0;
  // AR / CAV
  bool compressed = false;
  Millis median_e2e = 0.0;
  double offload_fps = 0.0;
  double map_percent = 0.0;
  // 360° video
  double qoe = 0.0;
  double rebuffer_fraction = 0.0;
  Mbps avg_bitrate = 0.0;
  // Cloud gaming
  Mbps gaming_bitrate = 0.0;
  Millis gaming_latency = 0.0;
  double gaming_frame_drop = 0.0;
  double gaming_max_frame_drop = 0.0;
};

/// One 500 ms link-state sample recorded alongside an app session: the
/// exact apps::LinkTick the video/gaming/offload model consumed, plus its
/// key (owning test, tick time, carrier). Present only when the campaign ran
/// app sessions — bundles recorded before this table existed simply lack
/// it, and replay falls back to the statistical per-carrier timeline (with
/// a warning). The export subsystem (src/export/) turns these rows into
/// emulator schedules, and ReplayCampaign replays app sessions from them
/// exactly.
struct LinkTickRecord : apps::LinkTick {
  std::uint32_t test_id = 0;
  SimMillis t = 0;
  radio::Carrier carrier = radio::Carrier::Verizon;
};

/// A stretch of the route (map km) served by one technology — the unit of
/// the Fig. 1 coverage maps and all coverage-by-miles statistics.
struct CoverageSegment {
  Km map_km_start = 0.0;
  Km map_km_end = 0.0;
  radio::Technology tech = radio::Technology::Lte;

  Km length() const { return map_km_end - map_km_start; }
};

/// Output of one passive handover-logger phone (8 days of 200 ms pings).
struct PassiveLog {
  radio::Carrier carrier = radio::Carrier::Verizon;
  std::vector<CoverageSegment> segments;
  std::int64_t handovers = 0;
  std::int64_t pings = 0;
  std::set<std::uint32_t> cells;
};

/// Whole-run load/fairness aggregate of one cell hosting the simulated UE
/// population (ran::UePool). Present only when the campaign ran with
/// WHEELS_UES > 0 — the six-handset paper campaign has no population and
/// writes no cell_load table, keeping seed bundles byte-identical.
struct CellLoadRecord {
  radio::Carrier carrier = radio::Carrier::Verizon;
  std::uint32_t cell_id = 0;
  radio::Technology tech = radio::Technology::Lte;
  /// Ticks during which at least one UE was attached to the cell.
  std::int64_t ticks = 0;
  double avg_attached = 0.0;  // mean attached UEs over those ticks
  double avg_active = 0.0;    // mean UEs with positive demand
  Mbps avg_demand = 0.0;      // mean summed offered demand
  Mbps avg_allocated = 0.0;   // mean summed scheduler allocation
  Mbps avg_capacity = 0.0;    // mean cell capacity offered
  double utilization = 0.0;   // avg_allocated / avg_capacity, in [0, 1]
  double fairness = 0.0;      // mean per-tick Jain index, in (0, 1]
};

struct ConsolidatedDb {
  std::vector<TestRecord> tests;
  std::vector<KpiRecord> kpis;
  std::vector<RttRecord> rtts;
  std::vector<HandoverRecord> handovers;
  std::vector<AppRunRecord> app_runs;
  /// Per-tick link state of every app session (empty unless apps ran; see
  /// LinkTickRecord).
  std::vector<LinkTickRecord> link_ticks;
  /// Per-cell population load (empty unless the campaign simulated a UE
  /// population; see CellLoadRecord).
  std::vector<CellLoadRecord> cell_load;
  std::array<PassiveLog, radio::kCarrierCount> passive;
  /// Coverage observed by XCAL during active tests, per carrier.
  std::array<std::vector<CoverageSegment>, radio::kCarrierCount>
      active_coverage;
  /// Unique cells connected during active tests, per carrier.
  std::array<std::set<std::uint32_t>, radio::kCarrierCount> active_cells;
  /// Total application-layer bytes moved (Table 1's data usage).
  double rx_bytes = 0.0;
  double tx_bytes = 0.0;
  /// Cumulative test runtime per carrier (Table 1).
  std::array<Millis, radio::kCarrierCount> experiment_runtime{};
  /// Physical km driven.
  Km driven_km = 0.0;

  const TestRecord* find_test(std::uint32_t id) const;
};

constexpr std::size_t carrier_index(radio::Carrier c) {
  return static_cast<std::size_t>(c);
}

}  // namespace wheels::measure
