// Integration tests: full campaign → ConsolidatedDb invariants and
// paper-shape assertions.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/coverage.hpp"
#include "analysis/queries.hpp"
#include "analysis/stats.hpp"
#include "campaign/campaign.hpp"

namespace wheels::campaign {
namespace {

const measure::ConsolidatedDb& small_db() {
  static const measure::ConsolidatedDb db = [] {
    CampaignConfig cfg;
    cfg.scale = 0.04;
    cfg.seed = 99;
    return DriveCampaign{cfg}.run();
  }();
  return db;
}

TEST(Campaign, ProducesAllRecordKinds) {
  const auto& db = small_db();
  EXPECT_GT(db.tests.size(), 100u);
  EXPECT_GT(db.kpis.size(), 5'000u);
  EXPECT_GT(db.rtts.size(), 3'000u);
  EXPECT_GT(db.handovers.size(), 50u);
  EXPECT_GT(db.app_runs.size(), 100u);
  EXPECT_GT(db.driven_km, 200.0);
  EXPECT_GT(db.rx_bytes, 1e9);
  EXPECT_GT(db.tx_bytes, 1e8);
  EXPECT_GT(db.rx_bytes, db.tx_bytes);
}

TEST(Campaign, Deterministic) {
  CampaignConfig cfg;
  cfg.scale = 0.015;
  cfg.seed = 123;
  const auto a = DriveCampaign{cfg}.run();
  const auto b = DriveCampaign{cfg}.run();
  ASSERT_EQ(a.kpis.size(), b.kpis.size());
  ASSERT_EQ(a.tests.size(), b.tests.size());
  ASSERT_EQ(a.rtts.size(), b.rtts.size());
  for (std::size_t i = 0; i < a.kpis.size(); i += 131) {
    EXPECT_DOUBLE_EQ(a.kpis[i].throughput, b.kpis[i].throughput);
    EXPECT_DOUBLE_EQ(a.kpis[i].rsrp, b.kpis[i].rsrp);
    EXPECT_EQ(a.kpis[i].cell_id, b.kpis[i].cell_id);
  }
  for (std::size_t i = 0; i < a.rtts.size(); i += 97) {
    EXPECT_DOUBLE_EQ(a.rtts[i].rtt, b.rtts[i].rtt);
  }
}

TEST(Campaign, SeedChangesData) {
  CampaignConfig cfg;
  cfg.scale = 0.015;
  cfg.seed = 123;
  const auto a = DriveCampaign{cfg}.run();
  cfg.seed = 124;
  const auto b = DriveCampaign{cfg}.run();
  int diff = 0;
  const std::size_t n = std::min(a.kpis.size(), b.kpis.size());
  for (std::size_t i = 0; i < n; i += 101) {
    diff += a.kpis[i].throughput != b.kpis[i].throughput;
  }
  EXPECT_GT(diff, 0);
}

TEST(Campaign, ReferentialIntegrity) {
  const auto& db = small_db();
  std::set<std::uint32_t> test_ids;
  for (const auto& t : db.tests) {
    EXPECT_TRUE(test_ids.insert(t.id).second) << "duplicate test id";
  }
  for (const auto& k : db.kpis) EXPECT_TRUE(test_ids.count(k.test_id));
  for (const auto& r : db.rtts) EXPECT_TRUE(test_ids.count(r.test_id));
  for (const auto& h : db.handovers) EXPECT_TRUE(test_ids.count(h.test_id));
  for (const auto& a : db.app_runs) EXPECT_TRUE(test_ids.count(a.test_id));
}

TEST(Campaign, TestRecordsWellFormed) {
  const auto& db = small_db();
  for (const auto& t : db.tests) {
    EXPECT_GE(t.end, t.start);
    EXPECT_GE(t.end_km, t.start_km);
    if (!t.is_static) {
      EXPECT_GE(t.cycle, 0);
    }
  }
}

TEST(Campaign, LockstepConcurrency) {
  // Per cycle and test type, the three carriers' tests share the same start
  // time (same van, same schedule) — this is what makes Fig. 6 pairing valid.
  const auto& db = small_db();
  std::map<std::pair<int, int>, std::set<SimMillis>> starts;
  std::map<std::pair<int, int>, int> counts;
  for (const auto& t : db.tests) {
    if (t.is_static) continue;
    const auto key = std::make_pair(t.cycle, static_cast<int>(t.type));
    starts[key].insert(t.start);
    counts[key]++;
  }
  int complete_groups = 0;
  for (const auto& [key, set] : starts) {
    if (counts[key] == 3) {
      { EXPECT_EQ(set.size(), 1u) << "cycle " << key.first; }
      ++complete_groups;
    }
  }
  EXPECT_GT(complete_groups, 20);
}

TEST(Campaign, BulkKpiThroughputJoined) {
  // The LogSynchronizer path must fill real throughput into the KPI rows.
  const auto& db = small_db();
  int nonzero = 0, total = 0;
  for (const auto& k : db.kpis) {
    if (k.is_static) continue;
    ++total;
    nonzero += k.throughput > 0.0;
  }
  ASSERT_GT(total, 1000);
  EXPECT_GT(static_cast<double>(nonzero) / total, 0.7);
}

TEST(Campaign, KpiFieldsInRange) {
  const auto& db = small_db();
  for (const auto& k : db.kpis) {
    EXPECT_GE(k.mcs, 0);
    EXPECT_LE(k.mcs, 28);
    EXPECT_GE(k.bler, 0.0);
    EXPECT_LE(k.bler, 1.0);
    EXPECT_GE(k.ca, 1);
    EXPECT_LE(k.ca, 8);
    EXPECT_GT(k.rsrp, -165.0);
    EXPECT_LT(k.rsrp, -30.0);
    EXPECT_GE(k.throughput, 0.0);
    EXPECT_LE(k.throughput, radio::kDeviceCapDl * 1.01);
    EXPECT_GE(k.speed, 0.0);
  }
}

TEST(Campaign, RttRecordsInRange) {
  const auto& db = small_db();
  for (const auto& r : db.rtts) {
    EXPECT_GT(r.rtt, 1.0);
    EXPECT_LE(r.rtt, 3'000.0);
  }
}

TEST(Campaign, StaticTestsExistAndAreHighSpeed5G) {
  const auto& db = small_db();
  int static_kpis = 0;
  for (const auto& k : db.kpis) {
    if (!k.is_static) continue;
    ++static_kpis;
    EXPECT_DOUBLE_EQ(k.speed, 0.0);
    EXPECT_TRUE(radio::is_high_speed_5g(k.tech))
        << radio::technology_name(k.tech);
  }
  EXPECT_GT(static_kpis, 100);
}

TEST(Campaign, StaticFasterThanDriving) {
  const auto& db = small_db();
  analysis::KpiFilter s, d;
  s.is_static = true;
  s.direction = radio::Direction::Downlink;
  d.is_static = false;
  d.direction = radio::Direction::Downlink;
  const analysis::Cdf sc{analysis::throughput_samples(db, s)};
  const analysis::Cdf dc{analysis::throughput_samples(db, d)};
  ASSERT_FALSE(sc.empty());
  ASSERT_FALSE(dc.empty());
  EXPECT_GT(sc.quantile(0.5), 5.0 * dc.quantile(0.5));
}

TEST(Campaign, TMobileLeads5GCoverage) {
  const auto& db = small_db();
  auto share = [&](radio::Carrier c) {
    return analysis::five_g_share(analysis::coverage_from_kpis(
        db, [&](const measure::KpiRecord& k) { return k.carrier == c; }));
  };
  const double t = share(radio::Carrier::TMobile);
  EXPECT_GT(t, share(radio::Carrier::Verizon));
  EXPECT_GT(t, share(radio::Carrier::Att));
  EXPECT_GT(t, 0.5);
}

TEST(Campaign, PassiveViewPessimisticVsActive) {
  const auto& db = small_db();
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    const double passive = analysis::five_g_share(
        analysis::coverage_from_segments(db.passive[ci].segments));
    const double active = analysis::five_g_share(
        analysis::coverage_from_segments(db.active_coverage[ci]));
    EXPECT_LT(passive, active) << radio::carrier_name(c);
  }
  // AT&T passive: no 5G at all (Fig. 1d).
  const double att_passive = analysis::five_g_share(
      analysis::coverage_from_segments(
          db.passive[measure::carrier_index(radio::Carrier::Att)].segments));
  EXPECT_LT(att_passive, 0.01);
}

TEST(Campaign, HighSpeed5GShareHigherForDownlink) {
  const auto& db = small_db();
  for (radio::Carrier c : radio::kAllCarriers) {
    const auto dl = analysis::coverage_from_kpis(
        db, [&](const measure::KpiRecord& k) {
          return k.carrier == c && k.direction == radio::Direction::Downlink;
        });
    const auto ul = analysis::coverage_from_kpis(
        db, [&](const measure::KpiRecord& k) {
          return k.carrier == c && k.direction == radio::Direction::Uplink;
        });
    EXPECT_GT(analysis::high_speed_share(dl), analysis::high_speed_share(ul))
        << radio::carrier_name(c);
  }
}

TEST(Campaign, VerizonEdgeRttBelowCloud) {
  const auto& db = small_db();
  analysis::RttFilter edge, cloud;
  edge.carrier = cloud.carrier = radio::Carrier::Verizon;
  edge.is_static = cloud.is_static = false;
  edge.server = net::ServerKind::Edge;
  cloud.server = net::ServerKind::Cloud;
  const analysis::Cdf e{analysis::rtt_samples(db, edge)};
  const analysis::Cdf c{analysis::rtt_samples(db, cloud)};
  ASSERT_GT(e.size(), 50u);
  ASSERT_GT(c.size(), 50u);
  EXPECT_LT(e.quantile(0.5), c.quantile(0.5));
}

TEST(Campaign, OnlyVerizonUsesEdgeServers) {
  const auto& db = small_db();
  for (const auto& t : db.tests) {
    if (t.server == net::ServerKind::Edge) {
      EXPECT_EQ(t.carrier, radio::Carrier::Verizon);
    }
  }
}

TEST(Campaign, AppRunsCoverAllKindsAndCompressionArms) {
  const auto& db = small_db();
  std::set<std::pair<int, bool>> seen;
  int video = 0, gaming = 0;
  for (const auto& r : db.app_runs) {
    if (r.app == measure::AppKind::Ar || r.app == measure::AppKind::Cav) {
      seen.insert({static_cast<int>(r.app), r.compressed});
    }
    video += r.app == measure::AppKind::Video;
    gaming += r.app == measure::AppKind::Gaming;
  }
  EXPECT_EQ(seen.size(), 4u);  // AR/CAV × with/without compression
  EXPECT_GT(video, 3);
  EXPECT_GT(gaming, 3);
}

TEST(Campaign, AppRunFieldsSane) {
  const auto& db = small_db();
  for (const auto& r : db.app_runs) {
    EXPECT_GE(r.high_speed_5g_fraction, 0.0);
    EXPECT_LE(r.high_speed_5g_fraction, 1.0);
    EXPECT_GE(r.handovers, 0);
    if (r.app == measure::AppKind::Ar || r.app == measure::AppKind::Cav) {
      EXPECT_GT(r.median_e2e, 0.0);
      EXPECT_GT(r.offload_fps, 0.0);
    }
    if (r.app == measure::AppKind::Gaming) {
      EXPECT_GE(r.gaming_frame_drop, 0.0);
      EXPECT_LE(r.gaming_max_frame_drop, 1.0);
      EXPECT_GT(r.gaming_bitrate, 0.0);
    }
    if (r.app == measure::AppKind::Video) {
      EXPECT_GE(r.rebuffer_fraction, 0.0);
      EXPECT_LE(r.rebuffer_fraction, 1.0);
    }
  }
}

TEST(Campaign, CavSlowerThanArAndCompressionHelps) {
  const auto& db = small_db();
  auto med_e2e = [&](measure::AppKind kind, bool comp) {
    std::vector<double> xs;
    for (const auto* r :
         analysis::app_runs(db, kind, std::nullopt, false, comp)) {
      xs.push_back(r->median_e2e);
    }
    return analysis::median_of(xs);
  };
  EXPECT_GT(med_e2e(measure::AppKind::Cav, false),
            med_e2e(measure::AppKind::Ar, false));
  EXPECT_GT(med_e2e(measure::AppKind::Ar, false),
            med_e2e(measure::AppKind::Ar, true));
  EXPECT_GT(med_e2e(measure::AppKind::Cav, false),
            med_e2e(measure::AppKind::Cav, true));
}

TEST(Campaign, ExperimentRuntimeAccounted) {
  const auto& db = small_db();
  for (radio::Carrier c : radio::kAllCarriers) {
    EXPECT_GT(db.experiment_runtime[measure::carrier_index(c)], 60'000.0);
  }
}

TEST(Campaign, DisablingAppsAndStaticWorks) {
  CampaignConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 7;
  cfg.run_apps = false;
  cfg.run_static = false;
  const auto db = DriveCampaign{cfg}.run();
  EXPECT_TRUE(db.app_runs.empty());
  for (const auto& t : db.tests) EXPECT_FALSE(t.is_static);
  EXPECT_GT(db.kpis.size(), 100u);
}

TEST(Campaign, IdleGapsReduceTestDensity) {
  CampaignConfig a;
  a.scale = 0.01;
  a.seed = 7;
  a.run_apps = false;
  a.run_static = false;
  CampaignConfig b = a;
  b.idle_ticks_between_cycles = 300;
  const auto da = DriveCampaign{a}.run();
  const auto dbx = DriveCampaign{b}.run();
  EXPECT_LT(dbx.tests.size(), da.tests.size());
}

TEST(Campaign, ConfigFromEnvDefaults) {
  const CampaignConfig cfg = config_from_env(0.33);
  // Environment may override, but the default must hold when unset.
  if (std::getenv("WHEELS_SCALE") == nullptr) {
    EXPECT_DOUBLE_EQ(cfg.scale, 0.33);
  }
}

}  // namespace
}  // namespace wheels::campaign
