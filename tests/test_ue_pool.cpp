// Tests of the massive-UE core (ran/ue_pool.hpp): the standalone pool's
// invariants and thread-count determinism, and the whole-campaign gate — a
// 10k-UE campaign must produce a byte-identical ConsolidatedDb at
// WHEELS_THREADS 1 and 4, serialized through every CSV writer (the same
// byte-for-byte contract the six-handset campaign already obeys).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "geo/route.hpp"
#include "geo/scaled_route.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"
#include "radio/deployment.hpp"
#include "ran/ue_pool.hpp"

namespace wheels {
namespace {

using measure::ConsolidatedDb;

constexpr double kScale = 0.02;

struct PoolFixture {
  geo::Route route = geo::Route::cross_country();
  geo::ScaledRoute view{route, kScale};
  radio::Deployment deployment;
  ran::UePool pool;
  core::ThreadPool inline_pool{1};  // runs every UE block inline

  PoolFixture(std::uint32_t count, ran::SchedulerKind kind,
              std::uint64_t seed = 7)
      : deployment(view, radio::Carrier::TMobile, Rng{seed}.fork("dep")),
        pool(deployment, view.total_physical_km(), make_config(count, kind),
             Rng{seed}.fork("pool")) {}

  static ran::UePoolConfig make_config(std::uint32_t count,
                                       ran::SchedulerKind kind) {
    ran::UePoolConfig cfg;
    cfg.count = count;
    cfg.scheduler = kind;
    return cfg;
  }
};

TEST(UePoolTest, AllocationsRespectDemandAndCellLoadInvariants) {
  PoolFixture f{2000, ran::SchedulerKind::ProportionalFair};
  for (int t = 0; t < 200; ++t) {
    f.pool.tick(t * 500, f.inline_pool);
  }
  const auto demand = f.pool.demand_mbps();
  const auto alloc = f.pool.alloc_mbps();
  for (std::size_t i = 0; i < demand.size(); ++i) {
    EXPECT_GE(alloc[i], 0.0);
    EXPECT_LE(alloc[i], demand[i] + 1e-9) << "UE " << i;
  }
  const auto load = f.pool.cell_load();
  ASSERT_FALSE(load.empty());
  for (const auto& c : load) {
    EXPECT_GT(c.ticks, 0);
    EXPECT_GE(c.avg_attached, c.avg_active);
    EXPECT_GE(c.avg_demand, c.avg_allocated - 1e-9);
    EXPECT_GE(c.utilization, 0.0);
    EXPECT_LE(c.utilization, 1.0);
    EXPECT_GT(c.fairness, 0.0);
    EXPECT_LE(c.fairness, 1.0);
    // Conservation per cell, on the run averages: allocations cannot exceed
    // the capacity offered.
    EXPECT_LE(c.avg_allocated, c.avg_capacity + 1e-9);
  }
  // A moving population crossing real cell boundaries hands over.
  EXPECT_GT(f.pool.totals().handovers, 0);
  EXPECT_GT(f.pool.totals().delivered_bytes, 0.0);
  EXPECT_GT(f.pool.totals().active_ue_ticks, 0);
}

TEST(UePoolTest, PopulationShareIsAValidFraction) {
  PoolFixture f{5000, ran::SchedulerKind::ProportionalFair};
  for (int t = 0; t < 50; ++t) f.pool.tick(t * 500, f.inline_pool);
  bool saw_contention = false;
  for (const auto& cell : f.deployment.cells()) {
    const double share = f.pool.population_share(cell.id);
    EXPECT_GT(share, 0.0);
    EXPECT_LE(share, 1.0);
    if (share < 1.0) saw_contention = true;
  }
  // 5k UEs on one carrier must load at least one cell.
  EXPECT_TRUE(saw_contention);
  // Unknown ids (e.g. NR sector ids of the measurement phone) are uncontended.
  EXPECT_EQ(f.pool.population_share(0xdeadbeef), 1.0);
}

TEST(UePoolTest, DeterministicAcrossThreadCounts) {
  PoolFixture serial{3000, ran::SchedulerKind::ProportionalFair};
  PoolFixture threaded{3000, ran::SchedulerKind::ProportionalFair};
  core::ThreadPool workers{4};
  for (int t = 0; t < 100; ++t) {
    serial.pool.tick(t * 500, serial.inline_pool);
    threaded.pool.tick(t * 500, workers);
  }
  const auto exact = [](std::span<const double> a, std::span<const double> b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "slot " << i;
    }
  };
  exact(serial.pool.demand_mbps(), threaded.pool.demand_mbps());
  exact(serial.pool.alloc_mbps(), threaded.pool.alloc_mbps());
  exact(serial.pool.avg_mbps(), threaded.pool.avg_mbps());
  EXPECT_EQ(serial.pool.totals().delivered_bytes,
            threaded.pool.totals().delivered_bytes);
  EXPECT_EQ(serial.pool.totals().handovers, threaded.pool.totals().handovers);
  EXPECT_EQ(serial.pool.totals().rrc_promotions,
            threaded.pool.totals().rrc_promotions);
  const auto a = serial.pool.cell_load();
  const auto b = threaded.pool.cell_load();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell_id, b[i].cell_id);
    EXPECT_EQ(a[i].avg_allocated, b[i].avg_allocated);
    EXPECT_EQ(a[i].fairness, b[i].fairness);
  }
}

TEST(UePoolTest, RrAndPfProduceDifferentAllocations) {
  PoolFixture pf{4000, ran::SchedulerKind::ProportionalFair};
  PoolFixture rr{4000, ran::SchedulerKind::RoundRobin};
  for (int t = 0; t < 100; ++t) {
    pf.pool.tick(t * 500, pf.inline_pool);
    rr.pool.tick(t * 500, rr.inline_pool);
  }
  // Same population, same demand streams — only the discipline differs, and
  // it must show up in the allocations of at least one loaded cell.
  const auto a = pf.pool.alloc_mbps();
  const auto b = rr.pool.alloc_mbps();
  ASSERT_EQ(a.size(), b.size());
  bool differ = false;
  for (std::size_t i = 0; i < a.size() && !differ; ++i) {
    differ = a[i] != b[i];
  }
  EXPECT_TRUE(differ);
}

/// Serialize the whole database through every CSV writer — the same bytes a
/// bundle directory would contain, so "byte-identical db" is literal.
std::string serialize(const ConsolidatedDb& db) {
  std::ostringstream os;
  measure::write_tests_csv(os, db);
  measure::write_kpis_csv(os, db);
  measure::write_rtts_csv(os, db);
  measure::write_handovers_csv(os, db);
  measure::write_app_runs_csv(os, db);
  measure::write_cell_load_csv(os, db);
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    measure::write_coverage_csv(os, db.passive[ci].segments, c, true);
    measure::write_coverage_csv(os, db.active_coverage[ci], c, false);
  }
  measure::write_summary_csv(os, db);
  measure::write_cells_csv(os, db);
  return os.str();
}

campaign::CampaignConfig population_config(int threads) {
  campaign::CampaignConfig cfg;
  cfg.scale = kScale;
  cfg.seed = 20220808;
  cfg.population = 10000;
  cfg.threads = threads;
  return cfg;
}

TEST(UePoolTest, CampaignWithPopulationDeterministicAcrossThreads) {
  auto& registry = core::obs::MetricsRegistry::global();
  registry.reset();
  const ConsolidatedDb serial =
      campaign::DriveCampaign{population_config(1)}.run();
  const std::string serial_metrics = registry.snapshot().to_json(false);
  registry.reset();
  const ConsolidatedDb threaded =
      campaign::DriveCampaign{population_config(4)}.run();
  const std::string threaded_metrics = registry.snapshot().to_json(false);
  registry.reset();
  // The population produced cell-load rows and they pass validation.
  EXPECT_FALSE(serial.cell_load.empty());
  EXPECT_TRUE(measure::validate(serial).empty());
  EXPECT_EQ(serialize(serial), serialize(threaded));
  // The deterministic counters, pool.* included, match as well: every UE
  // phase is one batch at every width.
  EXPECT_NE(serial_metrics.find("pool.batches"), std::string::npos);
  EXPECT_EQ(serial_metrics, threaded_metrics);
}

TEST(UePoolTest, PopulationChangesTheManifestDigestOnlyWhenPresent) {
  campaign::CampaignConfig base;
  base.scale = kScale;
  const std::string no_pop_digest =
      campaign::make_manifest(base).config_digest;
  campaign::CampaignConfig with_pop = base;
  with_pop.population = 10000;
  EXPECT_NE(campaign::make_manifest(with_pop).config_digest, no_pop_digest);
  // scheduler is inert without a population (it schedules nobody)...
  campaign::CampaignConfig rr_no_pop = base;
  rr_no_pop.scheduler = ran::SchedulerKind::RoundRobin;
  EXPECT_EQ(campaign::make_manifest(rr_no_pop).config_digest, no_pop_digest);
  // ...and part of the digest once one exists.
  campaign::CampaignConfig rr_pop = with_pop;
  rr_pop.scheduler = ran::SchedulerKind::RoundRobin;
  EXPECT_NE(campaign::make_manifest(rr_pop).config_digest,
            campaign::make_manifest(with_pop).config_digest);
}

}  // namespace
}  // namespace wheels
