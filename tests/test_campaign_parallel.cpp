// The determinism gate of the parallel execution layer: a campaign's
// ConsolidatedDb must be byte-identical for every thread count, and
// FleetRunner must return the same databases regardless of its own thread
// count or job submission order. Exact (==) comparison everywhere — the
// contract is "not a single byte", not "statistically close".
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fleet_runner.hpp"
#include "core/thread_pool.hpp"
#include "measure/records.hpp"

namespace wheels {
namespace {

using campaign::CampaignConfig;
using campaign::DriveCampaign;
using campaign::FleetRunner;
using measure::ConsolidatedDb;

#define EXPECT_FIELD_EQ(field)                                            \
  do {                                                                    \
    EXPECT_EQ(a[i].field, b[i].field) << "record " << i << " " #field;    \
  } while (0)

void expect_tests_eq(const std::vector<measure::TestRecord>& a,
                     const std::vector<measure::TestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(id);
    EXPECT_FIELD_EQ(type);
    EXPECT_FIELD_EQ(carrier);
    EXPECT_FIELD_EQ(is_static);
    EXPECT_FIELD_EQ(start);
    EXPECT_FIELD_EQ(end);
    EXPECT_FIELD_EQ(start_km);
    EXPECT_FIELD_EQ(end_km);
    EXPECT_FIELD_EQ(tz);
    EXPECT_FIELD_EQ(server);
    EXPECT_FIELD_EQ(direction);
    EXPECT_FIELD_EQ(cycle);
  }
}

void expect_kpis_eq(const std::vector<measure::KpiRecord>& a,
                    const std::vector<measure::KpiRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(test_id);
    EXPECT_FIELD_EQ(t);
    EXPECT_FIELD_EQ(carrier);
    EXPECT_FIELD_EQ(tech);
    EXPECT_FIELD_EQ(cell_id);
    EXPECT_FIELD_EQ(rsrp);
    EXPECT_FIELD_EQ(mcs);
    EXPECT_FIELD_EQ(bler);
    EXPECT_FIELD_EQ(ca);
    EXPECT_FIELD_EQ(throughput);
    EXPECT_FIELD_EQ(speed);
    EXPECT_FIELD_EQ(km);
    EXPECT_FIELD_EQ(map_km);
    EXPECT_FIELD_EQ(region);
    EXPECT_FIELD_EQ(handovers);
    EXPECT_FIELD_EQ(direction);
    EXPECT_FIELD_EQ(is_static);
  }
}

void expect_rtts_eq(const std::vector<measure::RttRecord>& a,
                    const std::vector<measure::RttRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(test_id);
    EXPECT_FIELD_EQ(t);
    EXPECT_FIELD_EQ(carrier);
    EXPECT_FIELD_EQ(tech);
    EXPECT_FIELD_EQ(rtt);
    EXPECT_FIELD_EQ(speed);
    EXPECT_FIELD_EQ(server);
    EXPECT_FIELD_EQ(is_static);
  }
}

void expect_handovers_eq(const std::vector<measure::HandoverRecord>& a,
                         const std::vector<measure::HandoverRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(test_id);
    EXPECT_FIELD_EQ(carrier);
    EXPECT_FIELD_EQ(direction);
    EXPECT_FIELD_EQ(event.t);
    EXPECT_FIELD_EQ(event.duration);
    EXPECT_FIELD_EQ(event.from);
    EXPECT_FIELD_EQ(event.to);
    EXPECT_FIELD_EQ(event.from_cell);
    EXPECT_FIELD_EQ(event.to_cell);
    EXPECT_FIELD_EQ(event.type);
  }
}

void expect_app_runs_eq(const std::vector<measure::AppRunRecord>& a,
                        const std::vector<measure::AppRunRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(test_id);
    EXPECT_FIELD_EQ(app);
    EXPECT_FIELD_EQ(carrier);
    EXPECT_FIELD_EQ(is_static);
    EXPECT_FIELD_EQ(server);
    EXPECT_FIELD_EQ(high_speed_5g_fraction);
    EXPECT_FIELD_EQ(handovers);
    EXPECT_FIELD_EQ(compressed);
    EXPECT_FIELD_EQ(median_e2e);
    EXPECT_FIELD_EQ(offload_fps);
    EXPECT_FIELD_EQ(map_percent);
    EXPECT_FIELD_EQ(qoe);
    EXPECT_FIELD_EQ(rebuffer_fraction);
    EXPECT_FIELD_EQ(avg_bitrate);
    EXPECT_FIELD_EQ(gaming_bitrate);
    EXPECT_FIELD_EQ(gaming_latency);
    EXPECT_FIELD_EQ(gaming_frame_drop);
    EXPECT_FIELD_EQ(gaming_max_frame_drop);
  }
}

void expect_link_ticks_eq(const std::vector<measure::LinkTickRecord>& a,
                          const std::vector<measure::LinkTickRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(test_id);
    EXPECT_FIELD_EQ(t);
    EXPECT_FIELD_EQ(carrier);
    EXPECT_FIELD_EQ(tech);
    EXPECT_FIELD_EQ(cap_dl);
    EXPECT_FIELD_EQ(cap_ul);
    EXPECT_FIELD_EQ(rtt);
    EXPECT_FIELD_EQ(interruption);
    EXPECT_FIELD_EQ(handovers);
  }
}

void expect_segments_eq(const std::vector<measure::CoverageSegment>& a,
                        const std::vector<measure::CoverageSegment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FIELD_EQ(map_km_start);
    EXPECT_FIELD_EQ(map_km_end);
    EXPECT_FIELD_EQ(tech);
  }
}

#undef EXPECT_FIELD_EQ

void expect_db_eq(const ConsolidatedDb& x, const ConsolidatedDb& y) {
  expect_tests_eq(x.tests, y.tests);
  expect_kpis_eq(x.kpis, y.kpis);
  expect_rtts_eq(x.rtts, y.rtts);
  expect_handovers_eq(x.handovers, y.handovers);
  expect_app_runs_eq(x.app_runs, y.app_runs);
  expect_link_ticks_eq(x.link_ticks, y.link_ticks);
  for (std::size_t ci = 0; ci < radio::kCarrierCount; ++ci) {
    EXPECT_EQ(x.passive[ci].carrier, y.passive[ci].carrier);
    EXPECT_EQ(x.passive[ci].handovers, y.passive[ci].handovers);
    EXPECT_EQ(x.passive[ci].pings, y.passive[ci].pings);
    EXPECT_EQ(x.passive[ci].cells, y.passive[ci].cells);
    expect_segments_eq(x.passive[ci].segments, y.passive[ci].segments);
    expect_segments_eq(x.active_coverage[ci], y.active_coverage[ci]);
    EXPECT_EQ(x.active_cells[ci], y.active_cells[ci]);
    EXPECT_EQ(x.experiment_runtime[ci], y.experiment_runtime[ci]);
  }
  EXPECT_EQ(x.rx_bytes, y.rx_bytes);
  EXPECT_EQ(x.tx_bytes, y.tx_bytes);
  EXPECT_EQ(x.driven_km, y.driven_km);
}

CampaignConfig small_config(double scale) {
  CampaignConfig cfg;
  cfg.seed = 777;
  cfg.scale = scale;
  return cfg;
}

TEST(CampaignParallel, DbIdenticalSerialVsFourThreadsTinyScale) {
  CampaignConfig serial = small_config(0.02);
  serial.threads = 1;
  CampaignConfig parallel = serial;
  parallel.threads = 4;

  const ConsolidatedDb a = DriveCampaign{serial}.run();
  const ConsolidatedDb b = DriveCampaign{parallel}.run();
  ASSERT_FALSE(a.kpis.empty());
  ASSERT_FALSE(a.app_runs.empty());
  expect_db_eq(a, b);
}

TEST(CampaignParallel, DbIdenticalSerialVsFourThreadsSmallScale) {
  // A bigger slice so at least one city (and its static battery) is hit.
  CampaignConfig serial = small_config(0.06);
  CampaignConfig parallel = serial;
  serial.threads = 1;
  parallel.threads = 4;

  const ConsolidatedDb a = DriveCampaign{serial}.run();
  const ConsolidatedDb b = DriveCampaign{parallel}.run();
  ASSERT_FALSE(a.tests.empty());
  expect_db_eq(a, b);
}

TEST(CampaignParallel, OversubscribedThreadCountAlsoIdentical) {
  CampaignConfig serial = small_config(0.02);
  serial.threads = 1;
  CampaignConfig wide = serial;
  wide.threads = 16;  // far more than kCarrierCount; must clamp, not skew

  expect_db_eq(DriveCampaign{serial}.run(), DriveCampaign{wide}.run());
}

TEST(FleetRunnerTest, ResultsMatchSerialLoopAndAnyThreadCount) {
  std::vector<CampaignConfig> configs;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    CampaignConfig cfg = small_config(0.02);
    cfg.seed = seed;
    cfg.run_apps = seed % 2 == 0;
    configs.push_back(cfg);
  }

  // Ground truth: plain serial loop.
  std::vector<ConsolidatedDb> expected;
  for (const CampaignConfig& cfg : configs) {
    expected.push_back(DriveCampaign{cfg}.run());
  }

  for (const int threads : {1, 3}) {
    const std::vector<ConsolidatedDb> got =
        FleetRunner{threads}.run_all(configs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_db_eq(got[i], expected[i]);
    }
  }
}

TEST(FleetRunnerTest, SubmissionOrderPinsResultOrder) {
  std::vector<CampaignConfig> configs;
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    CampaignConfig cfg = small_config(0.02);
    cfg.seed = seed;
    cfg.run_apps = false;
    configs.push_back(cfg);
  }
  std::vector<CampaignConfig> reversed{configs.rbegin(), configs.rend()};

  const FleetRunner runner{2};
  const auto fwd = runner.run_all(configs);
  const auto rev = runner.run_all(reversed);
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    expect_db_eq(fwd[i], rev[rev.size() - 1 - i]);
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  core::ThreadPool pool{4};
  EXPECT_EQ(pool.threads(), 4);
  std::vector<int> hits(64, 0);
  for (int round = 0; round < 5; ++round) {
    // distinct slots: no race
    pool.run_indexed(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  }
  for (const int h : hits) EXPECT_EQ(h, 5);
}

TEST(ThreadPoolTest, OneThreadRunsInlineInOrder) {
  core::ThreadPool pool{1};
  EXPECT_EQ(pool.threads(), 1);
  std::vector<std::size_t> order;
  pool.run_indexed(8, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ResolveThreadsFloorsAtOne) {
  EXPECT_EQ(core::resolve_threads(5), 5);
  EXPECT_GE(core::resolve_threads(0), 1);
}

}  // namespace
}  // namespace wheels
