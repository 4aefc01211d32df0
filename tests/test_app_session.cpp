// The app-session executor: over one fixed, hand-built link trace each app
// test type yields exactly what its model yields when run directly, plus
// the bytes the session moved.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/gaming.hpp"
#include "apps/offload.hpp"
#include "apps/video.hpp"
#include "campaign/app_session.hpp"

namespace wheels::campaign {
namespace {

/// 60 s of link (120 ticks) that varies in capacity, RTT and technology,
/// with a handover burst in the middle.
const apps::LinkTrace& fixed_trace() {
  static const apps::LinkTrace trace = [] {
    apps::LinkTrace t(120);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i].cap_dl = 20.0 + 7.5 * static_cast<double>(i % 11);
      t[i].cap_ul = 4.0 + 1.25 * static_cast<double>(i % 7);
      t[i].rtt = 40.0 + 3.0 * static_cast<double>(i % 5);
      t[i].tech = i % 3 == 0 ? radio::Technology::NrMid
                             : radio::Technology::Lte;
    }
    for (std::size_t i = 50; i < 54; ++i) {
      t[i].handovers = 1;
      t[i].interruption = 120.0;
      t[i].cap_dl = 0.5;
    }
    return t;
  }();
  return trace;
}

measure::TestRecord app_test(measure::TestType type) {
  measure::TestRecord test;
  test.id = 42;
  test.type = type;
  test.carrier = radio::Carrier::TMobile;
  test.is_static = true;
  test.server = net::ServerKind::Edge;
  return test;
}

void expect_keyed_like(const AppSession& s, const measure::TestRecord& test,
                       measure::AppKind app) {
  EXPECT_EQ(s.run.test_id, test.id);
  EXPECT_EQ(s.run.app, app);
  EXPECT_EQ(s.run.carrier, test.carrier);
  EXPECT_EQ(s.run.is_static, test.is_static);
  EXPECT_EQ(s.run.server, test.server);
  EXPECT_EQ(s.run.high_speed_5g_fraction,
            apps::high_speed_5g_fraction(fixed_trace()));
  EXPECT_EQ(s.run.handovers, 4);
}

TEST(AppSession, OffloadMatchesTheModelAndCountsUploadedFrames) {
  struct Case {
    measure::TestType type;
    measure::AppKind app;
    apps::OffloadConfig config;
  };
  for (const Case& c :
       {Case{measure::TestType::ArApp, measure::AppKind::Ar,
             apps::ar_config()},
        Case{measure::TestType::CavApp, measure::AppKind::Cav,
             apps::cav_config()}}) {
    for (const bool compressed : {false, true}) {
      SCOPED_TRACE(testing::Message() << measure::app_kind_name(c.app)
                                      << " compressed=" << compressed);
      const measure::TestRecord test = app_test(c.type);
      const AppSession s = run_app_session(test, fixed_trace(), compressed);
      const apps::OffloadRunResult direct =
          apps::OffloadApp{c.config}.run(fixed_trace(), compressed);
      ASSERT_FALSE(direct.frames.empty());
      expect_keyed_like(s, test, c.app);
      EXPECT_EQ(s.run.compressed, compressed);
      EXPECT_EQ(s.run.median_e2e, direct.median_e2e);
      EXPECT_EQ(s.run.offload_fps, direct.offload_fps);
      EXPECT_EQ(s.run.map_percent, direct.map_percent);
      const double frame_kb =
          compressed ? c.config.compressed_kb : c.config.raw_kb;
      EXPECT_EQ(s.tx_bytes,
                static_cast<double>(direct.frames.size()) * frame_kb * 1024.0);
      EXPECT_EQ(s.rx_bytes, 0.0);
    }
  }
}

TEST(AppSession, VideoMatchesTheModelAndCountsStreamedBytes) {
  const measure::TestRecord test = app_test(measure::TestType::Video);
  const AppSession s = run_app_session(test, fixed_trace(), false);
  apps::VideoConfig vc;
  vc.run_duration = 60'000.0;
  const apps::VideoRunResult direct = apps::VideoApp{vc}.run(fixed_trace());
  expect_keyed_like(s, test, measure::AppKind::Video);
  EXPECT_EQ(s.run.qoe, direct.avg_qoe);
  EXPECT_EQ(s.run.rebuffer_fraction, direct.rebuffer_fraction);
  EXPECT_EQ(s.run.avg_bitrate, direct.avg_bitrate);
  EXPECT_GT(direct.avg_bitrate, 0.0);
  EXPECT_DOUBLE_EQ(s.rx_bytes, direct.avg_bitrate * 1e6 * 60.0 / 8.0);
  EXPECT_EQ(s.tx_bytes, 0.0);
}

TEST(AppSession, GamingMatchesTheModelAndCountsStreamedBytes) {
  const measure::TestRecord test = app_test(measure::TestType::Gaming);
  const AppSession s = run_app_session(test, fixed_trace(), true);
  apps::GamingConfig gc;
  gc.run_duration = 60'000.0;
  const apps::GamingRunResult direct = apps::GamingApp{gc}.run(fixed_trace());
  expect_keyed_like(s, test, measure::AppKind::Gaming);
  EXPECT_EQ(s.run.gaming_bitrate, direct.median_bitrate);
  EXPECT_EQ(s.run.gaming_latency, direct.median_latency);
  EXPECT_EQ(s.run.gaming_frame_drop, direct.median_frame_drop);
  EXPECT_EQ(s.run.gaming_max_frame_drop, direct.max_frame_drop);
  EXPECT_FALSE(s.run.compressed);
  EXPECT_GT(direct.median_bitrate, 0.0);
  EXPECT_DOUBLE_EQ(s.rx_bytes, direct.median_bitrate * 1e6 * 60.0 / 8.0);
  EXPECT_EQ(s.tx_bytes, 0.0);
}

TEST(AppSession, RejectsTestsThatRunNoApp) {
  for (const measure::TestType type :
       {measure::TestType::DownlinkBulk, measure::TestType::UplinkBulk,
        measure::TestType::Rtt}) {
    EXPECT_THROW(run_app_session(app_test(type), fixed_trace(), false),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace wheels::campaign
