#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "ingest/ingest.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"
#include "replay/trace_channel.hpp"

namespace wheels::replay {
namespace {

namespace fs = std::filesystem;

campaign::CampaignConfig small_config() {
  campaign::CampaignConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 77;
  return cfg;
}

const measure::ConsolidatedDb& recorded_db() {
  static const measure::ConsolidatedDb db =
      campaign::DriveCampaign{small_config()}.run();
  return db;
}

/// A bundle directory for recorded_db(), written once per test binary run.
/// Suffixed with the pid: under `ctest -j`, concurrent test *processes* each
/// materialize their own copy instead of racing remove_all against readers.
const std::string& bundle_dir() {
  static const std::string dir = [] {
    const std::string d = "/tmp/wheels-replay-test-bundle-" +
                          std::to_string(::getpid());
    fs::remove_all(d);
    (void)measure::write_dataset(recorded_db(), d,
                                 campaign::make_manifest(small_config()));
    return d;
  }();
  return dir;
}

const ReplayBundle& ingested() {
  static const ReplayBundle bundle = read_dataset(bundle_dir());
  return bundle;
}

/// Full CSV serialization of a database — the byte-identity yardstick.
std::string db_to_string(const measure::ConsolidatedDb& db) {
  std::stringstream ss;
  measure::write_tests_csv(ss, db);
  measure::write_kpis_csv(ss, db);
  measure::write_rtts_csv(ss, db);
  measure::write_handovers_csv(ss, db);
  measure::write_app_runs_csv(ss, db);
  measure::write_summary_csv(ss, db);
  measure::write_cells_csv(ss, db);
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    measure::write_coverage_csv(ss, db.passive[ci].segments, c, true);
    measure::write_coverage_csv(ss, db.active_coverage[ci], c, false);
  }
  return ss.str();
}

std::string file_text(const fs::path& p) {
  std::ifstream is{p};
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// --- ingest ---------------------------------------------------------------

TEST(ReplayIngest, ReassemblesTheFullDatabase) {
  const measure::ConsolidatedDb& rec = recorded_db();
  const measure::ConsolidatedDb& db = ingested().db;
  EXPECT_EQ(db_to_string(db), db_to_string(rec));
  EXPECT_EQ(ingested().manifest.seed, small_config().seed);
  EXPECT_EQ(ingested().manifest.scale, small_config().scale);
}

TEST(ReplayIngest, RoundTripIsByteIdentical) {
  const std::string out = "/tmp/wheels-replay-test-reexport";
  fs::remove_all(out);
  (void)measure::write_dataset(ingested().db, out, ingested().manifest);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(bundle_dir())) {
    const fs::path name = entry.path().filename();
    EXPECT_EQ(file_text(out + "/" + name.string()), file_text(entry.path()))
        << name;
    ++files;
  }
  EXPECT_EQ(files, 15u);  // incl. link_ticks.csv: the campaign ran apps
  fs::remove_all(out);
}

TEST(ReplayIngest, MissingFileNamesTheFile) {
  const std::string dir = "/tmp/wheels-replay-test-missing";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(bundle_dir(), dir, fs::copy_options::recursive |
                                  fs::copy_options::overwrite_existing);
  fs::remove(dir + "/rtts.csv");
  try {
    (void)read_dataset(dir);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("rtts.csv"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(ReplayIngest, ParseErrorNamesTheBundlePath) {
  // In a fleet run many bundles ingest back to back; a parse error must say
  // which bundle broke, not just which table.
  const std::string dir = "/tmp/wheels-replay-test-badrow";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(bundle_dir(), dir, fs::copy_options::recursive |
                                  fs::copy_options::overwrite_existing);
  {
    std::ofstream os{dir + "/rtts.csv", std::ios::app};
    os << "garbage,row\n";
  }
  try {
    (void)read_dataset(dir);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir + "/rtts.csv"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(ReplayIngest, ValidationErrorNamesTheBundleDirectory) {
  const std::string dir = "/tmp/wheels-replay-test-badfk";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(bundle_dir(), dir, fs::copy_options::recursive |
                                  fs::copy_options::overwrite_existing);
  // Re-export the bundle with one KPI pointed at a nonexistent test: every
  // table still parses, but cross-table validation must fail and say which
  // bundle directory is inconsistent.
  measure::ConsolidatedDb db = ingested().db;
  ASSERT_FALSE(db.kpis.empty());
  db.kpis[0].test_id = 999999;
  {
    std::ofstream os{dir + "/kpis.csv"};
    measure::write_kpis_csv(os, db);
  }
  try {
    (void)read_dataset(dir);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("unknown test"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

TEST(ReplayIngest, DigestMismatchRejected) {
  EXPECT_THROW((void)read_dataset(bundle_dir(), "deadbeefdeadbeef"),
               std::runtime_error);
  EXPECT_NO_THROW(
      (void)read_dataset(bundle_dir(), ingested().manifest.config_digest));
}

// --- validate -------------------------------------------------------------

TEST(ReplayValidate, AcceptsARecordedDatabase) {
  EXPECT_TRUE(measure::validate(recorded_db()).empty());
}

TEST(ReplayValidate, RejectsDanglingForeignKey) {
  measure::ConsolidatedDb db = recorded_db();
  ASSERT_FALSE(db.kpis.empty());
  db.kpis[0].test_id = 999999;
  const auto violations = measure::validate(db);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("unknown test"), std::string::npos)
      << violations[0];
}

TEST(ReplayValidate, RejectsNonFiniteAndNegativeFields) {
  measure::ConsolidatedDb db = recorded_db();
  ASSERT_FALSE(db.rtts.empty());
  db.rtts[0].rtt = -5.0;
  EXPECT_FALSE(measure::validate(db).empty());
  db = recorded_db();
  db.driven_km = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(measure::validate(db).empty());
}

/// The first recorded test of `type`.
const measure::TestRecord& first_test_of(const measure::ConsolidatedDb& db,
                                         measure::TestType type) {
  for (const auto& t : db.tests) {
    if (t.type == type) return t;
  }
  throw std::runtime_error{"recording has no test of the requested type"};
}

/// Point `row` at `test`, agreeing with it on every field validate
/// cross-checks, so that only a row-kind rule can object.
template <typename Row>
void move_row_to(Row& row, const measure::TestRecord& test) {
  row.test_id = test.id;
  row.carrier = test.carrier;
  if constexpr (requires { row.is_static; }) row.is_static = test.is_static;
  if constexpr (requires { row.server; }) row.server = test.server;
  if constexpr (requires { row.t; }) row.t = test.start;
}

TEST(ReplayValidate, RejectsKpiRowUnderAPingTest) {
  measure::ConsolidatedDb db = recorded_db();
  const measure::TestRecord& ping =
      first_test_of(db, measure::TestType::Rtt);
  ASSERT_FALSE(db.kpis.empty());
  move_row_to(db.kpis[0], ping);
  EXPECT_EQ(measure::validate(db),
            std::vector<std::string>{"kpis[0]: test " +
                                     std::to_string(ping.id) +
                                     " (rtt) is not a bulk test"});
}

TEST(ReplayValidate, RejectsRttRowUnderABulkTest) {
  measure::ConsolidatedDb db = recorded_db();
  const measure::TestRecord& bulk =
      first_test_of(db, measure::TestType::UplinkBulk);
  ASSERT_FALSE(db.rtts.empty());
  move_row_to(db.rtts[0], bulk);
  EXPECT_EQ(measure::validate(db),
            std::vector<std::string>{"rtts[0]: test " +
                                     std::to_string(bulk.id) +
                                     " (uplink-bulk) is not a ping test"});
}

TEST(ReplayValidate, RejectsLinkTickUnderABulkTest) {
  measure::ConsolidatedDb db = recorded_db();
  const measure::TestRecord& bulk =
      first_test_of(db, measure::TestType::DownlinkBulk);
  ASSERT_FALSE(db.link_ticks.empty());
  move_row_to(db.link_ticks[0], bulk);
  EXPECT_EQ(measure::validate(db),
            std::vector<std::string>{
                "link_ticks[0]: test " + std::to_string(bulk.id) +
                " (downlink-bulk) is not an app test"});
}

TEST(ReplayValidate, RejectsASecondAppRunForOneTest) {
  measure::ConsolidatedDb db = recorded_db();
  ASSERT_FALSE(db.app_runs.empty());
  db.app_runs.push_back(db.app_runs.front());
  EXPECT_EQ(measure::validate(db),
            std::vector<std::string>{
                "app_runs[" + std::to_string(db.app_runs.size() - 1) +
                "]: second app run of test " +
                std::to_string(db.app_runs.front().test_id)});
}

TEST(ReplayValidate, RejectsOverlappingCoverage) {
  measure::ConsolidatedDb db = recorded_db();
  measure::CoverageSegment s;
  s.map_km_start = 0.0;
  s.map_km_end = 1.0e9;
  s.tech = radio::Technology::Lte;
  db.active_coverage[0].push_back(s);
  EXPECT_FALSE(measure::validate(db).empty());
}

// --- TraceChannel ---------------------------------------------------------

std::vector<TraceSample> two_samples() {
  TraceSample a;
  a.t = 1000;
  a.cap_dl = 10.0;
  a.cap_ul = 2.0;
  a.rtt = 40.0;
  a.tech = radio::Technology::Lte;
  TraceSample b = a;
  b.t = 1500;
  b.cap_dl = 20.0;
  b.cap_ul = 4.0;
  b.rtt = 60.0;
  b.tech = radio::Technology::NrMid;
  return {a, b};
}

TEST(TraceChannel, HoldKeepsTheLastSample) {
  const TraceChannel ch{two_samples(), {}, HoldPolicy::Hold};
  EXPECT_EQ(ch.at(999).cap_dl, 10.0);   // before start: first sample
  EXPECT_EQ(ch.at(1000).cap_dl, 10.0);
  EXPECT_EQ(ch.at(1250).cap_dl, 10.0);  // held, not interpolated
  EXPECT_EQ(ch.at(1500).cap_dl, 20.0);
  EXPECT_EQ(ch.at(9999).cap_dl, 20.0);  // after end: last sample
}

TEST(TraceChannel, InterpolateLerpsContinuousFields) {
  const TraceChannel ch{two_samples(), {}, HoldPolicy::Interpolate};
  const TraceSample mid = ch.at(1250);
  EXPECT_DOUBLE_EQ(mid.cap_dl, 15.0);
  EXPECT_DOUBLE_EQ(mid.cap_ul, 3.0);
  EXPECT_DOUBLE_EQ(mid.rtt, 50.0);
  // Discrete fields hold instead of blending.
  EXPECT_EQ(mid.tech, radio::Technology::Lte);
}

TEST(TraceChannel, EventsInWindowCountsAndCaps) {
  ran::HandoverEvent h1;
  h1.t = 1200;
  h1.duration = 80.0;
  ran::HandoverEvent h2;
  h2.t = 1400;
  h2.duration = 900.0;  // longer than a tick
  const TraceChannel ch{two_samples(), {h1, h2}, HoldPolicy::Hold};
  const TraceEvents in = ch.events_in(1000, 500.0);
  EXPECT_EQ(in.handovers, 2);
  EXPECT_EQ(in.interruption, 500.0);  // capped at the window
  const TraceEvents none = ch.events_in(2000, 500.0);
  EXPECT_EQ(none.handovers, 0);
  EXPECT_EQ(none.interruption, 0.0);
}

// --- ReplayCampaign -------------------------------------------------------

TEST(ReplayCampaign_, DeterministicAcrossThreadCounts) {
  ReplayConfig one;
  one.threads = 1;
  ReplayConfig four;
  four.threads = 4;
  const measure::ConsolidatedDb a = ReplayCampaign{ingested(), one}.run();
  const measure::ConsolidatedDb b = ReplayCampaign{ingested(), four}.run();
  EXPECT_EQ(db_to_string(a), db_to_string(b));
}

using RowKey = std::tuple<std::uint32_t, SimMillis, radio::Carrier>;

/// (test_id, t, carrier) of every row of `table`, in table order.
template <typename Record, typename Time>
std::vector<RowKey> row_keys(const std::vector<Record>& table, Time time) {
  std::vector<RowKey> keys;
  keys.reserve(table.size());
  for (const Record& r : table) {
    keys.emplace_back(r.test_id, time(r), r.carrier);
  }
  return keys;
}

void expect_same_keys(const std::vector<RowKey>& replayed,
                      const std::vector<RowKey>& recorded,
                      const std::string& table) {
  ASSERT_EQ(replayed.size(), recorded.size()) << table;
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    ASSERT_EQ(replayed[i], recorded[i]) << table << " row " << i;
  }
}

void expect_recorded_row_order(const measure::ConsolidatedDb& replayed,
                               const measure::ConsolidatedDb& recorded) {
  const auto t = [](const auto& r) { return r.t; };
  const auto event_t = [](const measure::HandoverRecord& h) {
    return h.event.t;
  };
  // App runs carry no timestamp of their own.
  const auto no_t = [](const measure::AppRunRecord&) { return SimMillis{0}; };
  expect_same_keys(row_keys(replayed.kpis, t), row_keys(recorded.kpis, t),
                   "kpis");
  expect_same_keys(row_keys(replayed.rtts, t), row_keys(recorded.rtts, t),
                   "rtts");
  expect_same_keys(row_keys(replayed.handovers, event_t),
                   row_keys(recorded.handovers, event_t), "handovers");
  expect_same_keys(row_keys(replayed.app_runs, no_t),
                   row_keys(recorded.app_runs, no_t), "app_runs");
  expect_same_keys(row_keys(replayed.link_ticks, t),
                   row_keys(recorded.link_ticks, t), "link_ticks");
}

TEST(ReplayCampaign_, KeepsRecordedRowOrder) {
  const std::string fixtures = WHEELS_INGEST_FIXTURE_DIR;
  const ReplayBundle joined = ingest::ingest_join(
      "auto",
      {{radio::Carrier::Verizon, fixtures + "/minimal.csv"},
       {radio::Carrier::TMobile, fixtures + "/monroe.csv"},
       {radio::Carrier::Att, fixtures + "/errant.csv"}},
      ingest::IngestOptions{}, ingest::JoinOptions{});
  // The joined bundle is not grouped by test: its KPI rows alternate
  // between a DL and a UL test tick by tick.
  ASSERT_GE(joined.db.kpis.size(), 3u);
  ASSERT_NE(joined.db.kpis[0].test_id, joined.db.kpis[1].test_id);
  ASSERT_EQ(joined.db.kpis[0].test_id, joined.db.kpis[2].test_id);
  ASSERT_FALSE(ingested().db.link_ticks.empty());

  for (const ReplayBundle* bundle : {&joined, &ingested()}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads);
      ReplayConfig cfg;
      cfg.threads = threads;
      expect_recorded_row_order(ReplayCampaign{*bundle, cfg}.run(),
                                bundle->db);
    }
  }
}

TEST(ReplayCampaign_, UnchangedKnobsReproduceRecordedSummaries) {
  ReplayConfig cfg;
  cfg.threads = 1;
  const measure::ConsolidatedDb replayed =
      ReplayCampaign{ingested(), cfg}.run();

  // The radio timeline is recorded, so RTT replay is exact.
  ASSERT_EQ(replayed.rtts.size(), ingested().db.rtts.size());
  for (std::size_t i = 0; i < replayed.rtts.size(); ++i) {
    EXPECT_EQ(replayed.rtts[i].rtt, ingested().db.rtts[i].rtt);
  }
  // Bulk TCP re-runs live against the recorded capacity; its medians land
  // within tolerance of the recording.
  const ReportSummary rec = summarize(ingested().db);
  const ReportSummary rep = summarize(replayed);
  for (std::size_t ci = 0; ci < rec.carriers.size(); ++ci) {
    const auto& r = rec.carriers[ci];
    const auto& p = rep.carriers[ci];
    ASSERT_GT(r.dl_median_mbps, 0.0);
    EXPECT_NEAR(p.dl_median_mbps, r.dl_median_mbps, r.dl_median_mbps * 0.25);
    EXPECT_NEAR(p.ul_median_mbps, r.ul_median_mbps, r.ul_median_mbps * 0.25);
    // Structure is preserved exactly.
    EXPECT_EQ(p.tests, r.tests);
    EXPECT_EQ(p.kpi_samples, r.kpi_samples);
    EXPECT_EQ(p.rtt_samples, r.rtt_samples);
    EXPECT_EQ(p.app_runs, r.app_runs);
  }
  // Geometry-derived state carries over unchanged.
  EXPECT_EQ(replayed.driven_km, ingested().db.driven_km);
  for (std::size_t ci = 0; ci < radio::kCarrierCount; ++ci) {
    EXPECT_EQ(replayed.experiment_runtime[ci],
              ingested().db.experiment_runtime[ci]);
    EXPECT_EQ(replayed.active_cells[ci], ingested().db.active_cells[ci]);
  }
  // Handovers re-fire verbatim.
  EXPECT_EQ(replayed.handovers.size(), ingested().db.handovers.size());
}

TEST(ReplayCampaign_, EdgeServerSwapLowersRtts) {
  ReplayConfig base;
  base.threads = 1;
  ReplayConfig edge = base;
  edge.knobs.server = net::ServerKind::Edge;
  const measure::ConsolidatedDb a = ReplayCampaign{ingested(), base}.run();
  const measure::ConsolidatedDb b = ReplayCampaign{ingested(), edge}.run();
  const ReportSummary sa = summarize(a);
  const ReportSummary sb = summarize(b);
  for (std::size_t ci = 0; ci < sa.carriers.size(); ++ci) {
    ASSERT_GT(sa.carriers[ci].rtt_median_ms, 0.0);
    EXPECT_LT(sb.carriers[ci].rtt_median_ms, sa.carriers[ci].rtt_median_ms);
  }
  for (const auto& t : b.tests) {
    EXPECT_EQ(t.server, net::ServerKind::Edge);
  }
}

TEST(ReplayCampaign_, CongestionControlSwapChangesBulkThroughput) {
  ReplayConfig cubic;
  cubic.threads = 1;
  ReplayConfig bbr = cubic;
  bbr.knobs.cc = transport::CcAlgo::Bbr;
  const measure::ConsolidatedDb a = ReplayCampaign{ingested(), cubic}.run();
  const measure::ConsolidatedDb b = ReplayCampaign{ingested(), bbr}.run();
  ASSERT_EQ(a.kpis.size(), b.kpis.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.kpis.size(); ++i) {
    if (a.kpis[i].throughput != b.kpis[i].throughput) ++differing;
  }
  EXPECT_GT(differing, a.kpis.size() / 10);
  // The knob only touches transport: RTT tests replay identically.
  ASSERT_EQ(a.rtts.size(), b.rtts.size());
  for (std::size_t i = 0; i < a.rtts.size(); ++i) {
    EXPECT_EQ(a.rtts[i].rtt, b.rtts[i].rtt);
  }
}

TEST(ReplayCampaign_, MaxTierCapDowngradesAndClamps) {
  ReplayConfig cfg;
  cfg.threads = 1;
  cfg.knobs.max_tier = radio::Technology::Lte;
  const measure::ConsolidatedDb db = ReplayCampaign{ingested(), cfg}.run();
  const int cap_tier = radio::technology_tier(radio::Technology::Lte);
  for (const auto& k : db.kpis) {
    EXPECT_LE(radio::technology_tier(k.tech), cap_tier);
    const radio::BandPlan plan = radio::band_plan(k.carrier, k.tech);
    const bool dl = k.direction == radio::Direction::Downlink;
    const Mbps ceiling =
        radio::cc_peak_rate(plan, dl) * (dl ? plan.max_cc_dl : plan.max_cc_ul);
    // Delivered throughput cannot beat the capped link's ceiling (small
    // slack for the fluid model's tick granularity).
    EXPECT_LE(k.throughput, ceiling * 1.05);
  }
  for (const auto& r : db.rtts) {
    EXPECT_LE(radio::technology_tier(r.tech), cap_tier);
  }
}

// --- env knobs ------------------------------------------------------------

TEST(ReplayEnv, ParsesKnobsAndIgnoresGarbage) {
  ::setenv("WHEELS_REPLAY_SEED", "123", 1);
  ::setenv("WHEELS_REPLAY_INTERP", "linear", 1);
  ::setenv("WHEELS_REPLAY_CC", "bbr", 1);
  ::setenv("WHEELS_REPLAY_SERVER", "edge", 1);
  ::setenv("WHEELS_REPLAY_MAX_TIER", "5G-mid", 1);
  ReplayConfig cfg = replay_config_from_env();
  EXPECT_EQ(cfg.seed, 123u);
  EXPECT_EQ(cfg.policy, HoldPolicy::Interpolate);
  EXPECT_EQ(cfg.knobs.cc, transport::CcAlgo::Bbr);
  EXPECT_EQ(cfg.knobs.server, net::ServerKind::Edge);
  EXPECT_EQ(cfg.knobs.max_tier, radio::Technology::NrMid);

  // Not the value test_obs.cpp counts: ignore_env reports each (name,
  // value) pair once per process.
  ::setenv("WHEELS_REPLAY_INTERP", "diagonal", 1);
  ::setenv("WHEELS_REPLAY_CC", "reno", 1);
  ::setenv("WHEELS_REPLAY_SERVER", "moon", 1);
  ::setenv("WHEELS_REPLAY_MAX_TIER", "6G", 1);
  cfg = replay_config_from_env();
  EXPECT_EQ(cfg.policy, HoldPolicy::Hold);
  EXPECT_FALSE(cfg.knobs.cc.has_value());
  EXPECT_FALSE(cfg.knobs.server.has_value());
  EXPECT_FALSE(cfg.knobs.max_tier.has_value());

  ::unsetenv("WHEELS_REPLAY_SEED");
  ::unsetenv("WHEELS_REPLAY_INTERP");
  ::unsetenv("WHEELS_REPLAY_CC");
  ::unsetenv("WHEELS_REPLAY_SERVER");
  ::unsetenv("WHEELS_REPLAY_MAX_TIER");
}

}  // namespace
}  // namespace wheels::replay
