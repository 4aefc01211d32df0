#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/json.hpp"
#include "core/obs/manifest.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "export/exporter.hpp"
#include "export/roundtrip.hpp"
#include "ingest/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "service/config.hpp"

namespace wheels::core::obs {
namespace {

TEST(MetricsRegistry_, CountersAccumulateAndSortByName) {
  MetricsRegistry reg;
  const MetricId b = reg.counter_id("b.count");
  const MetricId a = reg.counter_id("a.count");
  EXPECT_EQ(reg.counter_id("b.count"), b);  // idempotent
  reg.add(b);
  reg.add(a, 3);
  reg.add(b, 2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 3u);
  EXPECT_EQ(snap.counters[1].first, "b.count");
  EXPECT_EQ(snap.counters[1].second, 3u);
}

TEST(MetricsRegistry_, MergesThreadShards) {
  MetricsRegistry reg;
  const MetricId id = reg.counter_id("x");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, id] {
      for (int i = 0; i < 1000; ++i) reg.add(id);
    });
  }
  for (auto& t : threads) t.join();
  reg.add(id);  // the snapshotting thread's own shard joins the merge too
  EXPECT_EQ(reg.snapshot().counters[0].second, 4001u);
}

TEST(MetricsRegistry_, FindCounterLocatesMergedValueOrNull) {
  MetricsRegistry reg;
  reg.add(reg.counter_id("service.cache_hits"), 7);
  reg.add(reg.counter_id("service.cache_misses"), 2);
  const auto snap = reg.snapshot();
  const std::uint64_t* hits = snap.find_counter("service.cache_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, 7u);
  EXPECT_EQ(snap.find_counter("service.never_fired"), nullptr);
}

TEST(MetricsRegistry_, SnapshotIsSafeAndConsistentDuringConcurrentAdds) {
  // wheelsd streams progress snapshots while jobs are still incrementing on
  // pool workers; snapshot() must be race-free mid-run (TSAN enforces the
  // "race-free" half under -L tsan_smoke) and every mid-run value must be a
  // plausible prefix of the final total.
  MetricsRegistry reg;
  const MetricId id = reg.counter_id("concurrent.adds");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.add(id);
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = reg.snapshot();
    if (const std::uint64_t* v = snap.find_counter("concurrent.adds")) {
      EXPECT_GE(*v, last);  // monotone: shards only grow
      EXPECT_LE(*v, kThreads * kPerThread);
      last = *v;
    }
  }
  for (auto& t : writers) t.join();
  const auto final_snap = reg.snapshot();
  EXPECT_EQ(*final_snap.find_counter("concurrent.adds"),
            kThreads * kPerThread);
}

TEST(MetricsRegistry_, EveryIgnoredKnobAddsOneToConfigIgnored) {
  const auto ignored = [] {
    const MetricsRegistry::Snapshot snap = MetricsRegistry::global().snapshot();
    const std::uint64_t* v = snap.find_counter("config.ignored");
    return v != nullptr ? *v : 0;
  };
  // Registered at start-up, so a run that ignored nothing reports 0.
  ASSERT_NE(MetricsRegistry::global().snapshot().find_counter("config.ignored"),
            nullptr);
  const std::uint64_t before = ignored();
  ::setenv("WHEELS_REPLAY_INTERP", "sideways", 1);
  (void)replay::replay_config_from_env();
  ::unsetenv("WHEELS_REPLAY_INTERP");
  EXPECT_EQ(ignored(), before + 1);
  ::setenv("WHEELS_SERVICE_QUEUE", "0", 1);
  (void)service::service_config_from_env();
  ::unsetenv("WHEELS_SERVICE_QUEUE");
  EXPECT_EQ(ignored(), before + 2);
}

TEST(MetricsRegistry_, CounterConvenienceReportsToTheGlobalRegistry) {
  const auto value_of = [](std::string_view name) {
    for (const auto& [n, v] : MetricsRegistry::global().snapshot().counters) {
      if (n == name) return v;
    }
    return std::uint64_t{0};
  };
  const Counter counter{"test.counter_convenience"};
  const std::uint64_t before = value_of("test.counter_convenience");
  counter.add();
  counter.add(41);
  EXPECT_EQ(value_of("test.counter_convenience"), before + 42);
  // Another Counter with the same name resolves to the same metric.
  const Counter again{"test.counter_convenience"};
  again.add();
  EXPECT_EQ(value_of("test.counter_convenience"), before + 43);
}

TEST(MetricsRegistry_, HistogramBucketsByUpperBound) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 10.0, 100.0};
  const auto h = reg.histogram("lat", bounds);
  reg.observe(h, 0.5);    // bucket 0 (<= 1)
  reg.observe(h, 1.0);    // bucket 0 (upper bounds are inclusive)
  reg.observe(h, 5.0);    // bucket 1
  reg.observe(h, 1000.0); // overflow bucket
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hs = snap.histograms[0].second;
  ASSERT_EQ(hs.counts.size(), 4u);
  EXPECT_EQ(hs.counts[0], 2u);
  EXPECT_EQ(hs.counts[1], 1u);
  EXPECT_EQ(hs.counts[2], 0u);
  EXPECT_EQ(hs.counts[3], 1u);
  EXPECT_EQ(hs.total, 4u);
}

TEST(MetricsRegistry_, ResetZeroesTotalsButKeepsIds) {
  MetricsRegistry reg;
  const MetricId id = reg.counter_id("n");
  reg.add(id, 7);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counters[0].second, 0u);
  reg.add(id);
  EXPECT_EQ(reg.snapshot().counters[0].second, 1u);
}

TEST(MetricsRegistry_, RuntimeMetricsExcludedFromDeterministicJson) {
  MetricsRegistry reg;
  reg.add(reg.counter_id("pool.tasks_run"), 5);
  reg.add(reg.counter_id("rt.pool.steals"), 3);
  const auto snap = reg.snapshot();
  const std::string det = snap.to_json(false);
  EXPECT_NE(det.find("pool.tasks_run"), std::string::npos);
  EXPECT_EQ(det.find("rt.pool.steals"), std::string::npos);
  const std::string full = snap.to_json(true);
  EXPECT_NE(full.find("rt.pool.steals"), std::string::npos);
  EXPECT_TRUE(is_runtime_metric("rt.pool.steals"));
  EXPECT_FALSE(is_runtime_metric("pool.tasks_run"));
}

// The tentpole invariant, same gate pattern as test_campaign_parallel.cpp:
// for a fixed seed, the deterministic snapshot of the global registry is
// byte-identical whether the campaign ran serial or on 2 or 8 threads.
TEST(ObsDeterminism, SnapshotIdenticalAcrossThreadCounts) {
  auto run_with_threads = [](int threads) {
    MetricsRegistry::global().reset();
    campaign::CampaignConfig cfg;
    cfg.scale = 0.01;
    cfg.seed = 20220808;
    cfg.threads = threads;
    (void)campaign::DriveCampaign{cfg}.run();
    return MetricsRegistry::global().snapshot().to_json(false);
  };

  const std::string serial = run_with_threads(1);
  const std::string two = run_with_threads(2);
  const std::string eight = run_with_threads(8);

  // The campaign must actually have hit the instrumented paths, otherwise
  // this gate compares empty documents.
  EXPECT_NE(serial.find("campaign.cycles"), std::string::npos);
  EXPECT_NE(serial.find("campaign.tests"), std::string::npos);
  EXPECT_NE(serial.find("pool.tasks_run"), std::string::npos);
  EXPECT_NE(serial.find("ran.handover.attempts"), std::string::npos);
  EXPECT_NE(serial.find("ran.rrc.promotions"), std::string::npos);
  EXPECT_NE(serial.find("transport.retransmits"), std::string::npos);
  EXPECT_NE(serial.find("transport.srtt_ms"), std::string::npos);

  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  MetricsRegistry::global().reset();
}

TEST(ObsDeterminism, JoinSnapshotIdenticalAcrossThreadCounts) {
  const std::string fixtures = WHEELS_INGEST_FIXTURE_DIR;
  const std::vector<ingest::JoinEntry> entries{
      {radio::Carrier::Verizon, fixtures + "/minimal.csv"},
      {radio::Carrier::TMobile, fixtures + "/monroe.csv"},
      {radio::Carrier::Att, fixtures + "/errant.csv"}};
  const auto join_with_threads = [&](int threads) {
    MetricsRegistry::global().reset();
    ingest::IngestOptions options;
    options.threads = threads;
    (void)ingest::ingest_join("auto", entries, options, {});
    return MetricsRegistry::global().snapshot().to_json(false);
  };
  const std::string serial_join = join_with_threads(1);
  EXPECT_NE(serial_join.find("pool.tasks_run"), std::string::npos);
  EXPECT_NE(serial_join.find("ingest.rows_emitted"), std::string::npos);
  EXPECT_EQ(serial_join, join_with_threads(4));
  MetricsRegistry::global().reset();
}

TEST(TraceCollector_, DisabledCollectorRecordsNothing) {
  TraceCollector tc;
  ASSERT_FALSE(tc.enabled());
  {
    ScopedSpan span{"noop", "test", tc};
  }
  EXPECT_EQ(tc.size(), 0u);
}

TEST(TraceCollector_, SpansLandInChromeTraceJson) {
  TraceCollector tc;
  tc.set_enabled(true);
  {
    ScopedSpan span{"outer", "test", tc};
    ScopedSpan inner{"inner \"quoted\"", "test", tc};
  }
  EXPECT_EQ(tc.size(), 2u);
  std::stringstream ss;
  tc.write_chrome_trace(ss);
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  tc.clear();
  EXPECT_EQ(tc.size(), 0u);
}

TEST(Obs, IngestAndExportRecordSpans) {
  const std::string fixtures = WHEELS_INGEST_FIXTURE_DIR;
  TraceCollector& collector = TraceCollector::global();
  collector.clear();
  collector.set_enabled(true);
  const replay::ReplayBundle joined = ingest::ingest_join(
      "auto",
      {{radio::Carrier::Verizon, fixtures + "/minimal.csv"},
       {radio::Carrier::TMobile, fixtures + "/monroe.csv"}},
      ingest::IngestOptions{}, {});
  const emu::EmuTimeline timeline =
      emu::timeline_from_bundle(joined.db, radio::Carrier::Verizon);
  for (const emu::EmuExporter* e :
       emu::builtin_exporter_registry().exporters()) {
    (void)e->render(timeline);
  }
  (void)emu::verify_mahimahi_roundtrip(timeline);
  collector.set_enabled(false);
  std::stringstream ss;
  collector.write_chrome_trace(ss);
  collector.clear();

  const json::Doc doc{"trace"};
  const json::Value root = doc.parse(ss.str());
  std::multimap<std::string, std::string> spans;  // name -> category
  for (const json::Value& event : doc.get(root, "traceEvents").items) {
    spans.emplace(doc.str(event, "name"), doc.str(event, "cat"));
  }
  const std::vector<std::pair<std::string, std::string>> expected{
      {"ingest.parse", "ingest"},          {"ingest.join", "ingest"},
      {"export.render:mahimahi", "export"}, {"export.render:netem", "export"},
      {"export.render:json", "export"},     {"export.verify", "export"}};
  for (const auto& [name, category] : expected) {
    const auto [lo, hi] = spans.equal_range(name);
    ASSERT_TRUE(lo != hi) << "no span named " << name;
    for (auto it = lo; it != hi; ++it) EXPECT_EQ(it->second, category) << name;
  }
  // One parse per input file, one join.
  EXPECT_EQ(spans.count("ingest.parse"), 2u);
  EXPECT_EQ(spans.count("ingest.join"), 1u);
  EXPECT_EQ(spans.count("export.verify"), 1u);
}

TEST(RunManifest_, JsonCarriesEveryField) {
  RunManifest m = make_run_manifest();
  m.seed = 99;
  m.scale = 0.125;
  m.config_digest = "00ff00ff00ff00ff";
  m.threads = 4;
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"seed\": 99"), std::string::npos);
  EXPECT_NE(json.find("\"scale\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"config_digest\": \"00ff00ff00ff00ff\""),
            std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_FALSE(m.library_version.empty());
  // "YYYY-MM-DD HH:MM:SS.mmm"
  EXPECT_EQ(m.started_utc.size(), 23u);
}

TEST(RunManifest_, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(hex64(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(ObsSinks, FlushWritesMetricsAndTraceFiles) {
  const std::string dir = "/tmp/wheels-obs-sink-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string metrics_path = dir + "/metrics.json";
  const std::string trace_path = dir + "/trace.json";
  setenv("WHEELS_METRICS_OUT", metrics_path.c_str(), 1);
  setenv("WHEELS_TRACE_OUT", trace_path.c_str(), 1);

  TraceCollector::global().set_enabled(true);
  { ScopedSpan span{"sink-test", "test"}; }
  flush_to_env_sinks();

  unsetenv("WHEELS_METRICS_OUT");
  unsetenv("WHEELS_TRACE_OUT");

  std::ifstream mis{metrics_path};
  ASSERT_TRUE(mis.good());
  std::stringstream mss;
  mss << mis.rdbuf();
  EXPECT_NE(mss.str().find("\"counters\""), std::string::npos);

  std::ifstream tis{trace_path};
  ASSERT_TRUE(tis.good());
  std::stringstream tss;
  tss << tis.rdbuf();
  EXPECT_NE(tss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tss.str().find("sink-test"), std::string::npos);
  std::filesystem::remove_all(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream is{path};
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// The death-test child: arm the exit hook before the first metric or span
/// exists, then exit through std::exit.
[[noreturn]] void flush_late_and_exit(const std::string& metrics_path,
                                      const std::string& trace_path) {
  setenv("WHEELS_METRICS_OUT", metrics_path.c_str(), 1);
  setenv("WHEELS_TRACE_OUT", trace_path.c_str(), 1);
  flush_at_exit();
  Counter{"obs.exit_test.late"}.add();
  { ScopedSpan span{"exit-test-span", "test"}; }
  std::exit(0);
}

TEST(ObsSinks, FlushAtExitOutlivesLateFirstUse) {
  // The threadsafe child re-runs only this test, so its registry and trace
  // collector are first used after flush_at_exit() registered its hook.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string dir = "/tmp/wheels-obs-exit-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string metrics_path = dir + "/metrics.json";
  const std::string trace_path = dir + "/trace.json";
  EXPECT_EXIT(flush_late_and_exit(metrics_path, trace_path),
              ::testing::ExitedWithCode(0), "");
  EXPECT_NE(read_file(metrics_path).find("\"obs.exit_test.late\": 1"),
            std::string::npos);
  EXPECT_NE(read_file(trace_path).find("exit-test-span"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wheels::core::obs
