// The emulation export subsystem: backend golden fixtures, the Mahimahi
// quantization round trip, link_ticks recording/serialization, and the
// exact-replay path it enables.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/json.hpp"
#include "core/obs/manifest.hpp"
#include "export/exporter.hpp"
#include "export/roundtrip.hpp"
#include "export/timeline.hpp"
#include "ingest/ingest.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "measure/validate.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "synth/fit.hpp"
#include "synth/sample.hpp"

namespace wheels::emu {
namespace {

namespace fs = std::filesystem;

campaign::CampaignConfig app_config() {
  campaign::CampaignConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 99;
  return cfg;
}

/// One small campaign with app sessions, shared by every test here.
const measure::ConsolidatedDb& app_db() {
  static const measure::ConsolidatedDb db =
      campaign::DriveCampaign{app_config()}.run();
  return db;
}

EmuTimeline flat_timeline(std::size_t n, double cap_dl, double cap_ul) {
  EmuTimeline tl;
  tl.ticks.resize(n);
  for (apps::LinkTick& t : tl.ticks) {
    t.cap_dl = cap_dl;
    t.cap_ul = cap_ul;
  }
  return tl;
}

std::string artifact(const EmuExporter& e, const EmuTimeline& tl,
                     const std::string& suffix) {
  for (const ExportArtifact& a : e.render(tl)) {
    if (a.suffix == suffix) return a.content;
  }
  ADD_FAILURE() << "no artifact with suffix " << suffix;
  return {};
}

// --- Backend golden micro-fixtures ----------------------------------------

TEST(ExportMahimahi, GoldenMicroFixture) {
  // 0.048 Mbps at a 500 ms tick is exactly two 1500 B opportunities,
  // 0.024 Mbps exactly one; opportunities spread evenly over the tick.
  EmuTimeline tl = flat_timeline(2, 0.0, 0.0);
  tl.ticks[0].cap_dl = 0.048;
  tl.ticks[0].cap_ul = 0.024;
  tl.ticks[1].cap_dl = 0.024;
  const auto exporter = make_mahimahi_exporter();
  EXPECT_EQ(artifact(*exporter, tl, ".down"), "0\n250\n500\n");
  EXPECT_EQ(artifact(*exporter, tl, ".up"), "0\n");
}

TEST(ExportMahimahi, InteriorZeroTickRoundTripsExactly) {
  EmuTimeline tl = flat_timeline(3, 0.048, 0.0);
  tl.ticks[1].cap_dl = 0.0;  // a recorded outage, not a gap
  const RoundTripReport report = verify_mahimahi_roundtrip(tl);
  EXPECT_EQ(report.ticks_checked, 3u);
  EXPECT_EQ(report.max_error_mbps, 0.0);
}

TEST(ExportMahimahi, LeadingAndTrailingZerosStayZero) {
  EmuTimeline tl = flat_timeline(3, 0.0, 0.0);
  tl.ticks[1].cap_dl = 0.048;
  const RoundTripReport report = verify_mahimahi_roundtrip(tl);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.max_error_mbps, 0.0);
}

TEST(ExportMahimahi, AllZeroTimelineExportsEmptyAndVerifies) {
  const EmuTimeline tl = flat_timeline(4, 0.0, 0.0);
  const auto exporter = make_mahimahi_exporter();
  EXPECT_EQ(artifact(*exporter, tl, ".down"), "");
  EXPECT_TRUE(verify_mahimahi_roundtrip(tl).ok());
}

TEST(ExportNetem, GoldenMicroFixture) {
  EmuTimeline tl = flat_timeline(1, 10.0, 2.0);
  tl.ticks[0].rtt = 50.0;
  tl.ticks[0].interruption = 250.0;  // half the 500 ms tick
  const auto exporter = make_netem_exporter();
  EXPECT_EQ(artifact(*exporter, tl, ".sh"),
            "#!/bin/sh\n"
            "# wheels link schedule: 1 ticks x 500 ms\n"
            "# usage: schedule.sh [iface]   (default eth0; needs root)\n"
            "set -e\n"
            "IFACE=\"${1:-eth0}\"\n"
            "tc qdisc del dev \"$IFACE\" root 2>/dev/null || true\n"
            "tc qdisc add dev \"$IFACE\" root handle 1: htb default 10\n"
            "# tick 0: ul 2.000 Mbps\n"
            "tc class add dev \"$IFACE\" parent 1: classid 1:10 htb rate "
            "10000kbit\n"
            "tc qdisc add dev \"$IFACE\" parent 1:10 handle 10: netem delay "
            "25.000ms loss 50.000%\n"
            "tc qdisc del dev \"$IFACE\" root\n");
}

TEST(ExportNetem, OneTimedChangePerSubsequentTick) {
  const EmuTimeline tl = flat_timeline(4, 5.0, 1.0);
  const std::string script =
      artifact(*make_netem_exporter(), tl, ".sh");
  std::size_t sleeps = 0;
  std::size_t changes = 0;
  for (std::size_t pos = 0;
       (pos = script.find("sleep 0.500", pos)) != std::string::npos; ++pos) {
    ++sleeps;
  }
  for (std::size_t pos = 0;
       (pos = script.find("tc qdisc change", pos)) != std::string::npos;
       ++pos) {
    ++changes;
  }
  EXPECT_EQ(sleeps, 3u);
  EXPECT_EQ(changes, 3u);
  // An outage tick still shapes to the HTB floor, never to rate 0.
  EXPECT_EQ(script.find("rate 0kbit"), std::string::npos);
}

// --- JSON schedule: bit-exact values -------------------------------------

TEST(ExportJson, RenderParseBitExact) {
  EmuTimeline tl = flat_timeline(3, 1.0 / 3.0, 0.1);
  tl.start_ms = 120500;
  tl.ticks[1].rtt = 33.3333333333333357;
  tl.ticks[1].interruption = 100.0;  // a fifth of the 500 ms tick
  tl.ticks[2].tech = radio::Technology::NrMmWave;
  const std::string rendered =
      artifact(*make_json_exporter(), tl, ".json");
  const core::json::Doc doc{"schedule"};
  const core::json::Value root = doc.parse(rendered);
  EXPECT_EQ(doc.get(root, "version").text, "1");
  EXPECT_EQ(doc.get(root, "tick_ms").text, "500");
  EXPECT_EQ(doc.get(root, "start_ms").text, "120500");
  const std::vector<core::json::Value>& ticks = doc.get(root, "ticks").items;
  ASSERT_EQ(ticks.size(), tl.ticks.size());
  for (std::size_t i = 0; i < tl.ticks.size(); ++i) {
    const apps::LinkTick& t = tl.ticks[i];
    const double loss = i == 1 ? 0.2 : 0.0;
    const std::vector<std::pair<std::string, double>> fields{
        {"cap_dl_mbps", t.cap_dl},
        {"cap_ul_mbps", t.cap_ul},
        {"rtt_ms", t.rtt},
        {"loss", loss}};
    for (const auto& [key, value] : fields) {
      // Written at max_digits10, read back bit for bit.
      EXPECT_EQ(doc.get(ticks[i], key).text, measure::csv_double(value))
          << "tick " << i << " " << key;
      EXPECT_EQ(doc.num(ticks[i], key), value) << "tick " << i << " " << key;
    }
    EXPECT_EQ(doc.str(ticks[i], "tech"), measure::names::to_name(t.tech));
  }
}

// --- Timeline builders ----------------------------------------------------

TEST(ExportTimeline, EmptyOrInvalidTimelinesThrow) {
  EXPECT_THROW(validate_timeline(EmuTimeline{}), std::runtime_error);
  EXPECT_THROW(timeline_from_link_ticks({}), std::runtime_error);
  EmuTimeline bad = flat_timeline(1, 1.0, 1.0);
  bad.ticks[0].interruption = -1.0;
  EXPECT_THROW(validate_timeline(bad), std::runtime_error);
  bad.ticks[0].interruption = 0.0;
  bad.ticks[0].rtt = 0.0;
  EXPECT_THROW(validate_timeline(bad), std::runtime_error);
}

TEST(ExportTimeline, CanonicalTraceHoldSamplesOntoGrid) {
  ingest::CanonicalTrace trace;
  for (int i = 0; i < 3; ++i) {
    replay::TraceSample p;
    p.t = i * 500;
    p.cap_dl = 10.0 * (i + 1);
    p.cap_ul = 1.0;
    p.rtt = 50.0;
    trace.points.push_back(p);
  }
  const EmuTimeline tl = timeline_from_canonical(trace, 500);
  ASSERT_EQ(tl.ticks.size(), 3u);
  EXPECT_EQ(tl.ticks[0].cap_dl, 10.0);
  EXPECT_EQ(tl.ticks[1].cap_dl, 20.0);
  EXPECT_EQ(tl.ticks[2].cap_dl, 30.0);
  EXPECT_THROW(timeline_from_canonical(ingest::CanonicalTrace{}, 500),
               std::runtime_error);

  // Off-grid points govern from the next grid time on, and a silence
  // longer than the ingest gap split is held, not cut.
  trace.points[1].t = 700;
  trace.points[2].t = 20'000;
  trace.points[2].tech = radio::Technology::NrMid;
  const EmuTimeline held = timeline_from_canonical(trace, 500);
  EXPECT_EQ(held.start_ms, 0);
  ASSERT_EQ(held.ticks.size(), 41u);
  EXPECT_EQ(held.ticks[1].cap_dl, 10.0);   // t = 500
  EXPECT_EQ(held.ticks[2].cap_dl, 20.0);   // t = 1000
  EXPECT_EQ(held.ticks[39].cap_dl, 20.0);  // t = 19500
  EXPECT_EQ(held.ticks[40].cap_dl, 30.0);  // t = 20000
  EXPECT_EQ(held.ticks[40].tech, radio::Technology::NrMid);
}

TEST(ExportTimeline, BundleTestWithoutLinkTicksThrows) {
  measure::ConsolidatedDb db;
  EXPECT_THROW(timeline_from_bundle_test(db, 7), std::runtime_error);
}

// The drive's long silences (overnight stops, the days between cities) are
// cut from a bundle timeline by ingest's gap rule, so a whole carrier
// timeline exports one tick per recorded 500 ms sample.
TEST(ExportTimeline, BundleTimelineSkipsLongSilences) {
  const replay::ReplayBundle bundle =
      replay::read_dataset(WHEELS_GOLDEN_DIR "/bundle");
  EXPECT_EQ(
      timeline_from_bundle(bundle.db, radio::Carrier::Verizon, false)
          .ticks.size(),
      2568u);
  EXPECT_EQ(timeline_from_bundle(bundle.db, radio::Carrier::Verizon, true)
                .ticks.size(),
            300u);
  EXPECT_EQ(timeline_from_bundle(bundle.db, radio::Carrier::TMobile, true)
                .ticks.size(),
            600u);
}

TEST(ExportTimeline, BundleTimelineHoldsShortAndCutsLongSilences) {
  measure::ConsolidatedDb db;
  const auto kpi = [&db](SimMillis t, radio::Direction dir, double mbps) {
    measure::KpiRecord k;
    k.t = t;
    k.direction = dir;
    k.throughput = mbps;
    k.tech = radio::Technology::NrMid;
    db.kpis.push_back(k);
  };
  const auto handover = [&db](SimMillis t, Millis duration) {
    measure::HandoverRecord h;
    h.event.t = t;
    h.event.duration = duration;
    db.handovers.push_back(h);
  };
  kpi(0, radio::Direction::Downlink, 100.0);
  // 5 s later: held. DL and UL share a timestamp and count as one sample.
  kpi(5'000, radio::Direction::Downlink, 200.0);
  kpi(5'000, radio::Direction::Uplink, 20.0);
  handover(5'200, 40.0);
  handover(12'000, 40.0);  // inside the silence: dropped with its ticks
  // 20 s later: cut, the grid resumes at this sample.
  kpi(25'000, radio::Direction::Downlink, 300.0);
  handover(25'100, 60.0);

  const EmuTimeline tl = timeline_from_bundle(db, radio::Carrier::Verizon);
  EXPECT_EQ(tl.start_ms, 0);
  ASSERT_EQ(tl.ticks.size(), 12u);
  for (std::size_t i = 0; i < 10; ++i) {  // t = 0 .. 4500 hold the first
    EXPECT_EQ(tl.ticks[i].cap_dl, 100.0) << i;
    EXPECT_EQ(tl.ticks[i].cap_ul, 0.0) << i;
    EXPECT_EQ(tl.ticks[i].handovers, 0) << i;
  }
  EXPECT_EQ(tl.ticks[10].cap_dl, 200.0);  // t = 5000
  EXPECT_EQ(tl.ticks[10].cap_ul, 20.0);
  EXPECT_EQ(tl.ticks[10].handovers, 1);
  EXPECT_EQ(tl.ticks[10].interruption, 40.0);
  EXPECT_EQ(tl.ticks[11].cap_dl, 300.0);  // t = 25000
  EXPECT_EQ(tl.ticks[11].cap_ul, 20.0);
  EXPECT_EQ(tl.ticks[11].handovers, 1);
  EXPECT_EQ(tl.ticks[11].interruption, 60.0);
  EXPECT_EQ(tl.ticks[11].tech, radio::Technology::NrMid);
  EXPECT_EQ(tl.ticks[11].rtt, 50.0);

  // Sampled drive cycles sit 2.5 s apart: every tick from the first sample
  // through the last is kept.
  const replay::ReplayBundle golden =
      replay::read_dataset(WHEELS_GOLDEN_DIR "/bundle");
  const replay::ReplayBundle sampled =
      synth::sample_bundle(synth::fit_profile(golden), {}, 1, 0, 2);
  for (const radio::Carrier c : radio::kAllCarriers) {
    SimMillis first = std::numeric_limits<SimMillis>::max();
    SimMillis last = std::numeric_limits<SimMillis>::min();
    for (const measure::KpiRecord& k : sampled.db.kpis) {
      if (k.carrier != c) continue;
      first = std::min(first, k.t);
      last = std::max(last, k.t);
    }
    ASSERT_LE(first, last) << radio::carrier_name(c);
    const EmuTimeline kept = timeline_from_bundle(sampled.db, c);
    EXPECT_EQ(kept.start_ms, first);
    EXPECT_EQ(static_cast<SimMillis>(kept.ticks.size()),
              (last - first) / kept.tick_ms + 1)
        << radio::carrier_name(c);
  }
}

// --- Registry -------------------------------------------------------------

TEST(ExportRegistry, ResolvesBuiltinsAndNamesUnknown) {
  const ExporterRegistry& reg = builtin_exporter_registry();
  EXPECT_EQ(reg.exporters().size(), 3u);
  EXPECT_EQ(reg.resolve("mahimahi").name(), "mahimahi");
  EXPECT_EQ(reg.resolve("netem").name(), "netem");
  EXPECT_EQ(reg.resolve("json").name(), "json");
  try {
    reg.resolve("bogus");
    FAIL() << "expected an unknown-backend error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "unknown backend 'bogus' (known: mahimahi, netem, json)"),
              std::string::npos)
        << e.what();
  }
}

// --- Quantization bound (property test) -----------------------------------

TEST(ExportMahimahi, QuantizationBoundOnRandomizedTimelines) {
  std::mt19937_64 rng{20230817};
  std::uniform_real_distribution<double> cap{0.0, 300.0};
  std::uniform_int_distribution<int> len{1, 120};
  std::uniform_int_distribution<int> zero{0, 3};
  for (int round = 0; round < 25; ++round) {
    EmuTimeline tl;
    tl.ticks.resize(static_cast<std::size_t>(len(rng)));
    for (apps::LinkTick& t : tl.ticks) {
      t.cap_dl = zero(rng) == 0 ? 0.0 : cap(rng);
      t.cap_ul = t.cap_dl * 0.1;
    }
    const RoundTripReport report = verify_mahimahi_roundtrip(tl);
    EXPECT_EQ(report.bound_mbps, 0.024);
    // llround quantization: at most half an opportunity per tick, well
    // under the documented one-opportunity bound.
    EXPECT_LE(report.max_error_mbps, report.bound_mbps / 2.0 + 1e-12)
        << "round " << round;
  }
}

TEST(ExportMahimahi, BundleTimelineHoldsTheBound) {
  const replay::ReplayBundle bundle = replay::read_dataset(WHEELS_GOLDEN_DIR
                                                          "/bundle");
  EmuTimeline tl =
      timeline_from_bundle(bundle.db, radio::Carrier::Verizon, false);
  EXPECT_GT(tl.ticks.size(), 1000u);
  // A full drive at hundreds of Mbps is a multi-GB Mahimahi file; the
  // bound is per-tick, so a real-data slice proves it just as well.
  tl.ticks.resize(1000);
  const RoundTripReport report = verify_mahimahi_roundtrip(tl);
  EXPECT_TRUE(report.ok()) << report.max_error_mbps << " > "
                           << report.bound_mbps;
}

// --- Pinned artifacts ------------------------------------------------------

// Every byte the three backends write over the repository's own inputs is
// pinned by length and FNV-1a digest in tests/golden/export_digests.csv.
// After an intentional change to a backend or a timeline builder, rewrite
// it with
//   WHEELS_GOLDEN_REGEN=1 ./build/tests/wheels_tests
//       --gtest_filter=ExportGolden.ArtifactsMatchPinnedDigests
// (one command line) and commit the diff.

/// The pinned timelines, by name: the golden bundle's carrier timelines
/// (moving, and static where the bundle ran a battery), each well-formed
/// ingest fixture, and one recorded app session's link ticks.
std::vector<std::pair<std::string, EmuTimeline>> pinned_timelines() {
  std::vector<std::pair<std::string, EmuTimeline>> out;
  const replay::ReplayBundle bundle =
      replay::read_dataset(WHEELS_GOLDEN_DIR "/bundle");
  for (const radio::Carrier c : radio::kAllCarriers) {
    for (const bool is_static : {false, true}) {
      const bool recorded = std::any_of(
          bundle.db.kpis.begin(), bundle.db.kpis.end(),
          [&](const measure::KpiRecord& k) {
            return k.carrier == c && k.is_static == is_static;
          });
      if (!recorded) continue;
      out.emplace_back("bundle-" + std::string{measure::names::to_name(c)} +
                           (is_static ? "-static" : "-moving"),
                       timeline_from_bundle(bundle.db, c, is_static));
    }
  }

  const std::string fixtures = WHEELS_INGEST_FIXTURE_DIR;
  const auto fixture_timeline = [&](const std::string& format,
                                    const std::string& file,
                                    const ingest::IngestOptions& options) {
    return timeline_from_canonical(
        ingest::load_trace(ingest::builtin_registry(), format,
                           fixtures + "/" + file, options),
        options.resample.tick_ms);
  };
  const ingest::IngestOptions defaults;
  ingest::IngestOptions paired;
  paired.mahimahi_uplink_path = fixtures + "/mahimahi.up";
  out.emplace_back("fixture-minimal",
                   fixture_timeline("minimal", "minimal.csv", defaults));
  out.emplace_back("fixture-mahimahi",
                   fixture_timeline("mahimahi", "mahimahi.down", paired));
  out.emplace_back("fixture-errant",
                   fixture_timeline("errant", "errant.csv", defaults));
  out.emplace_back("fixture-monroe",
                   fixture_timeline("monroe", "monroe.csv", defaults));
  out.emplace_back("fixture-paper",
                   fixture_timeline("paper", "paper/kpis.csv", defaults));

  out.emplace_back(
      "app-run",
      timeline_from_bundle_test(app_db(), app_db().app_runs.front().test_id));
  return out;
}

TEST(ExportGolden, ArtifactsMatchPinnedDigests) {
  // The netem and JSON schedules cover each timeline's first 2,000 ticks,
  // as export_smoke does. Mahimahi writes one line per 1500 B, so it covers
  // the first 200: 2,000 ticks of Verizon's static (mmWave) timeline are
  // 1.3 GB of Mahimahi text.
  const auto tick_cap = [](const EmuExporter& e) -> std::size_t {
    return e.name() == "mahimahi" ? 200 : 2000;
  };
  std::ostringstream pinned;
  pinned << "artifact,bytes,fnv1a64\n";
  std::size_t lossy_netem_lines = 0;
  for (const auto& [name, timeline] : pinned_timelines()) {
    for (const EmuExporter* e : builtin_exporter_registry().exporters()) {
      EmuTimeline cut = timeline;
      if (cut.ticks.size() > tick_cap(*e)) cut.ticks.resize(tick_cap(*e));
      for (const ExportArtifact& a : e->render(cut)) {
        pinned << name << a.suffix << ',' << a.content.size() << ','
               << core::obs::hex64(core::obs::fnv1a64(a.content)) << '\n';
        if (e->name() != "netem") continue;
        std::istringstream lines{a.content};
        for (std::string line; std::getline(lines, line);) {
          if (line.find(" loss ") != std::string::npos &&
              line.find(" loss 0.000%") == std::string::npos) {
            ++lossy_netem_lines;
          }
        }
      }
    }
  }
  // A recorded handover blanks part of its tick: at least one pinned
  // script must shape a nonzero loss.
  EXPECT_GT(lossy_netem_lines, 0u);

  const std::string path =
      std::string{WHEELS_GOLDEN_DIR} + "/export_digests.csv";
  const char* regen = std::getenv("WHEELS_GOLDEN_REGEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream os{path};
    ASSERT_TRUE(os) << "cannot write " << path;
    os << pinned.str();
    GTEST_SKIP() << "export digests rewritten to " << path;
  }
  std::ifstream is{path};
  ASSERT_TRUE(is) << "missing " << path
                  << " — regenerate with WHEELS_GOLDEN_REGEN=1";
  std::ostringstream committed;
  committed << is.rdbuf();
  EXPECT_EQ(pinned.str(), committed.str());
}

// --- link_ticks recording and serialization -------------------------------

TEST(LinkTicks, CampaignRecordsThemForEveryAppRun) {
  const measure::ConsolidatedDb& db = app_db();
  ASSERT_FALSE(db.link_ticks.empty());
  ASSERT_FALSE(db.app_runs.empty());
  for (const measure::AppRunRecord& run : db.app_runs) {
    const EmuTimeline tl = timeline_from_bundle_test(db, run.test_id);
    EXPECT_FALSE(tl.ticks.empty());
  }
  EXPECT_TRUE(measure::validate(db).empty());
}

TEST(LinkTicks, CsvRoundTripsBitExact) {
  const measure::ConsolidatedDb& db = app_db();
  std::stringstream written;
  measure::write_link_ticks_csv(written, db);
  const std::vector<measure::LinkTickRecord> back =
      measure::read_link_ticks_csv(written);
  ASSERT_EQ(back.size(), db.link_ticks.size());
  measure::ConsolidatedDb copy = db;
  copy.link_ticks = back;
  std::stringstream rewritten;
  measure::write_link_ticks_csv(rewritten, copy);
  EXPECT_EQ(rewritten.str(), written.str());
}

TEST(LinkTicks, DatasetEmitsTableOnlyWhenRecorded) {
  const std::string dir = "/tmp/wheels-export-test-bundle-" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  (void)measure::write_dataset(app_db(), dir,
                               campaign::make_manifest(app_config()));
  EXPECT_TRUE(fs::exists(fs::path{dir} / "link_ticks.csv"));
  const replay::ReplayBundle bundle = replay::read_dataset(dir);
  EXPECT_EQ(bundle.db.link_ticks.size(), app_db().link_ticks.size());
  fs::remove_all(dir);

  // An appless campaign records no link ticks and must keep emitting the
  // pre-existing bundle layout (no empty table, same manifest digest).
  campaign::CampaignConfig cfg = app_config();
  cfg.scale = 0.01;
  cfg.run_apps = false;
  const measure::ConsolidatedDb appless =
      campaign::DriveCampaign{cfg}.run();
  EXPECT_TRUE(appless.link_ticks.empty());
  fs::remove_all(dir);
  (void)measure::write_dataset(appless, dir, campaign::make_manifest(cfg));
  EXPECT_FALSE(fs::exists(fs::path{dir} / "link_ticks.csv"));
  fs::remove_all(dir);
}

TEST(LinkTicks, RecordingIsByteIdenticalAcrossThreads) {
  campaign::CampaignConfig cfg = app_config();
  cfg.threads = 1;
  const measure::ConsolidatedDb serial =
      campaign::DriveCampaign{cfg}.run();
  cfg.threads = 3;
  const measure::ConsolidatedDb parallel =
      campaign::DriveCampaign{cfg}.run();
  std::stringstream a;
  std::stringstream b;
  measure::write_link_ticks_csv(a, serial);
  measure::write_link_ticks_csv(b, parallel);
  EXPECT_EQ(a.str(), b.str());

  // And so is the rendered artifact downstream of them.
  const measure::AppRunRecord& run = serial.app_runs.front();
  const std::string from_serial =
      artifact(*make_json_exporter(),
               timeline_from_bundle_test(serial, run.test_id), ".json");
  const std::string from_parallel =
      artifact(*make_json_exporter(),
               timeline_from_bundle_test(parallel, run.test_id), ".json");
  EXPECT_EQ(from_serial, from_parallel);
}

TEST(LinkTicks, ValidateRejectsCorruptRows) {
  measure::ConsolidatedDb db = app_db();
  ASSERT_FALSE(db.link_ticks.empty());
  db.link_ticks[0].cap_dl = -1.0;
  const std::vector<std::string> violations = measure::validate(db, 8);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("link_ticks[0]"), std::string::npos)
      << violations.front();
}

// --- Exact replay from recorded link ticks --------------------------------

TEST(ReplayLinkTicks, AppRunsReplayByteIdenticalWithoutKnobs) {
  replay::ReplayBundle bundle;
  bundle.db = app_db();
  bundle.manifest = campaign::make_manifest(app_config());
  const replay::ReplayConfig cfg;
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, cfg}.run();

  std::stringstream rec_runs;
  std::stringstream rep_runs;
  measure::write_app_runs_csv(rec_runs, bundle.db);
  measure::write_app_runs_csv(rep_runs, replayed);
  EXPECT_EQ(rep_runs.str(), rec_runs.str());

  std::stringstream rec_ticks;
  std::stringstream rep_ticks;
  measure::write_link_ticks_csv(rec_ticks, bundle.db);
  measure::write_link_ticks_csv(rep_ticks, replayed);
  EXPECT_EQ(rep_ticks.str(), rec_ticks.str());
}

TEST(ReplayLinkTicks, OlderBundleFallsBackToStatisticalTimeline) {
  replay::ReplayBundle bundle;
  bundle.db = app_db();
  bundle.manifest = campaign::make_manifest(app_config());
  bundle.db.link_ticks.clear();  // simulate a pre-link_ticks bundle
  const replay::ReplayConfig cfg;
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, cfg}.run();
  EXPECT_EQ(replayed.app_runs.size(), app_db().app_runs.size());
  // The fallback re-emits synthesized link ticks, upgrading the bundle.
  EXPECT_FALSE(replayed.link_ticks.empty());
  EXPECT_TRUE(measure::validate(replayed).empty());
}

TEST(ReplayLinkTicks, TierCapAppliesToRecordedTicks) {
  replay::ReplayBundle bundle;
  bundle.db = app_db();
  bundle.manifest = campaign::make_manifest(app_config());
  replay::ReplayConfig cfg;
  cfg.knobs.max_tier = radio::Technology::Lte;
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, cfg}.run();
  ASSERT_FALSE(replayed.app_runs.empty());
  for (const measure::AppRunRecord& run : replayed.app_runs) {
    EXPECT_EQ(run.high_speed_5g_fraction, 0.0);
  }
  for (const measure::LinkTickRecord& l : replayed.link_ticks) {
    EXPECT_EQ(l.tech, radio::Technology::Lte);
  }
}

}  // namespace
}  // namespace wheels::emu
