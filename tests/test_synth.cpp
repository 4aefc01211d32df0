// Scenario synthesis: fit-from-golden acceptance gate, profile round-trips,
// sampler determinism, and the scenario what-if knobs.
//
// The KS gate here is the contract the subsystem ships under: a profile
// fitted from the committed golden bundle must sample cycles whose 500 ms
// throughput and RTT marginals stay within KS 0.15 of the recording, per
// (carrier, RAT) stream. CI's synth_smoke job runs the same gate through
// the synth_trace CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ingest/stream.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "synth/fit.hpp"
#include "synth/profile.hpp"
#include "synth/sample.hpp"
#include "synth/validate.hpp"

namespace wheels::synth {
namespace {

const replay::ReplayBundle& golden() {
  static const replay::ReplayBundle bundle =
      replay::read_dataset(WHEELS_GOLDEN_DIR "/bundle");
  return bundle;
}

const SynthProfile& golden_profile() {
  static const SynthProfile profile = fit_profile(golden());
  return profile;
}

/// The gate scenario: long enough that sampling noise (~sqrt(ln(2/a)/n))
/// sits well under the 0.15 gate for every fitted stream.
ScenarioSpec gate_spec() {
  ScenarioSpec spec;
  spec.duration_s = 300.0;
  return spec;
}

/// The three tick tables as one string — the byte-identity yardstick
/// (doubles at max_digits10, measure::csv_export's contract).
std::string db_bytes(const measure::ConsolidatedDb& db) {
  std::ostringstream os;
  measure::write_tests_csv(os, db);
  measure::write_kpis_csv(os, db);
  measure::write_rtts_csv(os, db);
  return os.str();
}

TEST(SynthGate, GoldenFitCoversEveryRecordedStream) {
  const SynthProfile& p = golden_profile();
  EXPECT_EQ(p.version, kProfileVersion);
  EXPECT_EQ(p.tick_ms, 500);
  ASSERT_FALSE(p.streams.empty());
  ASSERT_FALSE(p.mixes.empty());
  for (const StreamModel& s : p.streams) {
    EXPECT_GE(s.n_ticks, FitOptions{}.min_stream_ticks);
    ASSERT_EQ(s.dl.occupancy.size(), s.dl.transitions.size());
    double occ = 0.0;
    for (double o : s.dl.occupancy) occ += o;
    EXPECT_NEAR(occ, 1.0, 1e-9);
    // Visited regimes have row-stochastic outgoing transitions.
    for (std::size_t i = 0; i < s.dl.transitions.size(); ++i) {
      double row = 0.0;
      for (double v : s.dl.transitions[i]) row += v;
      if (s.dl.occupancy[i] > 0.0) {
        EXPECT_NEAR(row, 1.0, 1e-9);
        EXPECT_FALSE(s.dl.emissions[i].empty());
      } else {
        EXPECT_NEAR(row, 0.0, 1e-12);
      }
    }
  }
  // Every mix tech resolves to a fitted stream model.
  for (const CarrierMix& mix : p.mixes) {
    for (radio::Technology tech : mix.techs) {
      EXPECT_NE(p.find_stream(mix.carrier, tech), nullptr);
    }
  }
}

TEST(SynthGate, SampledMarginalsWithinKsGate) {
  const replay::ReplayBundle bundle =
      sample_bundle(golden_profile(), gate_spec(), 1, 0, 10);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  const ValidationReport report =
      validate_synthesis(golden().db, bundle.db, golden_profile());
  ASSERT_FALSE(report.streams.empty());
  for (const StreamKs& s : report.streams) {
    EXPECT_TRUE(s.gated) << "stream under the sample floor";
    EXPECT_LE(s.ks_throughput, 0.15);
    EXPECT_LE(s.ks_rtt, 0.15);
  }
  EXPECT_TRUE(report.passes(0.15));
}

TEST(SynthGate, SampledBundleReplaysThroughCampaign) {
  ScenarioSpec spec;
  spec.duration_s = 60.0;
  const replay::ReplayBundle bundle =
      sample_bundle(golden_profile(), spec, 3, 0, 1);
  replay::ReplayConfig cfg;
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, cfg}.run();
  EXPECT_TRUE(measure::validate(replayed).empty());
  EXPECT_EQ(replayed.tests.size(), bundle.db.tests.size());
}

TEST(SynthTest, ProfileJsonRoundTripsBitExact) {
  const SynthProfile& p = golden_profile();
  const std::string json = p.to_json();
  const SynthProfile back = parse_profile(json);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.source_digest, p.source_digest);
  EXPECT_EQ(back.streams.size(), p.streams.size());
}

TEST(SynthTest, SampleByteIdenticalAcrossThreadsAndSerialization) {
  ScenarioSpec spec;
  spec.duration_s = 90.0;
  const replay::ReplayBundle one =
      sample_bundle(golden_profile(), spec, 7, 0, 3, 1);
  const replay::ReplayBundle four =
      sample_bundle(golden_profile(), spec, 7, 0, 3, 4);
  EXPECT_EQ(one.manifest.config_digest, four.manifest.config_digest);
  EXPECT_EQ(db_bytes(one.db), db_bytes(four.db));

  // A serialize->parse round-tripped profile samples the same bytes: the
  // refit-free contract a stored profile file is used under.
  const SynthProfile reparsed = parse_profile(golden_profile().to_json());
  const replay::ReplayBundle from_reparsed =
      sample_bundle(reparsed, spec, 7, 0, 3, 2);
  EXPECT_EQ(from_reparsed.manifest.config_digest, one.manifest.config_digest);
  EXPECT_EQ(db_bytes(from_reparsed.db), db_bytes(one.db));
}

TEST(SynthTest, CyclesSampleIndependentlyOfBatching) {
  // Cycle 2 sampled alone carries the exact values it has inside a batch —
  // the property that lets a fleet shard cycles across processes.
  ScenarioSpec spec;
  spec.duration_s = 30.0;
  const auto collect = [&](int first, int count) {
    ingest::CollectSink sink;
    sample_stream(golden_profile(), spec, 11, radio::Carrier::Verizon, first,
                  count, sink);
    return sink.take();
  };
  const ingest::CanonicalTrace batch = collect(0, 3);
  const ingest::CanonicalTrace alone = collect(2, 1);
  const std::int64_t ticks = cycle_ticks(spec, golden_profile().tick_ms);
  ASSERT_EQ(batch.points.size(), static_cast<std::size_t>(3 * ticks));
  ASSERT_EQ(alone.points.size(), static_cast<std::size_t>(ticks));
  for (std::size_t i = 0; i < alone.points.size(); ++i) {
    const replay::TraceSample& a = alone.points[i];
    const replay::TraceSample& b =
        batch.points[static_cast<std::size_t>(2 * ticks) + i];
    EXPECT_EQ(a.cap_dl, b.cap_dl);
    EXPECT_EQ(a.cap_ul, b.cap_ul);
    EXPECT_EQ(a.rtt, b.rtt);
    EXPECT_EQ(a.tech, b.tech);
  }
}

TEST(SynthTest, MalformedProfileRejectedWithLineNumbers) {
  const auto error_of = [](const std::string& json) {
    try {
      (void)parse_profile(json);
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  // Truncated document.
  std::string err = error_of("{\n  \"version\": 1,\n");
  EXPECT_NE(err.find("profile: line"), std::string::npos) << err;
  // Wrong type on a known key, with the key's own line in the message.
  err = error_of("{\n  \"version\": \"one\"\n}\n");
  EXPECT_NE(err.find("profile: line 2"), std::string::npos) << err;
  // Trailing garbage after the document.
  err = error_of("{}\nextra");
  EXPECT_NE(err.find("profile: line"), std::string::npos) << err;

  // Integer fields decode exactly, failing at their own line: the golden
  // fit with the first `"key": <number>` replaced by `value`.
  const std::string golden = golden_profile().to_json();
  const auto error_with = [&](const std::string& key,
                              const std::string& value) {
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = golden.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + needle.size();
    std::string json = golden;
    json.replace(from, golden.find(',', from) - from, value);
    const auto line = 1 + std::count(golden.begin(),
                                     golden.begin() + static_cast<long>(at),
                                     '\n');
    return std::pair{error_of(json), "profile: line " + std::to_string(line)};
  };
  const auto not_digits = [](const std::string& key, const std::string& v) {
    return ": \"" + key +
           "\" must be an unsigned 64-bit integer in plain digits, got '" +
           v + "'";
  };
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{{"version", "1.5"},
                                                        {"tick_ms", "500.9"},
                                                        {"n_ticks", "-1"},
                                                        {"n_rtt", "2.5"}}) {
    const auto [error, at] = error_with(key, value);
    EXPECT_EQ(error, at + not_digits(key, value));
  }
  for (const std::string value : {"0", "9223372036854775808"}) {
    const auto [error, at] = error_with("tick_ms", value);
    EXPECT_EQ(error, at + ": tick_ms must be in [1, 9223372036854775807]");
  }
  const auto [overflow, at] = error_with("n_ticks", "1e999");
  EXPECT_EQ(overflow, at + ": number out of range '1e999'");
}

TEST(SynthTest, VersionSkewedProfileRejected) {
  std::string json = golden_profile().to_json();
  const std::string needle = "\"version\": 1";
  const std::size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, needle.size(), "\"version\": 99");
  try {
    (void)parse_profile(json);
    FAIL() << "version skew accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find("profile: line"), std::string::npos) << what;
  }
}

TEST(SynthTest, ScenarioSpecParsing) {
  const ScenarioSpec spec = parse_scenario_spec(
      "duration_s=60,load=2.5,outage_factor=3,max_tier=LTE-A,"
      "carriers=Verizon+AT&T");
  EXPECT_DOUBLE_EQ(spec.duration_s, 60.0);
  EXPECT_DOUBLE_EQ(spec.load, 2.5);
  EXPECT_DOUBLE_EQ(spec.outage_factor, 3.0);
  ASSERT_TRUE(spec.max_tier.has_value());
  EXPECT_EQ(*spec.max_tier, radio::Technology::LteA);
  ASSERT_EQ(spec.carriers.size(), 2u);
  EXPECT_EQ(spec.carriers[0], radio::Carrier::Verizon);
  EXPECT_EQ(spec.carriers[1], radio::Carrier::Att);

  // A route sizes the cycle when duration is not given explicitly.
  const ScenarioSpec route = parse_scenario_spec("route_km=20,speed_kmh=60");
  EXPECT_DOUBLE_EQ(route.duration_s, 0.0);
  EXPECT_EQ(cycle_ticks(route, 500), 2400);  // 20 min at 500 ms

  EXPECT_THROW((void)parse_scenario_spec("bogus_key=1"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario_spec("load=abc"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario_spec("load=0"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario_spec("duration_s=0,route_km=0"),
               std::runtime_error);
}

TEST(SynthTest, LoadKnobScalesCapacitiesExactly) {
  // Same seed => same draws; load only rescales the emitted values, so the
  // rush-hour what-if is a pure, deterministic transformation.
  ScenarioSpec base;
  base.duration_s = 30.0;
  ScenarioSpec rush = base;
  rush.load = 2.0;
  const auto collect = [&](const ScenarioSpec& s) {
    ingest::CollectSink sink;
    sample_stream(golden_profile(), s, 5, radio::Carrier::Att, 0, 1, sink);
    return sink.take();
  };
  const ingest::CanonicalTrace a = collect(base);
  const ingest::CanonicalTrace b = collect(rush);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.points[i].cap_dl, a.points[i].cap_dl / 2.0);
    EXPECT_GE(b.points[i].rtt, a.points[i].rtt);
  }
}

TEST(SynthTest, OutageFactorRaisesOutageShare) {
  // T-Mobile 5G-low recorded outages, so the degraded-coverage what-if has
  // observed outage mass to scale.
  ScenarioSpec base;
  base.duration_s = 600.0;
  base.carriers = {radio::Carrier::TMobile};
  ScenarioSpec degraded = base;
  degraded.outage_factor = 8.0;
  const auto outage_ticks = [&](const ScenarioSpec& s) {
    ingest::CollectSink sink;
    sample_stream(golden_profile(), s, 9, radio::Carrier::TMobile, 0, 4, sink);
    std::size_t n = 0;
    for (const replay::TraceSample& p : sink.trace.points) {
      if (p.cap_dl <= golden_profile().outage_mbps) ++n;
    }
    return n;
  };
  EXPECT_GT(outage_ticks(degraded), outage_ticks(base));
}

TEST(SynthTest, MaxTierCapsSampledTechnologies) {
  ScenarioSpec spec;
  spec.duration_s = 120.0;
  spec.max_tier = radio::Technology::LteA;
  spec.carriers = {radio::Carrier::Verizon};
  ingest::CollectSink sink;
  sample_stream(golden_profile(), spec, 13, radio::Carrier::Verizon, 0, 2,
                sink);
  ASSERT_FALSE(sink.trace.points.empty());
  for (const replay::TraceSample& p : sink.trace.points) {
    EXPECT_LE(radio::technology_tier(p.tech),
              radio::technology_tier(radio::Technology::LteA));
  }
}

}  // namespace
}  // namespace wheels::synth
