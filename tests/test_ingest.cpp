#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ingest/adapters.hpp"
#include "ingest/ingest.hpp"
#include "ingest_helpers.hpp"
#include "measure/validate.hpp"
#include "replay/fleet.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/trace_channel.hpp"

namespace wheels::ingest {
namespace {

const std::string kFixtures = WHEELS_INGEST_FIXTURE_DIR;

std::string fixture(const std::string& name) { return kFixtures + "/" + name; }

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

// --- registry & sniffing ----------------------------------------------------

TEST(IngestTest, BuiltinRegistryListsEveryFormatInOrder) {
  const std::vector<const TraceAdapter*> adapters =
      builtin_registry().adapters();
  const std::vector<std::string> expected{"minimal", "mahimahi", "errant",
                                          "monroe", "paper"};
  ASSERT_EQ(adapters.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(adapters[i]->name(), expected[i]);
    EXPECT_FALSE(adapters[i]->description().empty());
  }
  EXPECT_NE(builtin_registry().find("mahimahi"), nullptr);
  EXPECT_EQ(builtin_registry().find("pcap"), nullptr);
}

TEST(IngestTest, ResolveByNameAndErrorListsKnownFormats) {
  const SniffInput none{};
  EXPECT_EQ(builtin_registry().resolve("errant", none).name(), "errant");
  const std::string err = error_of(
      [&] { (void)builtin_registry().resolve("pcap", none); });
  EXPECT_NE(err.find("pcap"), std::string::npos);
  EXPECT_NE(err.find("mahimahi"), std::string::npos);  // lists the formats
}

TEST(IngestTest, SniffingIdentifiesEveryFixture) {
  const std::vector<std::pair<std::string, std::string>> cases{
      {"minimal.csv", "minimal"},     {"mahimahi.down", "mahimahi"},
      {"mahimahi.up", "mahimahi"},    {"errant.csv", "errant"},
      {"monroe.csv", "monroe"},       {"paper/kpis.csv", "paper"},
  };
  for (const auto& [file, format] : cases) {
    const SniffInput input = sniff_file(fixture(file));
    EXPECT_EQ(builtin_registry().sniff_or_throw(input).name(), format)
        << file;
    EXPECT_EQ(builtin_registry().resolve("auto", input).name(), format)
        << file;
  }
}

TEST(IngestTest, UnsniffableInputThrows) {
  SniffInput input;
  input.path = "notes.txt";
  input.head = {"hello world"};
  const std::string err =
      error_of([&] { (void)builtin_registry().sniff_or_throw(input); });
  EXPECT_NE(err.find("minimal"), std::string::npos);  // names the candidates
}

TEST(IngestTest, DuplicateAdapterNameRejected) {
  AdapterRegistry registry;
  registry.add(make_minimal_adapter());
  EXPECT_THROW(registry.add(make_minimal_adapter()), std::runtime_error);
}

// --- ColumnMap parsing ------------------------------------------------------

TEST(IngestTest, ErrantColumnMapConvertsUnitsAndRatNames) {
  IngestOptions options;
  const CanonicalTrace trace =
      load_trace(builtin_registry(), "errant", fixture("errant.csv"), options);
  ASSERT_EQ(trace.points.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_dl, 50.0);  // 50000 kbps
  EXPECT_DOUBLE_EQ(trace.points[1].cap_dl, 60.0);
  EXPECT_DOUBLE_EQ(trace.points[2].cap_dl, 200.0);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_ul, 10.0);
  EXPECT_DOUBLE_EQ(trace.points[2].rtt, 25.0);
  EXPECT_EQ(trace.points[0].tech, radio::Technology::Lte);    // "4G"
  EXPECT_EQ(trace.points[1].tech, radio::Technology::LteA);   // "4G+"
  EXPECT_EQ(trace.points[2].tech, radio::Technology::NrMid);  // "5G"
}

TEST(IngestTest, MonroeColumnMapRebasesUnixSecondsToMillis) {
  IngestOptions options;
  const CanonicalTrace trace =
      load_trace(builtin_registry(), "auto", fixture("monroe.csv"), options);
  ASSERT_EQ(trace.points.size(), 3u);
  EXPECT_EQ(trace.points[0].t, 0);  // 1717000000.25 s re-based
  EXPECT_EQ(trace.points[1].t, 1000);
  EXPECT_EQ(trace.points[2].t, 2000);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_dl, 40.0);  // 40e6 bps
  EXPECT_DOUBLE_EQ(trace.points[2].cap_ul, 16.0);
  EXPECT_EQ(trace.points[1].tech, radio::Technology::NrLow);  // "NR-NSA"
  EXPECT_EQ(trace.points[2].tech, radio::Technology::NrMid);  // "NR-SA"
}

TEST(IngestTest, ColumnMapFillCoversMissingColumn) {
  ColumnMap map;
  map.time_column = "t";
  map.rules = {{"dl", &apps::LinkTick::cap_dl, 1.0, {}},
               {"ul", &apps::LinkTick::cap_ul, 1.0, 2.5},
               {"rtt", &apps::LinkTick::rtt, 1.0, 40.0}};
  const CanonicalTrace trace =
      helpers::parse_text("t,dl\n0,10\n500,20\n", map, radio::Technology::Lte);
  ASSERT_EQ(trace.points.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_ul, 2.5);
  EXPECT_DOUBLE_EQ(trace.points[1].rtt, 40.0);
  EXPECT_EQ(trace.points[0].tech, radio::Technology::Lte);

  // Without the fill, the same missing column is a header-line error.
  map.rules[1].fill.reset();
  const std::string err = error_of([&] {
    (void)helpers::parse_text("t,dl\n0,10\n", map, radio::Technology::Lte);
  });
  EXPECT_NE(err.find("missing column 'ul'"), std::string::npos);
  EXPECT_NE(err.find("line 1"), std::string::npos);

  // A map without an RTT rule fails its rows: no default RTT stands in.
  map.rules[1].fill = 0.0;
  map.rules.pop_back();
  const std::string no_rtt = error_of([&] {
    (void)helpers::parse_text("t,dl\n0,10\n", map, radio::Technology::Lte);
  });
  EXPECT_NE(no_rtt.find("line 2: rtt must be > 0"), std::string::npos)
      << no_rtt;
}

TEST(IngestTest, ColumnMapRejectsUnmappedColumnsUnlessAllowed) {
  ColumnMap map;
  map.time_column = "t";
  map.rules = {{"dl", &apps::LinkTick::cap_dl, 1.0, {}},
               {"ul", &apps::LinkTick::cap_ul, 1.0, 0.0},
               {"rtt", &apps::LinkTick::rtt, 1.0, 40.0}};
  const std::string text = "t,dl,surprise\n0,10,1\n";
  const std::string err = error_of(
      [&] { (void)helpers::parse_text(text, map, radio::Technology::Lte); });
  EXPECT_NE(err.find("unmapped column 'surprise'"), std::string::npos);

  map.allow_extra_columns = true;
  const CanonicalTrace trace =
      helpers::parse_text(text, map, radio::Technology::Lte);
  EXPECT_EQ(trace.points.size(), 1u);
}

// --- per-format round trips -------------------------------------------------

TEST(IngestTest, MinimalFixtureRoundTripsThroughBundle) {
  IngestOptions options;
  const replay::ReplayBundle bundle =
      ingest_file("auto", fixture("minimal.csv"), options);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  ASSERT_EQ(bundle.db.tests.size(), 3u);  // DL, UL, RTT over one segment
  ASSERT_EQ(bundle.db.kpis.size(), 8u);   // 4 ticks x 2 directions
  ASSERT_EQ(bundle.db.rtts.size(), 4u);
  // Hand-computed capacities straight from the fixture.
  const std::vector<double> dl{40, 60, 80, 100};
  for (std::size_t i = 0; i < dl.size(); ++i) {
    const measure::KpiRecord& k = bundle.db.kpis[2 * i];
    EXPECT_EQ(k.t, static_cast<SimMillis>(i) * 500);
    EXPECT_DOUBLE_EQ(k.throughput, dl[i]);
    EXPECT_EQ(k.direction, radio::Direction::Downlink);
  }
  EXPECT_DOUBLE_EQ(bundle.db.rtts[0].rtt, 45.0);
  EXPECT_DOUBLE_EQ(bundle.db.rtts[3].rtt, 35.0);

  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, {}}.run();
  EXPECT_FALSE(replayed.kpis.empty());
}

TEST(IngestTest, MahimahiWindowsDeliveryOpportunitiesIntoMbps) {
  IngestOptions options;
  options.mahimahi_uplink_path = fixture("mahimahi.up");
  const CanonicalTrace trace = load_trace(
      builtin_registry(), "auto", fixture("mahimahi.down"), options);
  // Windows of 500 ms at 12000 bits per opportunity: count * 0.024 Mbps.
  ASSERT_EQ(trace.points.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_dl, 10 * 0.024);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_dl, 0.0);  // recorded outage
  EXPECT_DOUBLE_EQ(trace.points[2].cap_dl, 5 * 0.024);
  // Merged uplink trace: 2 opportunities, then 1, then held.
  EXPECT_DOUBLE_EQ(trace.points[0].cap_ul, 2 * 0.024);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_ul, 1 * 0.024);
  EXPECT_DOUBLE_EQ(trace.points[2].cap_ul, 1 * 0.024);
  EXPECT_DOUBLE_EQ(trace.points[0].rtt, 50.0);  // the default fill

  const replay::ReplayBundle bundle =
      ingest_file("mahimahi", fixture("mahimahi.down"), options);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, {}}.run();
  EXPECT_FALSE(replayed.kpis.empty());
}

TEST(IngestTest, MahimahiUplinkTailStaysOnTheDownlinkGrid) {
  // Each file is windowed from its own first timestamp: the downlink from
  // 10,000 ms (5 windows), the uplink from 0 ms (8 windows), and, in the
  // second pair, from 40,000 ms. The 3 extra uplink windows extend the
  // downlink's grid instead of keeping the uplink's own stamps, which went
  // backwards in the first pair and split off a second cycle in the other.
  const std::string late_up =
      (std::filesystem::path{::testing::TempDir()} / "late_offset.up")
          .string();
  {
    std::ifstream in{fixture("mahimahi_offset.up")};
    std::ofstream out{late_up};
    for (SimMillis t = 0; in >> t;) out << t + 40'000 << '\n';
  }
  for (const std::string& up : {fixture("mahimahi_offset.up"), late_up}) {
    IngestOptions options;
    options.mahimahi_uplink_path = up;
    const replay::ReplayBundle bundle =
        ingest_file("mahimahi", fixture("mahimahi_offset.down"), options);
    ASSERT_EQ(bundle.db.tests.size(), 3u) << up;  // one cycle
    ASSERT_EQ(bundle.db.rtts.size(), 8u) << up;
    const std::vector<double> dl{3, 1, 2, 1, 2, 2, 2, 2};
    const std::vector<double> ul{2, 1, 1, 1, 1, 1, 1, 1};
    for (std::size_t i = 0; i < dl.size(); ++i) {
      EXPECT_EQ(bundle.db.rtts[i].t, static_cast<SimMillis>(i) * 500) << up;
      EXPECT_DOUBLE_EQ(bundle.db.kpis[2 * i].throughput, dl[i] * 0.024) << i;
      EXPECT_DOUBLE_EQ(bundle.db.kpis[2 * i + 1].throughput, ul[i] * 0.024)
          << i;
    }
  }
}

/// Counts what it is fed and throws past `limit` points.
class BoundedSink final : public PointSink {
 public:
  explicit BoundedSink(std::size_t limit) : limit_(limit) {}
  void push(const replay::TraceSample&) override {
    if (++pushed_ > limit_) throw std::runtime_error{"sink: over the limit"};
  }
  std::size_t pushed() const { return pushed_; }

 private:
  std::size_t limit_;
  std::size_t pushed_ = 0;
};

TEST(IngestTest, MahimahiRejectsASpanLongerThanTheDrive) {
  // Lines 1-3 span 2 ms, line 4 jumps 10^12 ms. Every 500 ms window of
  // that jump would be emitted as a zero-capacity point — two billion of
  // them — so the sink stops at 10^6 rather than let memory run out.
  const TraceAdapter* mahimahi = builtin_registry().find("mahimahi");
  ASSERT_NE(mahimahi, nullptr);
  const IngestOptions options;
  {
    LineSource lines{fixture("mahimahi_jump.down"), ChunkSpec{}};
    BoundedSink sink{1'000'000};
    const std::string err =
        error_of([&] { mahimahi->parse_stream(lines, options, sink); });
    EXPECT_EQ(err.rfind("line 4: ", 0), 0u) << err;
  }
  // The cap is 8 days (691,200,000 ms) from the first timestamp, inclusive.
  for (const SimMillis last : {691'200'000LL, 691'200'001LL}) {
    std::istringstream text{"100\n" + std::to_string(100 + last) + "\n"};
    LineSource lines{text, ChunkSpec{}};
    BoundedSink sink{2'000'000};
    const std::string err =
        error_of([&] { mahimahi->parse_stream(lines, options, sink); });
    if (last == 691'200'000) {
      EXPECT_EQ(err, "");
      EXPECT_EQ(sink.pushed(), 1'382'401u);
    } else {
      EXPECT_EQ(err.rfind("line 2: ", 0), 0u) << err;
    }
  }
}

TEST(IngestTest, ErrantFixtureReplaysEndToEnd) {
  IngestOptions options;
  options.carrier = radio::Carrier::TMobile;
  const replay::ReplayBundle bundle =
      ingest_file("auto", fixture("errant.csv"), options);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  EXPECT_EQ(bundle.db.tests[0].carrier, radio::Carrier::TMobile);
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, {}}.run();
  EXPECT_FALSE(replayed.rtts.empty());
}

TEST(IngestTest, MonroeFixtureResamplesOneSecondCadenceOntoTicks) {
  IngestOptions options;  // hold fill, 500 ms tick
  const replay::ReplayBundle bundle =
      ingest_file("auto", fixture("monroe.csv"), options);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  // 1 s source cadence over [0, 2000] resampled at 500 ms: 5 ticks, each
  // holding the last source sample.
  ASSERT_EQ(bundle.db.rtts.size(), 5u);
  const std::vector<double> dl{40, 40, 60, 60, 80};
  for (std::size_t i = 0; i < dl.size(); ++i) {
    EXPECT_DOUBLE_EQ(bundle.db.kpis[2 * i].throughput, dl[i]) << i;
  }
}

TEST(IngestTest, PaperKpisFixturePivotsMeansAndPicksUpSiblingRtts) {
  IngestOptions options;  // carrier Verizon
  const CanonicalTrace trace = load_trace(
      builtin_registry(), "auto", fixture("paper/kpis.csv"), options);
  ASSERT_EQ(trace.points.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_dl, 50.0);  // mean(40, 60)
  EXPECT_DOUBLE_EQ(trace.points[0].cap_ul, 10.0);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_dl, 80.0);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_ul, 20.0);
  // rtts.csv sibling overlay, Verizon rows only.
  EXPECT_DOUBLE_EQ(trace.points[0].rtt, 45.0);
  EXPECT_DOUBLE_EQ(trace.points[1].rtt, 30.0);
  EXPECT_EQ(trace.points[1].tech, radio::Technology::NrMid);

  const replay::ReplayBundle bundle =
      ingest_file("paper", fixture("paper/kpis.csv"), options);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
}

TEST(IngestTest, PaperAdapterMatchesTheMovingCarrierTimeline) {
  // A whole campaign table: each city's static battery shares timestamps
  // with the moving test that follows it, and a phone runs its downlink
  // and uplink tests one after the other. The adapter must read the drive
  // the way the replay's carrier timeline does.
  const std::string dir = std::string{WHEELS_GOLDEN_DIR} + "/bundle";
  const measure::ConsolidatedDb db = replay::read_dataset(dir).db;
  for (const radio::Carrier c : radio::kAllCarriers) {
    SCOPED_TRACE(std::string{radio::carrier_name(c)});
    std::set<SimMillis> moving_ts;
    for (const measure::KpiRecord& k : db.kpis) {
      if (k.carrier == c && !k.is_static) moving_ts.insert(k.t);
    }
    ASSERT_EQ(moving_ts.size(), 2568u);

    IngestOptions options;
    options.carrier = c;
    const CanonicalTrace trace =
        load_trace(builtin_registry(), "paper", dir + "/kpis.csv", options);
    ASSERT_EQ(trace.points.size(), moving_ts.size());
    const replay::TraceChannel channel =
        replay::carrier_timeline(db, c, false);
    auto t = moving_ts.begin();
    for (std::size_t i = 0; i < trace.points.size(); ++i, ++t) {
      const replay::TraceSample& p = trace.points[i];
      const replay::TraceSample want = channel.at(p.t);
      ASSERT_EQ(p.t, *t) << "point " << i;
      ASSERT_EQ(p.t, want.t) << "point " << i;
      ASSERT_EQ(p.cap_dl, want.cap_dl) << "t " << p.t;
      ASSERT_EQ(p.cap_ul, want.cap_ul) << "t " << p.t;
      ASSERT_EQ(p.rtt, want.rtt) << "t " << p.t;
      ASSERT_EQ(p.tech, want.tech) << "t " << p.t;
    }
  }
}

TEST(IngestTest, MalformedFixturesThrowWithLineNumbers) {
  const IngestOptions options;
  const auto ingest_err = [&](const std::string& format,
                              const std::string& file) {
    return error_of([&] { (void)ingest_file(format, fixture(file), options); });
  };
  EXPECT_NE(ingest_err("minimal", "minimal_bad.csv")
                .find("line 4: duplicate time 500"),
            std::string::npos);
  EXPECT_NE(ingest_err("mahimahi", "mahimahi_bad.down")
                .find("line 2: time going backwards"),
            std::string::npos);
  EXPECT_NE(ingest_err("errant", "errant_bad.csv").find("line 3"),
            std::string::npos);
  EXPECT_NE(ingest_err("monroe", "monroe_bad.csv")
                .find("line 3: negative capacity"),
            std::string::npos);
  EXPECT_FALSE(ingest_err("paper", "paper_kpis_bad.csv").empty());
  // Every message names the offending file.
  EXPECT_NE(ingest_err("minimal", "minimal_bad.csv").find("minimal_bad.csv"),
            std::string::npos);
  // A fleet trace spec reads through the same adapter: the same error.
  EXPECT_NE(error_of([] {
              (void)load_fleet_bundle(fixture("minimal_bad.csv"));
            }).find("line 4: duplicate time 500"),
            std::string::npos);
}

// --- fleet trace specs ------------------------------------------------------
//
// A ".csv[@carrier]" fleet spec is a minimal-format trace loaded through
// load_fleet_bundle: the minimal adapter, then the join layer.

/// Writes `text` to a temp file called `name`; returns its path.
std::string write_trace(const std::string& name, const std::string& text) {
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / name).string();
  std::ofstream os{path, std::ios::binary};
  os << text;
  return path;
}

constexpr char kFleetTrace[] =
    "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech\n"
    "0,120.5,18.2,45,5G-mid\n"
    "500,95.0,15.0,52,5G-mid\n"
    "1000,3.1,1.0,88,LTE\n"
    "1500,140.0,20.0,41,5G-mmWave\n";

TEST(FleetTraceSpec, ImportsAndReplays) {
  const std::string path = write_trace("fleet_spec_imports.csv", kFleetTrace);
  const replay::ReplayBundle bundle = load_fleet_bundle(path + "@T-Mobile");
  EXPECT_EQ(bundle.db.tests.size(), 3u);
  EXPECT_EQ(bundle.db.tests[0].carrier, radio::Carrier::TMobile);
  EXPECT_EQ(bundle.db.kpis.size(), 8u);  // 4 ticks x {DL, UL}
  EXPECT_EQ(bundle.db.rtts.size(), 4u);
  EXPECT_TRUE(measure::validate(bundle.db).empty());

  replay::ReplayConfig cfg;
  cfg.threads = 1;
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, cfg}.run();
  EXPECT_EQ(replayed.kpis.size(), 8u);
  EXPECT_EQ(replayed.rtts.size(), 4u);
  for (const auto& r : replayed.rtts) {
    EXPECT_GT(r.rtt, 0.0);
  }
}

TEST(FleetTraceSpec, WithoutTechColumnDefaultsToLte) {
  const std::string path =
      write_trace("fleet_spec_no_tech.csv",
                  "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n0,50,5,60\n");
  const replay::ReplayBundle bundle = load_fleet_bundle(path);
  ASSERT_EQ(bundle.db.kpis.size(), 2u);
  EXPECT_EQ(bundle.db.kpis[0].tech, radio::Technology::Lte);
}

TEST(FleetTraceSpec, MalformedRowsReportLineNumbers) {
  const auto error_of_text = [](const std::string& text) {
    const std::string path = write_trace("fleet_spec_malformed.csv", text);
    return error_of([&] { (void)load_fleet_bundle(path); });
  };
  const std::string header = "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n";
  EXPECT_NE(error_of_text("bogus,header\n").find("line 1"), std::string::npos);
  EXPECT_NE(error_of_text(header + "0,50,5\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(error_of_text(header + "0,nan,5,60\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(error_of_text(header + "0,50,5,0\n").find("line 2"),
            std::string::npos);  // rtt must be > 0
  EXPECT_NE(error_of_text(header + "500,50,5,60\n0,50,5,60\n").find("line 3"),
            std::string::npos);  // time going backwards
  EXPECT_NE(error_of_text(header).find("no data rows"), std::string::npos);
  EXPECT_NE(error_of_text("").find("line 1: empty trace"), std::string::npos);
  // A fifth header column other than tech is rejected on the header line.
  EXPECT_NE(error_of_text("t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,band\n"
                          "0,50,5,60,n77\n")
                .find("line 1"),
            std::string::npos);
}

TEST(FleetTraceSpec, AcceptsCrlfLineEndings) {
  // Windows-exported traces: CRLF on every line including the header, plus a
  // trailing bare "\r" line. Must parse identically to the LF version.
  const std::string path = write_trace(
      "fleet_spec_crlf.csv",
      "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech\r\n"
      "0,120.5,18.2,45,5G-mid\r\n"
      "500,95.0,15.0,52,LTE\r\n"
      "\r\n");
  const replay::ReplayBundle bundle = load_fleet_bundle(path + "@AT&T");
  EXPECT_EQ(bundle.db.kpis.size(), 4u);  // 2 ticks x {DL, UL}
  EXPECT_EQ(bundle.db.rtts.size(), 2u);
  EXPECT_EQ(bundle.db.kpis[0].tech, radio::Technology::NrMid);
  EXPECT_EQ(bundle.db.rtts[1].rtt, 52.0);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
}

TEST(FleetTraceSpec, AcceptsCommentAndBlankLines) {
  // '#' comments and blank lines are allowed anywhere — including before the
  // header — and do not shift the physical line numbers diagnostics report.
  const std::string path = write_trace(
      "fleet_spec_comments.csv",
      "# exported by a field logger\n"
      "\n"
      "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech\n"
      "0,120.5,18.2,45,5G-mid\n"
      "# mid-trace annotation\n"
      "500,95.0,15.0,52,LTE\n"
      "\n");
  const replay::ReplayBundle bundle = load_fleet_bundle(path);
  EXPECT_EQ(bundle.db.kpis.size(), 4u);  // 2 ticks x {DL, UL}
  EXPECT_EQ(bundle.db.rtts.size(), 2u);
  EXPECT_EQ(bundle.db.rtts[1].rtt, 52.0);
  EXPECT_TRUE(measure::validate(bundle.db).empty());

  // Skipped lines still count: the bad row below is physical line 6.
  const std::string bad = write_trace("fleet_spec_comments_bad.csv",
                                      "# comment\n"
                                      "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n"
                                      "0,50,5,60\n"
                                      "\n"
                                      "# another comment\n"
                                      "500,50,5,0\n");
  const std::string what = error_of([&] { (void)load_fleet_bundle(bad); });
  EXPECT_NE(what.find("line 6: rtt must be > 0"), std::string::npos) << what;

  // A comment-only stream has no header at all.
  const std::string comments_only = write_trace(
      "fleet_spec_comments_only.csv", "# nothing here\n\n# still nothing\n");
  EXPECT_NE(error_of([&] { (void)load_fleet_bundle(comments_only); })
                .find("empty trace"),
            std::string::npos);
}

TEST(FleetTraceSpec, GapsSplitCyclesAndOffGridRowsResample) {
  // A 20 s gap (> the 10 s max gap) splits the trace into two cycles.
  const std::string gapped = write_trace(
      "fleet_spec_gap.csv",
      "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n"
      "0,50,5,60\n500,50,5,60\n1000,50,5,60\n"
      "21000,70,7,40\n21500,70,7,40\n");
  const replay::ReplayBundle split = load_fleet_bundle(gapped);
  ASSERT_EQ(split.db.tests.size(), 6u);  // one DL/UL/RTT triple per cycle
  EXPECT_EQ(split.db.tests[0].cycle, 0);
  EXPECT_EQ(split.db.tests[3].cycle, 1);
  EXPECT_EQ(split.db.tests[3].start, 21'000);

  // A 1 s cadence starting at t = 5000 is rebased to 0 and held onto the
  // 500 ms grid: 0, 500, ..., 2000.
  const std::string coarse = write_trace(
      "fleet_spec_coarse.csv",
      "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n"
      "5000,40,4,60\n6000,60,6,50\n7000,80,8,40\n");
  const replay::ReplayBundle ticks = load_fleet_bundle(coarse);
  EXPECT_TRUE(measure::validate(ticks.db).empty());
  ASSERT_EQ(ticks.db.rtts.size(), 5u);
  const std::vector<double> dl{40, 40, 60, 60, 80};
  for (std::size_t i = 0; i < dl.size(); ++i) {
    EXPECT_EQ(ticks.db.kpis[2 * i].t, static_cast<SimMillis>(i) * 500) << i;
    EXPECT_DOUBLE_EQ(ticks.db.kpis[2 * i].throughput, dl[i]) << i;
  }
}

// --- resampling -------------------------------------------------------------

CanonicalTrace irregular_trace() {
  // Deterministically irregular spacing, including a > max_gap pause.
  CanonicalTrace trace;
  SimMillis t = 0;
  for (int i = 0; i < 40; ++i) {
    replay::TraceSample p;
    p.t = t;
    p.cap_dl = 10.0 + (i * 13) % 50;
    p.cap_ul = 1.0 + (i * 7) % 11;
    p.rtt = 20.0 + (i * 3) % 40;
    trace.points.push_back(p);
    t += 100 + 700 * ((i * 5) % 4);  // 100..2200 ms steps
    if (i == 19) t += 60'000;        // one long pause
  }
  return trace;
}

TEST(IngestTest, ResamplePreservesOrderingAndDuration) {
  const CanonicalTrace trace = irregular_trace();
  for (const replay::HoldPolicy fill :
       {replay::HoldPolicy::Hold, replay::HoldPolicy::Interpolate}) {
    ResampleSpec spec;
    spec.fill = fill;
    const std::vector<TraceSegment> segments =
        helpers::resample_all(trace, spec);
    ASSERT_EQ(segments.size(), 2u);  // split at the long pause

    SimMillis prev = -1;
    SimMillis covered = 0;
    for (const TraceSegment& seg : segments) {
      ASSERT_FALSE(seg.ticks.empty());
      for (std::size_t i = 0; i < seg.ticks.size(); ++i) {
        EXPECT_GT(seg.ticks[i].t, prev);  // strictly increasing throughout
        prev = seg.ticks[i].t;
        if (i > 0) {
          EXPECT_EQ(seg.ticks[i].t - seg.ticks[i - 1].t, spec.tick_ms);
        }
      }
      covered += seg.ticks.back().t - seg.ticks.front().t;
    }
    // Total tick-grid span matches the source span minus the split gap,
    // up to one tick of truncation per segment.
    SimMillis source_span = 0;
    for (std::size_t i = 1; i < trace.points.size(); ++i) {
      const SimMillis step = trace.points[i].t - trace.points[i - 1].t;
      if (step <= spec.max_gap_ms) source_span += step;
    }
    EXPECT_LE(covered, source_span);
    EXPECT_GT(covered, source_span - 2 * spec.tick_ms);
    // Ticks never leave the recorded window.
    EXPECT_GE(segments.front().ticks.front().t, trace.points.front().t);
    EXPECT_LE(segments.back().ticks.back().t, trace.points.back().t);
  }
}

TEST(IngestTest, HoldAndInterpolateFillBetweenSamples) {
  CanonicalTrace trace;
  for (const auto& [t, dl] : std::vector<std::pair<SimMillis, double>>{
           {0, 10.0}, {1000, 20.0}}) {
    replay::TraceSample p;
    p.t = t;
    p.cap_dl = dl;
    p.cap_ul = dl / 10.0;
    p.rtt = 100.0 - dl;
    trace.points.push_back(p);
  }
  ResampleSpec spec;  // tick 500
  const std::vector<TraceSegment> hold = helpers::resample_all(trace, spec);
  ASSERT_EQ(hold.size(), 1u);
  ASSERT_EQ(hold[0].ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(hold[0].ticks[1].cap_dl, 10.0);

  spec.fill = replay::HoldPolicy::Interpolate;
  const std::vector<TraceSegment> lerp = helpers::resample_all(trace, spec);
  ASSERT_EQ(lerp[0].ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(lerp[0].ticks[1].cap_dl, 15.0);
  EXPECT_DOUBLE_EQ(lerp[0].ticks[1].cap_ul, 1.5);
  EXPECT_DOUBLE_EQ(lerp[0].ticks[1].rtt, 85.0);
  EXPECT_DOUBLE_EQ(lerp[0].ticks[2].cap_dl, 20.0);
}

TEST(IngestTest, MaxGapZeroKeepsOneSegment) {
  const CanonicalTrace trace = irregular_trace();
  ResampleSpec spec;
  spec.max_gap_ms = 0;
  EXPECT_EQ(helpers::resample_all(trace, spec).size(), 1u);

  spec.max_gap_ms = 250;  // < tick_ms
  EXPECT_THROW((void)helpers::resample_all(trace, spec),
               std::invalid_argument);
}

// --- multi-carrier joins ----------------------------------------------------

TEST(IngestTest, JoinSpecParsesCanonicalCarrierNames) {
  const std::vector<JoinEntry> entries =
      parse_join_spec("T-Mobile=b.csv,Verizon=a.csv");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].carrier, radio::Carrier::TMobile);
  EXPECT_EQ(entries[0].path, "b.csv");
  EXPECT_EQ(entries[1].carrier, radio::Carrier::Verizon);
  EXPECT_THROW((void)parse_join_spec("Verizon"), std::runtime_error);
  EXPECT_THROW((void)parse_join_spec("=a.csv"), std::runtime_error);
  EXPECT_THROW((void)parse_join_spec("Sprint=a.csv"), std::runtime_error);
}

TEST(IngestTest, JoinAlignsClocksAndOrdersCarriersCanonically) {
  const IngestOptions options;
  const JoinOptions join;  // align, no trim
  const std::vector<JoinEntry> entries{
      {radio::Carrier::TMobile, fixture("monroe.csv")},
      {radio::Carrier::Verizon, fixture("minimal.csv")},
  };
  const replay::ReplayBundle bundle =
      ingest_join("auto", entries, options, join);
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  // Canonical carrier order regardless of argument order, ids from 1.
  ASSERT_EQ(bundle.db.tests.size(), 6u);
  EXPECT_EQ(bundle.db.tests[0].id, 1u);
  EXPECT_EQ(bundle.db.tests[0].carrier, radio::Carrier::Verizon);
  EXPECT_EQ(bundle.db.tests[3].carrier, radio::Carrier::TMobile);
  // Clock alignment: both carriers' tests start on the shared t = 0.
  EXPECT_EQ(bundle.db.tests[0].start, 0);
  EXPECT_EQ(bundle.db.tests[3].start, 0);
  EXPECT_GT(bundle.db.experiment_runtime[0], 0.0);
}

TEST(IngestTest, JoinTrimsToTheOverlapWindow) {
  const auto flat_trace = [](SimMillis from, SimMillis to) {
    CanonicalTrace t;
    for (SimMillis ts = from; ts <= to; ts += 500) {
      replay::TraceSample p;
      p.t = ts;
      p.cap_dl = 10.0;
      p.cap_ul = 1.0;
      p.rtt = 40.0;
      t.points.push_back(p);
    }
    return t;
  };
  const auto join_with_b = [&](SimMillis from, SimMillis to) {
    std::vector<StreamSource> sources;
    sources.push_back({radio::Carrier::Verizon, "a",
                       helpers::produce_points(flat_trace(0, 5000))});
    sources.push_back({radio::Carrier::TMobile, "b",
                       helpers::produce_points(flat_trace(from, to))});
    JoinOptions join;
    join.align_clocks = false;
    join.trim_to_overlap = true;
    return join_streams(std::move(sources), join, ResampleSpec{});
  };
  const replay::ReplayBundle bundle = join_with_b(2000, 8000);
  // Overlap is [2000, 5000]: both carriers' windows agree after trimming.
  for (const measure::TestRecord& t : bundle.db.tests) {
    EXPECT_EQ(t.start, 2000);
    EXPECT_EQ(t.end, 5500);
  }

  // Disjoint traces cannot be trimmed onto a shared window.
  EXPECT_THROW((void)join_with_b(9000, 12000), std::runtime_error);
}

TEST(IngestTest, JoinRejectsDuplicateCarriers) {
  const IngestOptions options;
  const std::vector<JoinEntry> entries{
      {radio::Carrier::Verizon, fixture("minimal.csv")},
      {radio::Carrier::Verizon, fixture("errant.csv")},
  };
  const std::string err = error_of(
      [&] { (void)ingest_join("auto", entries, options, JoinOptions{}); });
  EXPECT_NE(err.find("appears twice"), std::string::npos);
  EXPECT_NE(err.find("Verizon"), std::string::npos);
}

TEST(IngestTest, JoinedBundleReplaysByteIdenticalAcrossFleetThreads) {
  const IngestOptions options;
  const std::vector<JoinEntry> entries{
      {radio::Carrier::Verizon, fixture("minimal.csv")},
      {radio::Carrier::TMobile, fixture("monroe.csv")},
      {radio::Carrier::Att, fixture("errant.csv")},
  };
  const replay::ReplayBundle bundle =
      ingest_join("auto", entries, options, JoinOptions{});
  EXPECT_TRUE(measure::validate(bundle.db).empty());

  const auto csv_at = [&](int threads) {
    replay::FleetConfig cfg;
    cfg.threads = threads;
    replay::apply_grid_axis(cfg.grid, "server=cloud,edge");
    const replay::FleetResult result =
        replay::ReplayFleet{cfg}.run({{"joined", &bundle}});
    std::ostringstream os;
    replay::write_fleet_csv(os, result);
    return os.str();
  };
  const std::string one = csv_at(1);
  EXPECT_EQ(one, csv_at(4));
  EXPECT_NE(one.find("T-Mobile"), std::string::npos);
}

// --- segmented ingest -------------------------------------------------------

TEST(IngestTest, GapSplitTracesBecomeMultiCycleBundles) {
  CanonicalTrace trace;
  for (const SimMillis t : {0, 500, 1000, 30'000, 30'500}) {
    replay::TraceSample p;
    p.t = t;
    p.cap_dl = 20.0;
    p.cap_ul = 2.0;
    p.rtt = 50.0;
    trace.points.push_back(p);
  }
  const replay::ReplayBundle bundle =
      helpers::bundle_of(trace, radio::Carrier::Att, ResampleSpec{});
  EXPECT_TRUE(measure::validate(bundle.db).empty());
  // Two segments -> two test triples, cycle tagging the segment index.
  ASSERT_EQ(bundle.db.tests.size(), 6u);
  EXPECT_EQ(bundle.db.tests[0].cycle, 0);
  EXPECT_EQ(bundle.db.tests[3].cycle, 1);
  EXPECT_EQ(bundle.db.tests[3].start, 30'000);
}

}  // namespace
}  // namespace wheels::ingest
