#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/obs/manifest.hpp"
#include "core/obs/trace_export.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/ingest.hpp"

namespace wheels::measure {
namespace {

const ConsolidatedDb& tiny_campaign_db() {
  static const ConsolidatedDb db = [] {
    campaign::CampaignConfig cfg;
    cfg.scale = 0.01;
    cfg.seed = 321;
    return campaign::DriveCampaign{cfg}.run();
  }();
  return db;
}

TEST(CsvExport, KpiRoundTrip) {
  const auto& db = tiny_campaign_db();
  std::stringstream ss;
  write_kpis_csv(ss, db);
  const auto back = read_kpis_csv(ss);
  ASSERT_EQ(back.size(), db.kpis.size());
  for (std::size_t i = 0; i < back.size(); i += 37) {
    EXPECT_EQ(back[i].test_id, db.kpis[i].test_id);
    EXPECT_EQ(back[i].t, db.kpis[i].t);
    EXPECT_EQ(back[i].carrier, db.kpis[i].carrier);
    EXPECT_EQ(back[i].tech, db.kpis[i].tech);
    EXPECT_EQ(back[i].cell_id, db.kpis[i].cell_id);
    EXPECT_EQ(back[i].mcs, db.kpis[i].mcs);
    EXPECT_EQ(back[i].handovers, db.kpis[i].handovers);
    EXPECT_EQ(back[i].is_static, db.kpis[i].is_static);
    // Doubles are written with max_digits10, so the roundtrip is bit-exact —
    // these would fail under the old default 6-significant-digit formatting.
    EXPECT_EQ(back[i].throughput, db.kpis[i].throughput);
    EXPECT_EQ(back[i].rsrp, db.kpis[i].rsrp);
    EXPECT_EQ(back[i].bler, db.kpis[i].bler);
    EXPECT_EQ(back[i].speed, db.kpis[i].speed);
    EXPECT_EQ(back[i].km, db.kpis[i].km);
    EXPECT_EQ(back[i].map_km, db.kpis[i].map_km);
  }
}

TEST(CsvExport, KpiDoublesRoundTripBitExact) {
  // Values chosen to be unrepresentable in 6 significant digits.
  ConsolidatedDb db;
  KpiRecord k;
  k.test_id = 7;
  k.t = 1234567;
  k.rsrp = -97.123456789012345;
  k.bler = 0.1000000000000000055511151231257827;  // nearest double to 0.1
  k.throughput = 123.45678901234567;
  k.speed = 65.4321098765432;
  k.km = 1234.5678901234567;
  k.map_km = 4321.9876543210987;
  db.kpis.push_back(k);

  std::stringstream ss;
  write_kpis_csv(ss, db);
  const auto back = read_kpis_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].rsrp, k.rsrp);
  EXPECT_EQ(back[0].bler, k.bler);
  EXPECT_EQ(back[0].throughput, k.throughput);
  EXPECT_EQ(back[0].speed, k.speed);
  EXPECT_EQ(back[0].km, k.km);
  EXPECT_EQ(back[0].map_km, k.map_km);
}

TEST(CsvExport, StreamPrecisionIsRestored) {
  ConsolidatedDb db;
  std::stringstream ss;
  const auto before = ss.precision();
  write_kpis_csv(ss, db);
  EXPECT_EQ(ss.precision(), before);
}

TEST(CsvExport, RttRoundTrip) {
  const auto& db = tiny_campaign_db();
  std::stringstream ss;
  write_rtts_csv(ss, db);
  const auto back = read_rtts_csv(ss);
  ASSERT_EQ(back.size(), db.rtts.size());
  for (std::size_t i = 0; i < back.size(); i += 53) {
    EXPECT_EQ(back[i].carrier, db.rtts[i].carrier);
    EXPECT_EQ(back[i].tech, db.rtts[i].tech);
    EXPECT_EQ(back[i].rtt, db.rtts[i].rtt);
    EXPECT_EQ(back[i].speed, db.rtts[i].speed);
  }
}

TEST(CsvExport, RejectsWrongHeader) {
  std::stringstream ss{"not,a,header\n1,2,3\n"};
  EXPECT_THROW((void)read_kpis_csv(ss), std::runtime_error);
}

TEST(CsvExport, RejectsMalformedRow) {
  const auto& db = tiny_campaign_db();
  std::stringstream out;
  write_kpis_csv(out, db);
  std::string text = out.str();
  text += "1,2,3\n";  // truncated row appended
  std::stringstream in{text};
  EXPECT_THROW((void)read_kpis_csv(in), std::runtime_error);
}

TEST(CsvExport, AllTablesHaveHeadersAndRows) {
  const auto& db = tiny_campaign_db();
  auto lines_of = [](auto&& writer) {
    std::stringstream ss;
    writer(ss);
    int lines = 0;
    std::string line;
    while (std::getline(ss, line)) ++lines;
    return lines;
  };
  EXPECT_GT(lines_of([&](std::ostream& os) { write_tests_csv(os, db); }), 10);
  EXPECT_GT(lines_of([&](std::ostream& os) { write_handovers_csv(os, db); }),
            2);
  EXPECT_GT(lines_of([&](std::ostream& os) { write_app_runs_csv(os, db); }),
            5);
  EXPECT_GT(lines_of([&](std::ostream& os) {
              write_coverage_csv(os, db.active_coverage[0],
                                 radio::Carrier::Verizon, false);
            }),
            2);
}

TEST(CsvExport, DatasetBundleWritesAllFiles) {
  const auto& db = tiny_campaign_db();
  const std::string dir = "/tmp/wheels-dataset-test";
  std::filesystem::remove_all(dir);
  const auto files = write_dataset(db, dir, core::obs::make_run_manifest());
  // 5 tables + link_ticks.csv (campaigns record app-session link traces)
  // + 2 coverage views x 3 carriers + summary.csv + cells.csv +
  // manifest.json.
  EXPECT_EQ(files.size(), 15u);
  for (const auto& f : files) {
    EXPECT_TRUE(std::filesystem::exists(f)) << f;
    EXPECT_GT(std::filesystem::file_size(f), 10u) << f;
  }
  // Spot-check one file parses back.
  std::ifstream is{dir + "/kpis.csv"};
  EXPECT_EQ(read_kpis_csv(is).size(), db.kpis.size());
  std::filesystem::remove_all(dir);
}

TEST(CsvExport, DatasetBundleIncludesManifest) {
  const auto& db = tiny_campaign_db();
  const std::string dir = "/tmp/wheels-dataset-manifest-test";
  std::filesystem::remove_all(dir);
  campaign::CampaignConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 321;
  (void)write_dataset(db, dir, campaign::make_manifest(cfg));

  std::ifstream is{dir + "/manifest.json"};
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"seed\": 321"), std::string::npos) << text;
  EXPECT_NE(text.find("\"scale\": 0.01"), std::string::npos) << text;
  EXPECT_NE(text.find("\"config_digest\": \""), std::string::npos) << text;
  EXPECT_NE(text.find("\"library_version\": \""), std::string::npos) << text;
  EXPECT_NE(text.find("\"started_utc\": \""), std::string::npos) << text;
  std::filesystem::remove_all(dir);
}

TEST(CsvExport, ManifestDigestTracksConfig) {
  campaign::CampaignConfig a;
  campaign::CampaignConfig b = a;
  EXPECT_EQ(campaign::make_manifest(a).config_digest,
            campaign::make_manifest(b).config_digest);
  b.bulk_ticks += 1;
  EXPECT_NE(campaign::make_manifest(a).config_digest,
            campaign::make_manifest(b).config_digest);
  // The thread count never changes the produced data, so it must not change
  // the digest either.
  campaign::CampaignConfig c = a;
  c.threads = 8;
  EXPECT_EQ(campaign::make_manifest(a).config_digest,
            campaign::make_manifest(c).config_digest);
}

TEST(CsvExport, TestsRoundTrip) {
  const auto& db = tiny_campaign_db();
  std::stringstream ss;
  write_tests_csv(ss, db);
  const auto back = read_tests_csv(ss);
  ASSERT_EQ(back.size(), db.tests.size());
  for (std::size_t i = 0; i < back.size(); i += 11) {
    EXPECT_EQ(back[i].id, db.tests[i].id);
    EXPECT_EQ(back[i].type, db.tests[i].type);
    EXPECT_EQ(back[i].carrier, db.tests[i].carrier);
    EXPECT_EQ(back[i].is_static, db.tests[i].is_static);
    EXPECT_EQ(back[i].start, db.tests[i].start);
    EXPECT_EQ(back[i].end, db.tests[i].end);
    EXPECT_EQ(back[i].start_km, db.tests[i].start_km);
    EXPECT_EQ(back[i].end_km, db.tests[i].end_km);
    EXPECT_EQ(back[i].tz, db.tests[i].tz);
    EXPECT_EQ(back[i].server, db.tests[i].server);
    EXPECT_EQ(back[i].direction, db.tests[i].direction);
    EXPECT_EQ(back[i].cycle, db.tests[i].cycle);
  }
}

TEST(CsvExport, HandoverRoundTrip) {
  const auto& db = tiny_campaign_db();
  ASSERT_FALSE(db.handovers.empty());
  std::stringstream ss;
  write_handovers_csv(ss, db);
  const auto back = read_handovers_csv(ss);
  ASSERT_EQ(back.size(), db.handovers.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].test_id, db.handovers[i].test_id);
    EXPECT_EQ(back[i].carrier, db.handovers[i].carrier);
    EXPECT_EQ(back[i].direction, db.handovers[i].direction);
    EXPECT_EQ(back[i].event.t, db.handovers[i].event.t);
    EXPECT_EQ(back[i].event.duration, db.handovers[i].event.duration);
    EXPECT_EQ(back[i].event.from, db.handovers[i].event.from);
    EXPECT_EQ(back[i].event.to, db.handovers[i].event.to);
    EXPECT_EQ(back[i].event.from_cell, db.handovers[i].event.from_cell);
    EXPECT_EQ(back[i].event.to_cell, db.handovers[i].event.to_cell);
    EXPECT_EQ(back[i].event.type, db.handovers[i].event.type);
  }
}

TEST(CsvExport, AppRunRoundTrip) {
  const auto& db = tiny_campaign_db();
  ASSERT_FALSE(db.app_runs.empty());
  std::stringstream ss;
  write_app_runs_csv(ss, db);
  const auto back = read_app_runs_csv(ss);
  ASSERT_EQ(back.size(), db.app_runs.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].test_id, db.app_runs[i].test_id);
    EXPECT_EQ(back[i].app, db.app_runs[i].app);
    EXPECT_EQ(back[i].carrier, db.app_runs[i].carrier);
    EXPECT_EQ(back[i].compressed, db.app_runs[i].compressed);
    EXPECT_EQ(back[i].median_e2e, db.app_runs[i].median_e2e);
    EXPECT_EQ(back[i].qoe, db.app_runs[i].qoe);
    EXPECT_EQ(back[i].avg_bitrate, db.app_runs[i].avg_bitrate);
    EXPECT_EQ(back[i].gaming_latency, db.app_runs[i].gaming_latency);
    EXPECT_EQ(back[i].gaming_max_frame_drop,
              db.app_runs[i].gaming_max_frame_drop);
  }
}

TEST(CsvExport, CoverageRoundTrip) {
  const auto& db = tiny_campaign_db();
  const auto& segs = db.active_coverage[0];
  ASSERT_FALSE(segs.empty());
  std::stringstream ss;
  write_coverage_csv(ss, segs, radio::Carrier::Verizon, false);
  const auto back = read_coverage_csv(ss, radio::Carrier::Verizon, false);
  ASSERT_EQ(back.size(), segs.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].map_km_start, segs[i].map_km_start);
    EXPECT_EQ(back[i].map_km_end, segs[i].map_km_end);
    EXPECT_EQ(back[i].tech, segs[i].tech);
  }
}

TEST(CsvExport, CoverageRejectsWrongCarrier) {
  const auto& db = tiny_campaign_db();
  std::stringstream ss;
  write_coverage_csv(ss, db.active_coverage[0], radio::Carrier::Verizon,
                     false);
  EXPECT_THROW((void)read_coverage_csv(ss, radio::Carrier::Att, false),
               std::runtime_error);
}

TEST(CsvExport, SummaryAndCellsRoundTrip) {
  const auto& db = tiny_campaign_db();
  std::stringstream summary;
  write_summary_csv(summary, db);
  std::stringstream cells;
  write_cells_csv(cells, db);

  ConsolidatedDb back;
  read_summary_csv(summary, back);
  read_cells_csv(cells, back);
  EXPECT_EQ(back.driven_km, db.driven_km);
  EXPECT_EQ(back.rx_bytes, db.rx_bytes);
  EXPECT_EQ(back.tx_bytes, db.tx_bytes);
  for (std::size_t ci = 0; ci < radio::kCarrierCount; ++ci) {
    EXPECT_EQ(back.experiment_runtime[ci], db.experiment_runtime[ci]);
    EXPECT_EQ(back.passive[ci].handovers, db.passive[ci].handovers);
    EXPECT_EQ(back.passive[ci].pings, db.passive[ci].pings);
    EXPECT_EQ(back.active_cells[ci], db.active_cells[ci]);
    EXPECT_EQ(back.passive[ci].cells, db.passive[ci].cells);
  }
}

// --- malformed-input hardening -------------------------------------------

/// Run `read` on `text` and return the exception message.
template <typename Read>
std::string error_of(const std::string& text, Read read) {
  std::stringstream ss{text};
  try {
    read(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

constexpr char kTestsHeader[] =
    "id,type,carrier,is_static,start,end,start_km,end_km,tz,server,"
    "direction,cycle\n";
constexpr char kRttsHeader[] =
    "test_id,t,carrier,tech,rtt,speed,tz,server,is_static\n";

TEST(CsvExport, TruncatedRowReportsLineNumber) {
  const std::string text =
      std::string{kTestsHeader} +
      "1,downlink-bulk,Verizon,0,0,1000,0,1,Pacific,cloud,downlink,0\n"
      "2,uplink-bulk,Verizon\n";
  const std::string msg =
      error_of(text, [](std::istream& is) { (void)read_tests_csv(is); });
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(CsvExport, UnknownEnumNameReportsLineNumber) {
  const std::string text =
      std::string{kTestsHeader} +
      "1,downlink-bulk,Vodafone,0,0,1000,0,1,Pacific,cloud,downlink,0\n";
  const std::string msg =
      error_of(text, [](std::istream& is) { (void)read_tests_csv(is); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Vodafone"), std::string::npos) << msg;
}

TEST(CsvExport, NonFiniteFieldRejected) {
  for (const char* bad : {"nan", "inf", "-inf"}) {
    const std::string text =
        std::string{kRttsHeader} + "1,0,Verizon,LTE," + bad +
        ",0,Pacific,cloud,0\n";
    const std::string msg =
        error_of(text, [](std::istream& is) { (void)read_rtts_csv(is); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << bad << ": " << msg;
  }
}

TEST(CsvExport, DuplicatedHeaderRejected) {
  const std::string text = std::string{kRttsHeader} + kRttsHeader +
                           "1,0,Verizon,LTE,50,0,Pacific,cloud,0\n";
  const std::string msg =
      error_of(text, [](std::istream& is) { (void)read_rtts_csv(is); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicated header"), std::string::npos) << msg;
}

TEST(CsvExport, MalformedBoolRejected) {
  const std::string text =
      std::string{kRttsHeader} + "1,0,Verizon,LTE,50,0,Pacific,cloud,true\n";
  const std::string msg =
      error_of(text, [](std::istream& is) { (void)read_rtts_csv(is); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

/// The tiny campaign's summary.csv: a header and 12 rows.
std::string tiny_summary_text() {
  std::stringstream ss;
  write_summary_csv(ss, tiny_campaign_db());
  return ss.str();
}

std::string summary_error(const std::string& text) {
  return error_of(text, [](std::istream& is) {
    ConsolidatedDb db;
    read_summary_csv(is, db);
  });
}

TEST(CsvExport, SummaryRejectsRepeatedRow) {
  const std::string text = tiny_summary_text();
  ASSERT_EQ(summary_error(text), "");
  std::string msg = summary_error(text + "driven_km,,1\n");
  EXPECT_NE(msg.find("line 14: repeated summary row 'driven_km,'"),
            std::string::npos)
      << msg;
  msg = summary_error(text + "passive_pings,AT&T,3\n");
  EXPECT_NE(msg.find("line 14: repeated summary row 'passive_pings,AT&T'"),
            std::string::npos)
      << msg;
}

TEST(CsvExport, SummaryRejectsMissingRow) {
  const std::string text = tiny_summary_text();
  const auto without = [&](const std::string& prefix) {
    const std::size_t at = text.find("\n" + prefix) + 1;
    EXPECT_NE(at, 0u) << prefix;
    return text.substr(0, at) + text.substr(text.find('\n', at) + 1);
  };
  std::string msg = summary_error(without("rx_bytes,"));
  EXPECT_NE(msg.find("missing summary key 'rx_bytes'"), std::string::npos)
      << msg;
  msg = summary_error(without("experiment_runtime,T-Mobile,"));
  EXPECT_NE(msg.find("missing summary key 'experiment_runtime' for carrier "
                     "T-Mobile"),
            std::string::npos)
      << msg;
}

// --- reader edge cases -----------------------------------------------------

/// One rtts.csv row with the given t and rtt fields.
std::string rtt_row(const std::string& t, const std::string& rtt) {
  return "1," + t + ",Verizon,LTE," + rtt + ",0,Pacific,cloud,0\n";
}

std::string rtts_error(const std::string& body) {
  return error_of(std::string{kRttsHeader} + body,
                  [](std::istream& is) { (void)read_rtts_csv(is); });
}

TEST(CsvExport, CommentLineReportsLineNumber) {
  const std::string msg = rtts_error(rtt_row("0", "50") + "# note\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(CsvExport, CrlfAndMissingFinalNewlineAccepted) {
  std::stringstream ss{
      "test_id,t,carrier,tech,rtt,speed,tz,server,is_static\r\n"
      "1,0,Verizon,LTE,50,0,Pacific,cloud,0\r\n"
      "1,500,Verizon,LTE,51.5,0,Pacific,cloud,1"};
  const auto back = read_rtts_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].t, 500);
  EXPECT_EQ(back[1].rtt, 51.5);
  EXPECT_TRUE(back[1].is_static);
}

TEST(CsvExport, BlankLinesCountInLineNumbers) {
  const std::string msg =
      rtts_error(rtt_row("0", "50") + "\n\r\n\n" + rtt_row("1", "x"));
  EXPECT_NE(msg.find("line 6:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("malformed number 'x'"), std::string::npos) << msg;
}

TEST(CsvExport, OverlongLineFailsFieldCountWithLineNumber) {
  // Longer than any read block, so the reader must grow its buffer to find
  // the end of the line.
  const std::string huge(std::size_t{3} << 20, '7');
  const std::string msg = rtts_error(rtt_row("0", "50") + huge + "\n");
  EXPECT_NE(msg.find("line 3: expected 9 fields, got 1"), std::string::npos)
      << msg.substr(0, 200);
}

TEST(CsvExport, DenormalAndNegativeZeroReadBackBitExact) {
  std::stringstream ss{std::string{kRttsHeader} +
                       rtt_row("0", "4.9406564584124654e-324") +
                       rtt_row("1", "-0")};
  const auto back = read_rtts_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back[0].rtt),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back[1].rtt),
            std::bit_cast<std::uint64_t>(-0.0));
}

TEST(CsvExport, OverflowFailsOutOfRange) {
  const std::string number = rtts_error(rtt_row("0", "1e999"));
  EXPECT_NE(number.find("line 2: number out of range '1e999'"),
            std::string::npos)
      << number;
  const std::string integer = rtts_error(rtt_row("99999999999999999999", "50"));
  EXPECT_NE(integer.find("line 2: integer out of range"), std::string::npos)
      << integer;
}

TEST(CsvExport, NumberFormsTheWriterNeverEmitsAreRejected) {
  for (const std::string bad : {"+1.5", " 1.5", "0x1p3"}) {
    const std::string msg = rtts_error(rtt_row("0", "50") + rtt_row("1", bad));
    EXPECT_NE(msg.find("line 3: malformed number '" + bad + "'"),
              std::string::npos)
        << bad << ": " << msg;
  }
  // An underflow to zero or a denormal is no longer read as 0.
  const std::string tiny = rtts_error(rtt_row("0", "1e-400"));
  EXPECT_NE(tiny.find("line 2: number out of range '1e-400'"),
            std::string::npos)
      << tiny;
  for (const std::string bad : {"+5", " 5"}) {
    const std::string msg = rtts_error(rtt_row(bad, "50"));
    EXPECT_NE(msg.find("line 2: malformed integer '" + bad + "'"),
              std::string::npos)
        << bad << ": " << msg;
  }
}

/// What the writers printed through an ostream at max_digits10, kept as the
/// oracle for the to_chars formatter.
std::string ostream_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

TEST(CsvExport, CsvDoubleMatchesOstreamAtMaxDigits10) {
  using limits = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, limits::denorm_min(), limits::min(), limits::max(),
        limits::lowest(), 0.1, 1e21, 1e-5, 9007199254740993.0}) {
    EXPECT_EQ(csv_double(v), ostream_double(v)) << ostream_double(v);
  }
  std::mt19937_64 bits{20231024};
  int checked = 0;
  while (checked < 200'000) {
    const double v = std::bit_cast<double>(bits());
    if (!std::isfinite(v)) continue;
    ++checked;
    ASSERT_EQ(csv_double(v), ostream_double(v));
  }
}

// --- write failures ---------------------------------------------------------

/// A fresh bundle directory whose `file` is a symlink to /dev/full, so every
/// write into that file fails with ENOSPC.
std::string bundle_dir_with_full_file(const std::string& dir_name,
                                      const std::string& file) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / dir_name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir / file);
  return dir.string();
}

TEST(CsvExport, TableWriteFailureThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir =
      bundle_dir_with_full_file("wheels-dataset-full-table", "kpis.csv");
  try {
    (void)write_dataset(tiny_campaign_db(), dir,
                        core::obs::make_run_manifest());
    ADD_FAILURE() << "a bundle with a lost kpis.csv was reported written";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}, "csv: cannot write " + dir + "/kpis.csv");
  }
  std::filesystem::remove_all(dir);
}

TEST(CsvExport, ManifestWriteFailureThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = bundle_dir_with_full_file(
      "wheels-dataset-full-manifest", "manifest.json");
  try {
    (void)write_dataset(tiny_campaign_db(), dir,
                        core::obs::make_run_manifest());
    ADD_FAILURE() << "a bundle with a lost manifest.json was reported written";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "manifest: cannot write " + dir + "/manifest.json");
  }
  std::filesystem::remove_all(dir);
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(CsvExport, BundleIoRecordsOneSpanPerTable) {
  auto& collector = core::obs::TraceCollector::global();
  const bool was_enabled = collector.enabled();
  collector.clear();
  collector.set_enabled(true);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wheels-dataset-span-test")
          .string();
  std::filesystem::remove_all(dir);
  (void)write_dataset(tiny_campaign_db(), dir,
                      core::obs::make_run_manifest());
  (void)replay::read_dataset(dir);
  collector.set_enabled(was_enabled);
  std::ostringstream os;
  collector.write_chrome_trace(os);
  collector.clear();
  std::filesystem::remove_all(dir);

  const std::string trace = os.str();
  EXPECT_EQ(count_of(trace, "\"measure.write_dataset\""), 1u);
  EXPECT_EQ(count_of(trace, "\"measure.write:"), 14u);
  EXPECT_EQ(count_of(trace, "\"measure.read:"), 14u);
  EXPECT_EQ(count_of(trace, "\"measure.write:kpis.csv\""), 1u);
  EXPECT_EQ(count_of(trace, "\"measure.read:kpis.csv\""), 1u);
  EXPECT_EQ(count_of(trace, "\"measure.validate\""), 1u);
}

TEST(CsvExport, RewrittenBundleKeepsNoStaleOptionalTable) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "wheels-dataset-stale-optional-test";
  fs::remove_all(dir);
  ConsolidatedDb with = tiny_campaign_db();
  ASSERT_FALSE(with.link_ticks.empty());
  CellLoadRecord load;
  load.ticks = 10;
  load.avg_attached = 2.0;
  load.avg_active = 1.0;
  load.avg_demand = 10.0;
  load.avg_allocated = 5.0;
  load.avg_capacity = 10.0;
  load.utilization = 0.5;
  load.fairness = 0.9;
  with.cell_load.push_back(load);
  (void)write_dataset(with, dir.string(), core::obs::make_run_manifest());
  ASSERT_TRUE(fs::exists(dir / "link_ticks.csv"));
  ASSERT_TRUE(fs::exists(dir / "cell_load.csv"));

  // The same directory again, from a db with neither table.
  ConsolidatedDb without = tiny_campaign_db();
  without.link_ticks.clear();
  const auto files =
      write_dataset(without, dir.string(), core::obs::make_run_manifest());
  EXPECT_EQ(files.size(), 14u);
  EXPECT_FALSE(fs::exists(dir / "link_ticks.csv"));
  EXPECT_FALSE(fs::exists(dir / "cell_load.csv"));
  const replay::ReplayBundle back = replay::read_dataset(dir.string());
  EXPECT_TRUE(back.db.link_ticks.empty());
  EXPECT_TRUE(back.db.cell_load.empty());
  fs::remove_all(dir);
}

/// One record table under test: its writer, its reader and the kind of
/// each column in file order (u id, i integer, d double, b bool, e enum).
struct RecordTableCase {
  const char* name;
  void (*write)(std::ostream&, const ConsolidatedDb&);
  void (*read)(std::istream&);
  std::string kinds;
};

/// A value each column kind rejects, and the message that rejects it.
std::pair<std::string, std::string> rejected_value(char kind) {
  switch (kind) {
    case 'u':
      return {"-1", "id out of range '-1'"};
    case 'i':
      return {"1.5", "malformed integer '1.5'"};
    case 'd':
      return {"x", "malformed number 'x'"};
    case 'b':
      return {"2", "malformed bool '2' (expected 0 or 1)"};
    default:
      return {"bogus", "name 'bogus'"};  // "unknown <enum> name 'bogus'"
  }
}

std::vector<std::string> split_on_commas(const std::string& row) {
  std::vector<std::string> cells;
  std::stringstream ss{row};
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

std::string joined(const std::vector<std::string>& cells) {
  std::string out;
  for (const std::string& c : cells) out += (out.empty() ? "" : ",") + c;
  return out;
}

TEST(CsvExport, EveryRecordColumnRejectsAMalformedValueWithItsLine) {
  ConsolidatedDb db;
  db.tests.emplace_back();
  db.kpis.emplace_back();
  db.rtts.emplace_back();
  db.handovers.emplace_back();
  db.app_runs.emplace_back();
  db.link_ticks.emplace_back();
  db.cell_load.emplace_back();
  const std::vector<RecordTableCase> tables = {
      {"tests", write_tests_csv,
       [](std::istream& is) { (void)read_tests_csv(is); }, "ueebiiddeeei"},
      {"kpis", write_kpis_csv,
       [](std::istream& is) { (void)read_kpis_csv(is); },
       "uieeudididdddeeieeb"},
      {"rtts", write_rtts_csv,
       [](std::istream& is) { (void)read_rtts_csv(is); }, "uieeddeeb"},
      {"handovers", write_handovers_csv,
       [](std::istream& is) { (void)read_handovers_csv(is); }, "ueeideeuue"},
      {"app_runs", write_app_runs_csv,
       [](std::istream& is) { (void)read_app_runs_csv(is); },
       "ueebedibdddddddddd"},
      {"link_ticks", write_link_ticks_csv,
       [](std::istream& is) { (void)read_link_ticks_csv(is); }, "uieeddddi"},
      {"cell_load", write_cell_load_csv,
       [](std::istream& is) { (void)read_cell_load_csv(is); },
       "eueiddddddd"},
  };
  for (const RecordTableCase& table : tables) {
    SCOPED_TRACE(table.name);
    std::stringstream out;
    table.write(out, db);
    std::string header;
    std::string row;
    std::getline(out, header);
    std::getline(out, row);
    const std::vector<std::string> cells = split_on_commas(row);
    ASSERT_EQ(cells.size(), table.kinds.size());
    ASSERT_EQ(split_on_commas(header).size(), table.kinds.size());
    const auto error_for = [&](const std::vector<std::string>& row_cells) {
      return error_of(header + "\n" + joined(row_cells) + "\n", table.read);
    };
    ASSERT_EQ(error_for(cells), "");

    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto [bad, message] = rejected_value(table.kinds[i]);
      std::vector<std::string> broken = cells;
      broken[i] = bad;
      const std::string msg = error_for(broken);
      if (table.kinds[i] == 'e') {
        EXPECT_EQ(msg.rfind("csv: line 2: unknown ", 0), 0u)
            << "column " << i << ": " << msg;
        EXPECT_TRUE(msg.ends_with(message)) << "column " << i << ": " << msg;
      } else {
        EXPECT_EQ(msg, "csv: line 2: " + message) << "column " << i;
      }
    }

    const std::string n = std::to_string(cells.size());
    std::vector<std::string> short_row = cells;
    short_row.pop_back();
    EXPECT_EQ(error_for(short_row), "csv: line 2: expected " + n +
                                        " fields, got " +
                                        std::to_string(cells.size() - 1));
    std::vector<std::string> long_row = cells;
    long_row.push_back("0");
    EXPECT_EQ(error_for(long_row), "csv: line 2: expected " + n +
                                       " fields, got " +
                                       std::to_string(cells.size() + 1));
  }
}

// --- chunked bundle reads --------------------------------------------------

namespace fs = std::filesystem;

/// A temp directory path unique to this process: ctest runs each test on
/// its own and again inside the tsan_smoke entry, possibly at once.
fs::path process_temp_dir(const std::string& name) {
  return fs::temp_directory_path() /
         (name + "-" + std::to_string(::getpid()));
}

/// Sets WHEELS_THREADS for one scope and restores what was there before.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    if (const char* v = std::getenv("WHEELS_THREADS")) saved_ = v;
    ::setenv("WHEELS_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (saved_) {
      ::setenv("WHEELS_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("WHEELS_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

/// The seven record tables of `db` as the writers print them, in file
/// order. Every record field is a column and doubles print bit-exact, so
/// equal texts mean equal records, field by field.
std::vector<std::string> record_texts(const ConsolidatedDb& db) {
  std::vector<std::string> texts;
  for (const auto write :
       {write_tests_csv, write_kpis_csv, write_rtts_csv, write_handovers_csv,
        write_app_runs_csv, write_link_ticks_csv, write_cell_load_csv}) {
    std::ostringstream os;
    write(os, db);
    texts.push_back(os.str());
  }
  return texts;
}

/// The record tables of the bundle at `dir`, each through its stream reader.
ConsolidatedDb read_record_streams(const fs::path& dir) {
  const auto read = [&](const char* file, auto reader) {
    std::ifstream is{dir / file};
    return reader(is);
  };
  ConsolidatedDb db;
  db.tests = read("tests.csv", read_tests_csv);
  db.kpis = read("kpis.csv", read_kpis_csv);
  db.rtts = read("rtts.csv", read_rtts_csv);
  db.handovers = read("handovers.csv", read_handovers_csv);
  db.app_runs = read("app_runs.csv", read_app_runs_csv);
  db.link_ticks = read("link_ticks.csv", read_link_ticks_csv);
  db.cell_load = read("cell_load.csv", read_cell_load_csv);
  return db;
}

/// Appends copies of `rows` to itself until the table prints at least
/// `bytes`, marking copy i through `mark`, so that no two rows are alike.
template <typename Record, typename Mark>
void grow_table(std::vector<Record>& rows, std::size_t bytes,
                std::size_t row_bytes, Mark mark) {
  const std::vector<Record> base = rows;
  for (std::size_t copy = 1; rows.size() * row_bytes < bytes; ++copy) {
    for (Record r : base) {
      mark(r, copy);
      rows.push_back(r);
    }
  }
}

/// The tiny campaign with every record table spanning at least 8 read
/// chunks (cell_load is filled in, the campaign records none).
ConsolidatedDb eight_chunk_db() {
  ConsolidatedDb db = tiny_campaign_db();
  for (std::uint32_t id = 0; id < 64; ++id) {
    CellLoadRecord load;
    load.cell_id = id;
    load.ticks = 1000 + id;
    load.avg_attached = 2.5 + id;
    load.avg_active = 1.25;
    load.avg_demand = 10.0 / (id + 1);
    load.avg_allocated = 5.0;
    load.avg_capacity = 10.0;
    load.utilization = 0.5;
    load.fairness = 0.9;
    db.cell_load.push_back(load);
  }
  // Each table grows until its rows × a typical row length reach this; the
  // test checks the file sizes it gets.
  const std::size_t bytes = 8 * kReadChunkBytes;
  const auto shift = [](auto field) {
    return [field](auto& r, std::size_t copy) {
      r.*field += static_cast<SimMillis>(copy) * 1'000'000'000;
    };
  };
  grow_table(db.tests, bytes, 90, shift(&TestRecord::start));
  grow_table(db.kpis, bytes, 170, shift(&KpiRecord::t));
  grow_table(db.rtts, bytes, 70, shift(&RttRecord::t));
  grow_table(db.handovers, bytes, 70,
             [](HandoverRecord& r, std::size_t copy) {
               r.event.t += static_cast<SimMillis>(copy) * 1'000'000'000;
             });
  grow_table(db.app_runs, bytes, 90, [](AppRunRecord& r, std::size_t copy) {
    r.test_id += static_cast<std::uint32_t>(copy) * 100'000;
  });
  grow_table(db.link_ticks, bytes, 80, shift(&LinkTickRecord::t));
  grow_table(db.cell_load, bytes, 50, [](CellLoadRecord& r, std::size_t copy) {
    r.cell_id += static_cast<std::uint32_t>(copy) * 1000;
  });
  return db;
}

TEST(CsvExport, ChunkedReadMatchesStreamReadersAtEveryWidth) {
  const fs::path dir = process_temp_dir("wheels-chunked-read-test");
  fs::remove_all(dir);
  const ConsolidatedDb db = eight_chunk_db();
  (void)write_dataset(db, dir.string(), core::obs::make_run_manifest());
  for (const char* file :
       {"tests.csv", "kpis.csv", "rtts.csv", "handovers.csv", "app_runs.csv",
        "link_ticks.csv", "cell_load.csv"}) {
    EXPECT_GE(fs::file_size(dir / file), 8 * kReadChunkBytes) << file;
  }
  const std::vector<std::string> streamed =
      record_texts(read_record_streams(dir));
  ASSERT_TRUE(streamed == record_texts(db));
  for (const char* threads : {"1", "4"}) {
    const ScopedThreads width{threads};
    const ConsolidatedDb back = read_dataset_tables(dir.string());
    const std::vector<std::string> texts = record_texts(back);
    ASSERT_EQ(texts.size(), streamed.size());
    for (std::size_t t = 0; t < texts.size(); ++t) {
      EXPECT_TRUE(texts[t] == streamed[t])
          << "WHEELS_THREADS=" << threads << ", table " << t;
    }
    // Sized once from pass 1's counts, never grown.
    EXPECT_EQ(back.kpis.capacity(), back.kpis.size());
    EXPECT_EQ(back.link_ticks.capacity(), back.link_ticks.size());
  }
  fs::remove_all(dir);
}

/// A fresh bundle of the tiny campaign in a temp directory of its own.
fs::path tiny_bundle(const std::string& name) {
  const fs::path dir = process_temp_dir(name);
  fs::remove_all(dir);
  (void)write_dataset(tiny_campaign_db(), dir.string(),
                      core::obs::make_run_manifest());
  return dir;
}

/// Replaces `file` of the bundle at `dir` with `text`.
void put_file(const fs::path& dir, const std::string& file,
              const std::string& text) {
  std::ofstream{dir / file, std::ios::binary} << text;
}

/// What read_dataset_tables makes of the bundle at `dir`: its rtts table as
/// the writer prints it, or its error without the path prefix.
std::string rtts_via_bundle(const fs::path& dir) {
  try {
    const ConsolidatedDb db = read_dataset_tables(dir.string());
    std::ostringstream os;
    write_rtts_csv(os, db);
    return os.str();
  } catch (const std::runtime_error& e) {
    const std::string prefix = (dir / "rtts.csv").string() + ": ";
    const std::string msg = e.what();
    return msg.starts_with(prefix) ? msg.substr(prefix.size()) : msg;
  }
}

/// What the stream reader makes of `text`, in the same form.
std::string rtts_via_stream(const std::string& text) {
  std::stringstream is{text};
  try {
    ConsolidatedDb db;
    db.rtts = read_rtts_csv(is);
    std::ostringstream os;
    write_rtts_csv(os, db);
    return os.str();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

/// rtts.csv text whose line `feature` starts at byte `at`, with every line
/// ended by `eol`: rows in front of it, the last one padded to length with
/// leading zeros in `t`, and one row after it, itself unterminated unless
/// `final_eol`.
std::string rtts_with_line_at(std::size_t at, const std::string& feature,
                              const std::string& eol, bool final_eol = true) {
  std::string text =
      "test_id,t,carrier,tech,rtt,speed,tz,server,is_static" + eol;
  const auto row = [&](std::size_t t) {
    return "1," + std::to_string(t) + ",Verizon,LTE,50.5,0,Pacific,cloud,0" +
           eol;
  };
  const std::size_t bare = row(0).size() - 1;  // a row without its t
  std::size_t t = 0;
  while (at - text.size() > 2 * (bare + 20)) text += row(t++);
  std::string padded = row(t++);
  padded.insert(2, at - text.size() - padded.size(), '0');
  text += padded;
  text += feature + eol + row(t);
  if (!final_eol) text.resize(text.size() - eol.size());
  return text;
}

TEST(CsvExport, ChunkBoundariesReadAsTheStreamReaderDoes) {
  const std::string header =
      "test_id,t,carrier,tech,rtt,speed,tz,server,is_static";
  const std::string good = "7,123,Verizon,NR,51.25,3,Pacific,edge,1";
  const fs::path dir = tiny_bundle("wheels-chunk-boundary-test");
  for (const std::size_t at :
       {kReadChunkBytes - 1, kReadChunkBytes, kReadChunkBytes + 1,
        3 * kReadChunkBytes}) {
    struct Case {
      std::string what;
      std::string text;
    };
    const std::vector<Case> cases = {
        {"crlf", rtts_with_line_at(at, good, "\r\n")},
        {"crlf, cut between cr and lf",
         rtts_with_line_at(at + 1, good, "\r\n")},
        {"blank line", rtts_with_line_at(at, "", "\n")},
        {"blank crlf line", rtts_with_line_at(at, "", "\r\n")},
        {"repeated header", rtts_with_line_at(at, header, "\n")},
        {"bad field",
         rtts_with_line_at(at, "1,x,Verizon,LTE,50,0,Pacific,cloud,0", "\n")},
        {"short row", rtts_with_line_at(at, "1,2,Verizon", "\n")},
        {"no final newline", rtts_with_line_at(at, good, "\n", false)},
        {"no final newline, last line on the boundary",
         rtts_with_line_at(at, good, "\n").substr(0, at + good.size())},
        {"file ends on the boundary",
         rtts_with_line_at(at, good, "\n").substr(0, at)},
    };
    for (const Case& c : cases) {
      const std::string expected = rtts_via_stream(c.text);
      put_file(dir, "rtts.csv", c.text);
      for (const char* threads : {"1", "4"}) {
        const ScopedThreads width{threads};
        EXPECT_EQ(rtts_via_bundle(dir), expected)
            << c.what << " at " << at << ", WHEELS_THREADS=" << threads;
      }
    }
  }
  fs::remove_all(dir);
  // The stream reader's verdicts the cases compare against, spelled out.
  const std::string text = rtts_with_line_at(kReadChunkBytes, header, "\n");
  const auto line = std::count(text.begin(),
                               text.begin() + kReadChunkBytes, '\n') + 1;
  EXPECT_EQ(rtts_via_stream(text),
            "csv: line " + std::to_string(line) + ": duplicated header");
  EXPECT_EQ(rtts_via_stream(rtts_with_line_at(kReadChunkBytes, "1,2,Verizon",
                                              "\n")),
            "csv: line " + std::to_string(line) +
                ": expected 9 fields, got 3");
}

/// The tiny campaign's kpis.csv, its rows repeated until it spans at least
/// `chunks` read chunks.
std::string kpis_text_spanning(std::size_t chunks) {
  std::ostringstream os;
  write_kpis_csv(os, tiny_campaign_db());
  const std::string one = os.str();
  const std::string rows = one.substr(one.find('\n') + 1);
  std::string text = one;
  while (text.size() < chunks * kReadChunkBytes) text += rows;
  return text;
}

/// `text` with the line that holds byte `at` replaced by `line`.
std::string with_line_replaced(std::string text, std::size_t at,
                               const std::string& line) {
  const std::size_t begin = text.rfind('\n', at) + 1;
  const std::size_t end = text.find('\n', at);
  return text.replace(begin, end - begin, line);
}

TEST(CsvExport, FirstErrorInFileOrderWinsAcrossChunksAndTables) {
  const std::string bad_kpi =
      "1,x,Verizon,LTE,1,-90,5,0.1,1,10,0,0,0,Pacific,highway,0,cloud,"
      "downlink,0";
  std::string kpis = kpis_text_spanning(6);
  kpis = with_line_replaced(kpis, kpis.size() - 100, bad_kpi);  // last chunk
  std::string rtts;
  {
    std::ostringstream os;
    write_rtts_csv(os, tiny_campaign_db());
    rtts = with_line_replaced(os.str(), os.str().size() / 2,
                              "1,0,Verizon,LTE,x,0,Pacific,cloud,0");
  }
  const std::string kpis_error =
      error_of(kpis, [](std::istream& is) { (void)read_kpis_csv(is); });
  ASSERT_EQ(kpis_error.rfind("csv: line ", 0), 0u) << kpis_error;
  ASSERT_NE(kpis_error.find("malformed integer 'x'"), std::string::npos)
      << kpis_error;

  const fs::path dir = tiny_bundle("wheels-chunk-precedence-test");
  put_file(dir, "kpis.csv", kpis);
  put_file(dir, "rtts.csv", rtts);
  const auto bundle_error = [&] {
    try {
      (void)read_dataset_tables(dir.string());
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  const std::string expected = (dir / "kpis.csv").string() + ": " + kpis_error;
  for (const char* threads : {"1", "4"}) {
    const ScopedThreads width{threads};
    EXPECT_EQ(bundle_error(), expected) << "WHEELS_THREADS=" << threads;
  }
  fs::remove(dir / "rtts.csv");
  for (const char* threads : {"1", "4"}) {
    const ScopedThreads width{threads};
    EXPECT_EQ(bundle_error(), expected)
        << "rtts.csv missing, WHEELS_THREADS=" << threads;
  }
  // Of two bad rows in different chunks, the earlier one is reported.
  const std::string earlier = with_line_replaced(
      kpis, 2 * kReadChunkBytes + 10, bad_kpi.substr(0, 40) + ",y");
  const std::string earlier_error =
      error_of(earlier, [](std::istream& is) { (void)read_kpis_csv(is); });
  ASSERT_NE(earlier_error, kpis_error);
  put_file(dir, "kpis.csv", earlier);
  const ScopedThreads width{"4"};
  EXPECT_EQ(bundle_error(), (dir / "kpis.csv").string() + ": " + earlier_error);
  fs::remove_all(dir);
}

TEST(CsvExport, BlankTableReadsEmptyWithoutStorage) {
  const std::string text =
      "test_id,t,carrier,tech,rtt,speed,tz,server,is_static\n" +
      std::string(3 * kReadChunkBytes, '\n');
  std::stringstream is{text};
  const std::vector<RttRecord> streamed = read_rtts_csv(is);
  EXPECT_TRUE(streamed.empty());
  EXPECT_EQ(streamed.capacity(), 0u);
  const fs::path dir = tiny_bundle("wheels-chunk-blank-test");
  put_file(dir, "rtts.csv", text);
  for (const char* threads : {"1", "4"}) {
    const ScopedThreads width{threads};
    const ConsolidatedDb db = read_dataset_tables(dir.string());
    EXPECT_TRUE(db.rtts.empty());
    EXPECT_EQ(db.rtts.capacity(), 0u);
  }
  fs::remove_all(dir);
}

// --- enum name tables -----------------------------------------------------

TEST(EnumNames, EveryPrintedNameParsesBack) {
  for (const auto v : names::kAllTestTypes) {
    EXPECT_EQ(names::parse_test_type(names::to_name(v)), v);
  }
  for (const auto v : names::kAllAppKinds) {
    EXPECT_EQ(names::parse_app_kind(names::to_name(v)), v);
  }
  for (const auto v : radio::kAllCarriers) {
    EXPECT_EQ(names::parse_carrier(names::to_name(v)), v);
  }
  for (const auto v : radio::kAllTechnologies) {
    EXPECT_EQ(names::parse_technology(names::to_name(v)), v);
  }
  for (const auto v : names::kAllRegions) {
    EXPECT_EQ(names::parse_region(names::to_name(v)), v);
  }
  for (const auto v : names::kAllTimezones) {
    EXPECT_EQ(names::parse_timezone(names::to_name(v)), v);
  }
  for (const auto v : names::kAllServerKinds) {
    EXPECT_EQ(names::parse_server_kind(names::to_name(v)), v);
  }
  for (const auto v : names::kAllDirections) {
    EXPECT_EQ(names::parse_direction(names::to_name(v)), v);
  }
  for (const auto v : names::kAllHandoverTypes) {
    EXPECT_EQ(names::parse_handover_type(names::to_name(v)), v);
  }
}

TEST(EnumNames, UnknownNameThrowsWithText) {
  try {
    (void)names::parse_carrier("Vodafone");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("Vodafone"), std::string::npos);
  }
}

TEST(Manifest, JsonRoundTripsByteIdentically) {
  core::obs::RunManifest m = core::obs::make_run_manifest();
  m.seed = 321;
  m.scale = 0.05;
  m.config_digest = "0123456789abcdef";
  m.threads = 4;
  const std::string json = m.to_json();
  EXPECT_EQ(core::obs::parse_manifest(json).to_json(), json);

  // A 64-bit seed reads back exactly, not through a double.
  m.seed = ~0ull;
  EXPECT_EQ(core::obs::parse_manifest(m.to_json()).seed, m.seed);
  EXPECT_EQ(core::obs::parse_manifest(m.to_json()).to_json(), m.to_json());

  // A malformed manifest fails with the line of its fault.
  const auto error = [](const std::string& text) -> std::string {
    try {
      (void)core::obs::parse_manifest(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "<no error>";
  };
  EXPECT_EQ(error("{\"scale\": 0.05}"),
            "manifest: line 1: missing key \"seed\"");
  EXPECT_EQ(error(json + "\n}"),
            "manifest: line 9: trailing content after document");
}

}  // namespace
}  // namespace wheels::measure
