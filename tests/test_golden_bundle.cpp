// Golden-bundle regression gate.
//
// tests/golden/bundle is a small recorded campaign (scale 0.02, seed 424242)
// committed to the repo, and tests/golden/expected_summary.csv holds the
// per-carrier headline medians of (a) the recording itself and (b) its
// default-knob replay. Replaying the committed bundle and comparing against
// the committed expectations turns transport/app drift into a readable diff:
// a change that shifts TCP or app behaviour fails here with the exact
// carrier, metric and magnitude instead of surfacing as a flaky timeout
// somewhere downstream.
//
// The bundle also gates the campaign itself: re-running DriveCampaign at the
// golden config must reproduce every committed table byte for byte, so a
// change that moves any campaign output byte fails here, not only in a
// same-build identity test.
//
// To refresh the expectations after an *intentional* behaviour change:
//   WHEELS_GOLDEN_REGEN=1 ./build/tests/wheels_tests
//       --gtest_filter=GoldenBundle.*   (one command line)
// then commit the rewritten expected_summary.csv and link_ticks_digest.csv.
// The bundle itself is a frozen input; tests/golden/README.md documents how
// it was produced and when it must be re-recorded.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/obs/manifest.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"

#ifndef WHEELS_GOLDEN_DIR
#error "WHEELS_GOLDEN_DIR must point at the source tree's tests/golden"
#endif

namespace wheels::replay {
namespace {

const std::string kGoldenDir = WHEELS_GOLDEN_DIR;
const std::string kExpectedCsv = kGoldenDir + "/expected_summary.csv";
const std::string kLinkTicksDigestCsv = kGoldenDir + "/link_ticks_digest.csv";
constexpr std::uint64_t kGoldenSeed = 424242;
constexpr double kGoldenScale = 0.02;

const ReplayBundle& golden() {
  static const ReplayBundle bundle = read_dataset(kGoldenDir + "/bundle");
  return bundle;
}

const ReportSummary& recorded_summary() {
  static const ReportSummary s = summarize(golden().db);
  return s;
}

const measure::ConsolidatedDb& replayed_db() {
  static const measure::ConsolidatedDb db = [] {
    ReplayConfig cfg;
    cfg.threads = 1;
    return ReplayCampaign{golden(), cfg}.run();
  }();
  return db;
}

const ReportSummary& replayed_summary() {
  static const ReportSummary s = summarize(replayed_db());
  return s;
}

std::string summary_row(const char* kind, const CarrierSummary& c) {
  std::ostringstream os;
  os << kind << ',' << measure::names::to_name(c.carrier) << ',' << c.tests
     << ',' << c.kpi_samples << ',' << c.rtt_samples << ',' << c.app_runs
     << ',' << measure::csv_double(c.dl_median_mbps) << ','
     << measure::csv_double(c.ul_median_mbps) << ','
     << measure::csv_double(c.rtt_median_ms) << ','
     << measure::csv_double(c.video_qoe) << ','
     << measure::csv_double(c.gaming_latency_ms) << ','
     << measure::csv_double(c.offload_e2e_ms);
  return os.str();
}

struct ExpectedRow {
  std::string kind;
  std::string carrier;
  std::vector<std::string> counts;   // tests, kpi_samples, rtt_samples, runs
  std::vector<double> medians;       // the six headline medians
};

std::vector<ExpectedRow> read_expected() {
  std::ifstream is{kExpectedCsv};
  if (!is) {
    ADD_FAILURE() << "missing " << kExpectedCsv
                  << " — regenerate with WHEELS_GOLDEN_REGEN=1";
    return {};
  }
  std::vector<ExpectedRow> rows;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls{line};
    while (std::getline(ls, field, ',')) fields.push_back(field);
    if (fields.size() != 12) {
      ADD_FAILURE() << "malformed expected row: " << line;
      continue;
    }
    ExpectedRow row;
    row.kind = fields[0];
    row.carrier = fields[1];
    row.counts = {fields[2], fields[3], fields[4], fields[5]};
    for (std::size_t i = 6; i < 12; ++i) {
      row.medians.push_back(std::stod(fields[i]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

bool regen_requested() {
  const char* regen = std::getenv("WHEELS_GOLDEN_REGEN");
  return regen != nullptr && !std::string{regen}.empty();
}

/// True (and rewrites the expectations) when WHEELS_GOLDEN_REGEN is set.
bool regen_if_requested() {
  if (!regen_requested()) return false;
  std::ofstream os{kExpectedCsv};
  if (!os) {
    ADD_FAILURE() << "cannot write " << kExpectedCsv;
    return true;
  }
  os << "kind,carrier,tests,kpi_samples,rtt_samples,app_runs,dl_median_mbps,"
        "ul_median_mbps,rtt_median_ms,video_qoe,gaming_latency_ms,"
        "offload_e2e_ms\n";
  for (const CarrierSummary& c : recorded_summary().carriers) {
    os << summary_row("recorded", c) << '\n';
  }
  for (const CarrierSummary& c : replayed_summary().carriers) {
    os << summary_row("replayed", c) << '\n';
  }
  return true;
}

/// Compare one summary against the expected rows of `kind`. Counts must be
/// exact; medians within `rel` of the checked-in value (with a tiny absolute
/// floor so exact-zero app metrics compare cleanly).
void expect_matches(const ReportSummary& summary, const std::string& kind,
                    double rel) {
  const std::vector<ExpectedRow> rows = read_expected();
  std::size_t matched = 0;
  for (const ExpectedRow& row : rows) {
    if (row.kind != kind) continue;
    const CarrierSummary* actual = nullptr;
    for (const CarrierSummary& c : summary.carriers) {
      if (measure::names::to_name(c.carrier) == row.carrier) actual = &c;
    }
    ASSERT_NE(actual, nullptr) << "unknown carrier " << row.carrier;
    ++matched;
    EXPECT_EQ(std::to_string(actual->tests), row.counts[0]) << row.carrier;
    EXPECT_EQ(std::to_string(actual->kpi_samples), row.counts[1])
        << row.carrier;
    EXPECT_EQ(std::to_string(actual->rtt_samples), row.counts[2])
        << row.carrier;
    EXPECT_EQ(std::to_string(actual->app_runs), row.counts[3]) << row.carrier;
    const double actual_medians[6] = {
        actual->dl_median_mbps,  actual->ul_median_mbps,
        actual->rtt_median_ms,   actual->video_qoe,
        actual->gaming_latency_ms, actual->offload_e2e_ms};
    for (std::size_t m = 0; m < 6; ++m) {
      const double tol = std::max(std::abs(row.medians[m]) * rel, 1e-9);
      EXPECT_NEAR(actual_medians[m], row.medians[m], tol)
          << kind << ' ' << row.carrier << " metric " << m;
    }
  }
  EXPECT_EQ(matched, summary.carriers.size()) << "rows of kind " << kind;
}

TEST(GoldenBundle, ManifestPinsTheGoldenConfig) {
  EXPECT_EQ(golden().manifest.seed, kGoldenSeed);
  EXPECT_EQ(golden().manifest.scale, kGoldenScale);
}

TEST(GoldenBundle, RecordedMediansMatchCheckedInExpectations) {
  if (regen_if_requested()) {
    GTEST_SKIP() << "expectations rewritten to " << kExpectedCsv;
  }
  // The recording is frozen CSV; its medians must round-trip exactly (modulo
  // parse-and-reformat noise far below any physical scale).
  expect_matches(recorded_summary(), "recorded", 1e-12);
}

TEST(GoldenBundle, ReplayedMediansMatchCheckedInExpectations) {
  if (regen_if_requested()) {
    GTEST_SKIP() << "expectations rewritten to " << kExpectedCsv;
  }
  // The replay re-runs transport/apps live over the recorded radio timeline:
  // bit-exact on one platform, a slightly looser relative tolerance absorbs
  // libm differences across platforms while still catching behaviour drift.
  expect_matches(replayed_summary(), "replayed", 1e-6);
}

TEST(GoldenBundle, FallbackSessionsReplayTheStandardTickBudget) {
  // The bundle has no link_ticks.csv, so every app session is re-created
  // from the carrier timeline and writes exactly the campaign's budget for
  // its app — also the moving sessions whose recorded window straddles an
  // overnight stop.
  std::map<std::uint32_t, std::size_t> ticks;
  for (const measure::LinkTickRecord& l : replayed_db().link_ticks) {
    ++ticks[l.test_id];
  }
  const campaign::CampaignConfig standard;
  std::size_t sessions = 0;
  for (const measure::TestRecord& t : golden().db.tests) {
    if (!measure::app_kind_of(t.type).has_value()) continue;
    ++sessions;
    EXPECT_EQ(ticks[t.id], static_cast<std::size_t>(standard.app_ticks(t.type)))
        << "test " << t.id << " (" << measure::test_type_name(t.type) << ")";
  }
  EXPECT_GT(sessions, 0u);
  EXPECT_EQ(ticks.size(), sessions);
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string render(const std::function<void(std::ostream&)>& writer) {
  std::ostringstream os;
  writer(os);
  return os.str();
}

/// 1-based number of the first line where `a` and `b` differ.
std::size_t first_differing_line(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    line += a[i] == '\n';
  }
  return line;
}

TEST(GoldenBundle, CampaignReproducesTheRecording) {
  campaign::CampaignConfig cfg;
  cfg.seed = kGoldenSeed;
  cfg.scale = kGoldenScale;
  ASSERT_EQ(campaign::make_manifest(cfg).config_digest,
            golden().manifest.config_digest)
      << "the golden config no longer digests to the recorded manifest's";
  const measure::ConsolidatedDb db = campaign::DriveCampaign{cfg}.run();

  // Every table the bundle commits, rendered by the dataset writers.
  std::vector<std::pair<std::string, std::string>> tables = {
      {"tests.csv",
       render([&](std::ostream& os) { measure::write_tests_csv(os, db); })},
      {"kpis.csv",
       render([&](std::ostream& os) { measure::write_kpis_csv(os, db); })},
      {"rtts.csv",
       render([&](std::ostream& os) { measure::write_rtts_csv(os, db); })},
      {"handovers.csv", render([&](std::ostream& os) {
         measure::write_handovers_csv(os, db);
       })},
      {"app_runs.csv", render([&](std::ostream& os) {
         measure::write_app_runs_csv(os, db);
       })},
      {"summary.csv",
       render([&](std::ostream& os) { measure::write_summary_csv(os, db); })},
      {"cells.csv",
       render([&](std::ostream& os) { measure::write_cells_csv(os, db); })},
  };
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    const std::string base{radio::carrier_name(c)};
    tables.emplace_back("coverage_passive_" + base + ".csv",
                        render([&](std::ostream& os) {
                          measure::write_coverage_csv(
                              os, db.passive[ci].segments, c, true);
                        }));
    tables.emplace_back("coverage_active_" + base + ".csv",
                        render([&](std::ostream& os) {
                          measure::write_coverage_csv(
                              os, db.active_coverage[ci], c, false);
                        }));
  }
  ASSERT_EQ(tables.size(), 13u);
  for (const auto& [name, rendered] : tables) {
    const std::string committed = read_file(kGoldenDir + "/bundle/" + name);
    ASSERT_FALSE(committed.empty()) << "missing bundle/" << name;
    EXPECT_TRUE(rendered == committed)
        << name << " differs from the committed recording at line "
        << first_differing_line(rendered, committed);
  }

  // The committed bundle predates link_ticks.csv (it keeps the replay gate
  // on the statistical fallback path), so that table is pinned by digest.
  const std::string link_ticks =
      render([&](std::ostream& os) { measure::write_link_ticks_csv(os, db); });
  std::ostringstream pinned;
  pinned << "table,rows,fnv1a64\n"
         << "link_ticks.csv," << db.link_ticks.size() << ','
         << core::obs::hex64(core::obs::fnv1a64(link_ticks)) << '\n';
  if (regen_requested()) {
    std::ofstream os{kLinkTicksDigestCsv};
    ASSERT_TRUE(os) << "cannot write " << kLinkTicksDigestCsv;
    os << pinned.str();
    GTEST_SKIP() << "link_ticks digest rewritten to " << kLinkTicksDigestCsv;
  }
  EXPECT_EQ(pinned.str(), read_file(kLinkTicksDigestCsv));
}

}  // namespace
}  // namespace wheels::replay
