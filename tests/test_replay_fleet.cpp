#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "ingest/adapter.hpp"
#include "ingest/ingest.hpp"
#include "ingest_helpers.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/fleet.hpp"
#include "replay/report.hpp"

namespace wheels::replay {
namespace {

namespace fs = std::filesystem;

// --- knob grid ------------------------------------------------------------

TEST(ReplayFleetTest, DefaultGridIsBaselineOnly) {
  const std::vector<ReplayKnobs> cells = expand_grid(KnobGrid{});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].cc.has_value());
  EXPECT_FALSE(cells[0].server.has_value());
  EXPECT_FALSE(cells[0].max_tier.has_value());
  EXPECT_EQ(cell_label(cells[0]), "recorded");
}

TEST(ReplayFleetTest, ExpandGridIsCcMajorWithBaselinePrepended) {
  KnobGrid grid;
  apply_grid_axis(grid, "cc=cubic,bbr");
  apply_grid_axis(grid, "server=cloud,edge");
  const std::vector<ReplayKnobs> cells = expand_grid(grid);
  ASSERT_EQ(cells.size(), 5u);  // 2 x 2 product + prepended baseline
  const std::vector<std::string> expected{
      "recorded",
      "cc=cubic|server=cloud|tier=recorded",
      "cc=cubic|server=edge|tier=recorded",
      "cc=bbr|server=cloud|tier=recorded",
      "cc=bbr|server=edge|tier=recorded",
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cell_label(cells[i]), expected[i]) << i;
  }
}

TEST(ReplayFleetTest, RecordedValueKeepsKnobUnsetAndSkipsPrepending) {
  KnobGrid grid;
  apply_grid_axis(grid, "cc=recorded,bbr");
  const std::vector<ReplayKnobs> cells = expand_grid(grid);
  // (recorded, recorded, recorded) is already in the product, so no extra
  // baseline is prepended and cell 0 is still the all-recorded reference.
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cell_label(cells[0]), "recorded");
  ASSERT_TRUE(cells[1].cc.has_value());
  EXPECT_EQ(*cells[1].cc, transport::CcAlgo::Bbr);
}

TEST(ReplayFleetTest, TierAxisParsesTechnologyNames) {
  KnobGrid grid;
  apply_grid_axis(grid, "tier=LTE,5G-mid");
  ASSERT_EQ(grid.max_tier.size(), 2u);
  EXPECT_EQ(*grid.max_tier[0], radio::Technology::Lte);
  EXPECT_EQ(*grid.max_tier[1], radio::Technology::NrMid);
  // "max_tier" is an accepted alias for the env-knob name.
  KnobGrid alias;
  apply_grid_axis(alias, "max_tier=LTE");
  ASSERT_EQ(alias.max_tier.size(), 1u);
  EXPECT_EQ(*alias.max_tier[0], radio::Technology::Lte);
}

TEST(ReplayFleetTest, GridErrorsNameTheOffendingToken) {
  const auto error_of = [](const std::string& spec) {
    KnobGrid grid;
    try {
      apply_grid_axis(grid, spec);
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  EXPECT_NE(error_of("speed=fast").find("unknown dimension"),
            std::string::npos);
  EXPECT_NE(error_of("cc=reno").find("reno"), std::string::npos);
  EXPECT_NE(error_of("cc=cubic,cubic").find("duplicated value"),
            std::string::npos);
  EXPECT_NE(error_of("cc=recorded,recorded").find("duplicated value"),
            std::string::npos);
  EXPECT_NE(error_of("cc=cubic,,bbr").find("empty value"), std::string::npos);
  EXPECT_NE(error_of("cc").find("expected DIM=value"), std::string::npos);
  EXPECT_NE(error_of("cc=").find("expected DIM=value"), std::string::npos);
  EXPECT_NE(error_of("server=moon").find("server=moon"), std::string::npos);
  // Every error names the grid layer so CLI users see which flag to fix.
  EXPECT_NE(error_of("cc=reno").find("fleet grid"), std::string::npos);
}

// --- fleet bundles --------------------------------------------------------

/// A small synthetic external trace; `variant` perturbs the series so each
/// fleet bundle has distinct samples.
std::string external_trace_text(int variant) {
  std::ostringstream ss;
  ss << "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech\n";
  for (int i = 0; i < 8; ++i) {
    ss << i * 500 << ',' << 40 + 7 * ((i + variant) % 5) << ','
       << 5 + (i + variant) % 3 << ',' << 35 + 4 * ((i * (variant + 1)) % 6)
       << (i % 2 == 0 ? ",LTE\n" : ",5G-mid\n");
  }
  return ss.str();
}

/// The bundle a ".csv" fleet spec of external_trace_text(variant) loads:
/// the minimal adapter, then the join layer.
ReplayBundle external_bundle(int variant, radio::Carrier carrier) {
  std::istringstream is{external_trace_text(variant)};
  const ingest::IngestOptions options;
  return ingest::helpers::bundle_of(
      ingest::builtin_registry().find("minimal")->parse(is, options), carrier,
      options.resample);
}

TEST(ReplayFleetTest, LoadFleetBundleDispatchesOnSpec) {
  const std::string csv = "/tmp/wheels-fleet-test-trace.csv";
  {
    std::ofstream os{csv};
    os << external_trace_text(1);
  }
  // Bare ".csv" spec: the minimal adapter, default carrier Verizon.
  const ReplayBundle plain = ingest::load_fleet_bundle(csv);
  ASSERT_FALSE(plain.db.tests.empty());
  EXPECT_EQ(plain.db.tests[0].carrier, radio::Carrier::Verizon);
  // "@carrier" suffix picks the synthetic carrier.
  const ReplayBundle tagged = ingest::load_fleet_bundle(csv + "@T-Mobile");
  ASSERT_FALSE(tagged.db.tests.empty());
  EXPECT_EQ(tagged.db.tests[0].carrier, radio::Carrier::TMobile);
  EXPECT_THROW((void)ingest::load_fleet_bundle(csv + "@sprint"),
               std::runtime_error);
  fs::remove(csv);
}

TEST(ReplayFleetTest, SpecGrammarSplitsCarrierOnlyAfterCsv) {
  const FleetSpec plain = parse_fleet_spec("x.csv");
  EXPECT_EQ(plain.path, "x.csv");
  EXPECT_TRUE(plain.is_trace);
  EXPECT_EQ(plain.carrier, radio::Carrier::Verizon);
  const FleetSpec tagged = parse_fleet_spec("runs/x.csv@T-Mobile");
  EXPECT_EQ(tagged.path, "runs/x.csv");
  EXPECT_TRUE(tagged.is_trace);
  EXPECT_EQ(tagged.carrier, radio::Carrier::TMobile);
  // '@' and ".csv" inside a directory name are part of the path.
  const FleetSpec at_dir = parse_fleet_spec("v@1");
  EXPECT_EQ(at_dir.path, "v@1");
  EXPECT_FALSE(at_dir.is_trace);
  const FleetSpec csv_dir = parse_fleet_spec("runs.csv.d");
  EXPECT_EQ(csv_dir.path, "runs.csv.d");
  EXPECT_FALSE(csv_dir.is_trace);
  try {
    (void)parse_fleet_spec("x.csv@sprint");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("unknown carrier name 'sprint'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReplayFleetTest, DirectoryNamedLikeATraceExpandsAndAtDirectoryLoads) {
  const fs::path root = fs::path{"/tmp"} / ("wheels-fleet-spec-" +
                                            std::to_string(::getpid()));
  fs::remove_all(root);
  // A directory of bundle directories whose name contains ".csv".
  const fs::path runs = root / "runs.csv.d";
  for (const char* child : {"b", "a"}) {
    fs::create_directories(runs / child);
    std::ofstream{runs / child / "manifest.json"};
  }
  EXPECT_EQ(expand_fleet_specs({runs.string()}),
            (std::vector<std::string>{(runs / "a").string(),
                                      (runs / "b").string()}));
  // A bundle directory with '@' in its name loads as a bundle.
  const fs::path at_dir = root / "v@1";
  const ReplayBundle source = external_bundle(1, radio::Carrier::Att);
  measure::write_dataset(source.db, at_dir.string(), source.manifest);
  const ReplayBundle loaded = ingest::load_fleet_bundle(at_dir.string());
  EXPECT_EQ(loaded.db.kpis.size(), source.db.kpis.size());
  EXPECT_EQ(loaded.db.tests[0].carrier, radio::Carrier::Att);
  fs::remove_all(root);
}

// --- fleet runs -----------------------------------------------------------

std::string fleet_csv(const FleetResult& result) {
  std::ostringstream os;
  write_fleet_csv(os, result);
  return os.str();
}

FleetConfig small_fleet_config(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  apply_grid_axis(cfg.grid, "cc=cubic,bbr");
  apply_grid_axis(cfg.grid, "server=cloud,edge");
  return cfg;
}

/// Three distinct tiny external-trace bundles — cheap enough for the TSan
/// smoke filter while still exercising the two run_indexed fan-outs.
const std::vector<ReplayBundle>& tiny_bundles() {
  static const std::vector<ReplayBundle> bundles = [] {
    std::vector<ReplayBundle> out;
    out.push_back(external_bundle(1, radio::Carrier::Verizon));
    out.push_back(external_bundle(2, radio::Carrier::TMobile));
    out.push_back(external_bundle(3, radio::Carrier::Att));
    return out;
  }();
  return bundles;
}

std::vector<FleetItem> tiny_items() {
  const std::vector<ReplayBundle>& bundles = tiny_bundles();
  return {{"trace-a", &bundles[0]},
          {"trace-b", &bundles[1]},
          {"trace-c", &bundles[2]}};
}

TEST(ReplayFleetTest, RunsAreBundleMajorCellMinorWithPooledCounts) {
  const ReplayFleet fleet{small_fleet_config(2)};
  ASSERT_EQ(fleet.cells().size(), 5u);
  const FleetResult result = fleet.run(tiny_items());
  ASSERT_EQ(result.bundles.size(), 3u);
  ASSERT_EQ(result.runs.size(), 15u);
  ASSERT_EQ(result.aggregate.size(), 5u);
  for (std::size_t j = 0; j < result.runs.size(); ++j) {
    EXPECT_EQ(result.runs[j].bundle, j / 5);
    EXPECT_EQ(result.runs[j].cell, j % 5);
  }
  // Pooled n is the sum of the per-bundle sample counts: each bundle's
  // synthetic carrier contributes 8 RTT ticks, the other carriers none.
  for (std::size_t ci = 0; ci < result.aggregate.size(); ++ci) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
         ++c) {
      const MetricAggregate& rtt = result.aggregate[ci].metrics[c][2];
      EXPECT_EQ(rtt.n, 8u) << "cell " << ci << " carrier " << c;
      EXPECT_GT(rtt.median, 0.0);
      EXPECT_LE(rtt.ci.lo, rtt.median);
      EXPECT_GE(rtt.ci.hi, rtt.median);
      // No app runs in external-trace bundles: those aggregates are empty.
      EXPECT_EQ(result.aggregate[ci].metrics[c][3].n, 0u);
    }
  }
}

TEST(ReplayFleetTest, EdgeCellsLowerPooledRttAgainstBaseline) {
  const ReplayFleet fleet{small_fleet_config(2)};
  const FleetResult result = fleet.run(tiny_items());
  const std::size_t kRtt = 2;
  for (std::size_t ci = 1; ci < result.cells.size(); ++ci) {
    if (!result.cells[ci].server.has_value() ||
        *result.cells[ci].server != net::ServerKind::Edge) {
      continue;
    }
    for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
         ++c) {
      const double base = result.aggregate[0].metrics[c][kRtt].median;
      ASSERT_GT(base, 0.0);
      EXPECT_LT(result.aggregate[ci].metrics[c][kRtt].median, base)
          << cell_label(result.cells[ci]);
    }
  }
}

TEST(ReplayFleetTest, TinyFleetCsvIsByteIdenticalAcrossThreadCounts) {
  const FleetResult one = ReplayFleet{small_fleet_config(1)}.run(tiny_items());
  const FleetResult four =
      ReplayFleet{small_fleet_config(4)}.run(tiny_items());
  const std::string csv = fleet_csv(one);
  EXPECT_EQ(csv, fleet_csv(four));
  EXPECT_EQ(
      csv.substr(0, csv.find('\n')),
      "cell,carrier,metric,n,median,ci_lo,ci_hi,delta_vs_recorded_pct,"
      "significant");
  // Baseline rows compare against themselves: delta 0 whenever defined, and
  // never a significance verdict.
  std::istringstream lines{csv};
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    if (line.compare(0, 9, "recorded,") != 0) continue;
    const std::size_t last = line.rfind(',');
    EXPECT_EQ(line.substr(last + 1), "") << line;
    const std::size_t prev = line.rfind(',', last - 1);
    const std::string delta = line.substr(prev + 1, last - prev - 1);
    EXPECT_TRUE(delta.empty() || delta == "0") << line;
  }
}

TEST(ReplayFleetTest, SignificanceMarksDeltasWhoseCiExcludesZero) {
  const ReplayFleet fleet{small_fleet_config(2)};
  const FleetResult result = fleet.run(tiny_items());
  const std::size_t kRtt = 2;
  // Baseline rows never carry a verdict.
  for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
       ++c) {
    for (std::size_t m = 0; m < kFleetMetricCount; ++m) {
      EXPECT_FALSE(result.aggregate[0].metrics[c][m].has_delta);
      EXPECT_FALSE(result.aggregate[0].metrics[c][m].significant);
    }
  }
  for (std::size_t ci = 1; ci < result.cells.size(); ++ci) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
         ++c) {
      const MetricAggregate& rtt = result.aggregate[ci].metrics[c][kRtt];
      // Sampled series on both sides: the delta CI exists and brackets the
      // point delta.
      ASSERT_TRUE(rtt.has_delta);
      EXPECT_LE(rtt.delta_ci.lo, rtt.delta_ci.hi);
      EXPECT_DOUBLE_EQ(
          rtt.delta_ci.point,
          rtt.median - result.aggregate[0].metrics[c][kRtt].median);
      EXPECT_EQ(rtt.significant,
                rtt.delta_ci.lo > 0.0 || rtt.delta_ci.hi < 0.0);
      // Empty series (no app runs in external traces) carry no verdict.
      EXPECT_FALSE(result.aggregate[ci].metrics[c][3].has_delta);
    }
    const bool edge = result.cells[ci].server.has_value() &&
                      *result.cells[ci].server == net::ServerKind::Edge;
    std::size_t flagged = 0;
    for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
         ++c) {
      const MetricAggregate& rtt = result.aggregate[ci].metrics[c][kRtt];
      if (edge) {
        // The cloud->edge swap lowers every carrier's pooled RTT median...
        EXPECT_LT(rtt.delta_ci.point, 0.0) << cell_label(result.cells[ci]);
        flagged += rtt.significant ? 1 : 0;
      } else {
        // ...while a cc-only swap leaves RTT untouched: the delta is noise
        // and must never be flagged.
        EXPECT_FALSE(rtt.significant) << cell_label(result.cells[ci]);
      }
    }
    // ...and for most carriers the drop clears the delta's CI. (A trace
    // with RTT spread wide enough would keep zero inside its CI — exactly
    // the verdict the column exists to report.)
    if (edge) {
      EXPECT_GE(flagged, 2u) << cell_label(result.cells[ci]);
    }
  }
}

TEST(ReplayFleetTest, SignificanceIsDeterministicAcrossThreadCounts) {
  const FleetResult one = ReplayFleet{small_fleet_config(1)}.run(tiny_items());
  const FleetResult four =
      ReplayFleet{small_fleet_config(4)}.run(tiny_items());
  for (std::size_t ci = 0; ci < one.aggregate.size(); ++ci) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
         ++c) {
      for (std::size_t m = 0; m < kFleetMetricCount; ++m) {
        const MetricAggregate& a = one.aggregate[ci].metrics[c][m];
        const MetricAggregate& b = four.aggregate[ci].metrics[c][m];
        EXPECT_EQ(a.has_delta, b.has_delta);
        EXPECT_EQ(a.significant, b.significant);
        EXPECT_DOUBLE_EQ(a.delta_ci.lo, b.delta_ci.lo);
        EXPECT_DOUBLE_EQ(a.delta_ci.hi, b.delta_ci.hi);
      }
    }
  }
}

// --- acceptance: recorded campaign bundles --------------------------------

/// Two real recorded bundles (small campaigns at different seeds) plus one
/// external trace — the >= 3 bundle, >= 4 knob-cell acceptance fleet.
const std::vector<ReplayBundle>& acceptance_bundles() {
  static const std::vector<ReplayBundle> bundles = [] {
    std::vector<ReplayBundle> out;
    for (std::uint64_t seed : {101u, 102u}) {
      campaign::CampaignConfig cfg;
      cfg.scale = 0.02;
      cfg.seed = seed;
      ReplayBundle b;
      b.db = campaign::DriveCampaign{cfg}.run();
      b.manifest = campaign::make_manifest(cfg);
      out.push_back(std::move(b));
    }
    out.push_back(external_bundle(4, radio::Carrier::Verizon));
    return out;
  }();
  return bundles;
}

TEST(ReplayFleetAcceptance, AggregateByteIdenticalForThreads1And4) {
  const std::vector<ReplayBundle>& bundles = acceptance_bundles();
  const std::vector<FleetItem> items{{"seed-101", &bundles[0]},
                                     {"seed-102", &bundles[1]},
                                     {"trace", &bundles[2]}};
  const FleetResult one = ReplayFleet{small_fleet_config(1)}.run(items);
  const FleetResult four = ReplayFleet{small_fleet_config(4)}.run(items);
  ASSERT_EQ(one.cells.size(), 5u);
  EXPECT_EQ(fleet_csv(one), fleet_csv(four));

  // Pooling sanity on the threads=1 result: the pooled RTT count of each
  // carrier is the sum of that carrier's per-bundle RTT samples.
  for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
       ++c) {
    std::size_t expected = 0;
    for (const ReplayBundle& b : bundles) {
      expected += collect_samples(b.db)[c].rtt_ms.size();
    }
    ASSERT_GT(expected, 0u);
    for (const CellAggregate& cell : one.aggregate) {
      EXPECT_EQ(cell.metrics[c][2].n, expected);
    }
  }
  // The counterfactual signal survives pooling: forcing every test onto
  // edge lowers the pooled RTT median of every carrier.
  const std::size_t kRtt = 2;
  for (std::size_t ci = 1; ci < one.cells.size(); ++ci) {
    if (!one.cells[ci].server.has_value() ||
        *one.cells[ci].server != net::ServerKind::Edge) {
      continue;
    }
    for (std::size_t c = 0; c < static_cast<std::size_t>(radio::kCarrierCount);
         ++c) {
      EXPECT_LT(one.aggregate[ci].metrics[c][kRtt].median,
                one.aggregate[0].metrics[c][kRtt].median);
    }
  }
}

}  // namespace
}  // namespace wheels::replay
