// Full-scale soak: the complete 5,711 km campaign (the paper's actual trip
// length) must hold every dataset invariant. ~5 s per test process.
//
// The bundle it writes is also pinned byte for byte: every table's row count
// and FNV-1a digest is committed in tests/golden/fullscale_digests.csv, and
// five small non-default campaign shapes are pinned the same way in
// tests/golden/campaign_shape_digests.csv. After an *intentional* change to
// campaign output or to the CSV writers, rewrite them with
//   WHEELS_GOLDEN_REGEN=1 ./build/tests/wheels_tests
//       --gtest_filter='CampaignFullScale.*:CampaignShapes.*'
// (one command line) and commit the diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "campaign/campaign.hpp"
#include "core/obs/manifest.hpp"
#include "measure/csv_export.hpp"

#ifndef WHEELS_GOLDEN_DIR
#error "WHEELS_GOLDEN_DIR must point at the source tree's tests/golden"
#endif

namespace wheels::campaign {
namespace {

const measure::ConsolidatedDb& full_db() {
  static const measure::ConsolidatedDb db = [] {
    CampaignConfig cfg;  // scale 1.0: the whole trip
    return DriveCampaign{cfg}.run();
  }();
  return db;
}

TEST(CampaignFullScale, TripLevelInvariants) {
  const auto& db = full_db();
  EXPECT_NEAR(db.driven_km, 5711.0, 5.0);
  EXPECT_GT(db.kpis.size(), 300'000u);
  EXPECT_GT(db.rtts.size(), 250'000u);
  EXPECT_GT(db.app_runs.size(), 10'000u);

  // All four timezones and all three regions appear in the data.
  std::set<int> tzs, regions;
  for (std::size_t i = 0; i < db.kpis.size(); i += 97) {
    tzs.insert(static_cast<int>(db.kpis[i].tz));
    regions.insert(static_cast<int>(db.kpis[i].region));
  }
  EXPECT_EQ(tzs.size(), 4u);
  EXPECT_EQ(regions.size(), 3u);

  // Static batteries ran in most major cities for Verizon (its mmWave
  // footprint covers all downtowns).
  std::set<Km> static_sites;
  for (const auto& t : db.tests) {
    if (t.is_static && t.carrier == radio::Carrier::Verizon) {
      static_sites.insert(t.start_km);
    }
  }
  EXPECT_GE(static_sites.size(), 7u);
}

TEST(CampaignFullScale, HeadlinePaperShapes) {
  const auto& db = full_db();
  // T-Mobile leads 5G coverage at roughly the paper's 68%.
  const auto t_shares = analysis::coverage_from_kpis(
      db, [](const measure::KpiRecord& k) {
        return k.carrier == radio::Carrier::TMobile;
      });
  EXPECT_GT(analysis::five_g_share(t_shares), 0.6);
  EXPECT_LT(analysis::five_g_share(t_shares), 0.85);

  // High-speed 5G ordering: T ≫ V ≫ A (paper: 38% / ~12% / 3%).
  const auto v_shares = analysis::coverage_from_kpis(
      db, [](const measure::KpiRecord& k) {
        return k.carrier == radio::Carrier::Verizon;
      });
  const auto a_shares = analysis::coverage_from_kpis(
      db, [](const measure::KpiRecord& k) {
        return k.carrier == radio::Carrier::Att;
      });
  EXPECT_GT(analysis::high_speed_share(t_shares),
            analysis::high_speed_share(v_shares));
  EXPECT_GT(analysis::high_speed_share(v_shares),
            analysis::high_speed_share(a_shares));
  EXPECT_LT(analysis::high_speed_share(a_shares), 0.05);
}

/// Every table write_dataset writes for `db`, in its file order, rendered
/// with the measure::write_*_csv writers: one "table,rows,fnv1a64" row per
/// table, each prefixed with `prefix`. link_ticks.csv and cell_load.csv
/// join only when they have rows, as in a bundle.
std::vector<std::string> table_digest_rows(const measure::ConsolidatedDb& db,
                                           const std::string& prefix = "") {
  const auto render = [](const std::function<void(std::ostream&)>& writer) {
    std::ostringstream os;
    writer(os);
    return os.str();
  };
  std::vector<std::pair<std::string, std::function<void(std::ostream&)>>>
      tables = {
          {"tests.csv",
           [&](std::ostream& os) { measure::write_tests_csv(os, db); }},
          {"kpis.csv",
           [&](std::ostream& os) { measure::write_kpis_csv(os, db); }},
          {"rtts.csv",
           [&](std::ostream& os) { measure::write_rtts_csv(os, db); }},
          {"handovers.csv",
           [&](std::ostream& os) { measure::write_handovers_csv(os, db); }},
          {"app_runs.csv",
           [&](std::ostream& os) { measure::write_app_runs_csv(os, db); }},
      };
  if (!db.link_ticks.empty()) {
    tables.emplace_back("link_ticks.csv", [&](std::ostream& os) {
      measure::write_link_ticks_csv(os, db);
    });
  }
  if (!db.cell_load.empty()) {
    tables.emplace_back("cell_load.csv", [&](std::ostream& os) {
      measure::write_cell_load_csv(os, db);
    });
  }
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    const std::string base{radio::carrier_name(c)};
    tables.emplace_back("coverage_passive_" + base + ".csv",
                        [&db, c, ci](std::ostream& os) {
                          measure::write_coverage_csv(
                              os, db.passive[ci].segments, c, true);
                        });
    tables.emplace_back("coverage_active_" + base + ".csv",
                        [&db, c, ci](std::ostream& os) {
                          measure::write_coverage_csv(
                              os, db.active_coverage[ci], c, false);
                        });
  }
  tables.emplace_back("summary.csv", [&](std::ostream& os) {
    measure::write_summary_csv(os, db);
  });
  tables.emplace_back("cells.csv", [&](std::ostream& os) {
    measure::write_cells_csv(os, db);
  });

  std::vector<std::string> rows;
  for (const auto& [name, writer] : tables) {
    const std::string csv = render(writer);
    const auto lines = std::count(csv.begin(), csv.end(), '\n') - 1;
    rows.push_back(prefix + name + ',' + std::to_string(lines) + ',' +
                   core::obs::hex64(core::obs::fnv1a64(csv)));
  }
  return rows;
}

/// Compare `pinned` with the committed tests/golden/`file`; under
/// WHEELS_GOLDEN_REGEN=1 rewrite the file instead and skip the test.
void check_pinned(const std::string& pinned, const std::string& file) {
  const std::string path = std::string{WHEELS_GOLDEN_DIR} + "/" + file;
  const char* regen = std::getenv("WHEELS_GOLDEN_REGEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream os{path};
    ASSERT_TRUE(os) << "cannot write " << path;
    os << pinned;
    GTEST_SKIP() << file << " rewritten to " << path;
  }
  std::ifstream is{path};
  ASSERT_TRUE(is) << "missing " << path
                  << " — regenerate with WHEELS_GOLDEN_REGEN=1";
  std::ostringstream committed;
  committed << is.rdbuf();
  EXPECT_EQ(pinned, committed.str());
}

TEST(CampaignFullScale, BundleTablesMatchPinnedDigests) {
  const std::vector<std::string> rows = table_digest_rows(full_db());
  ASSERT_EQ(rows.size(), 14u);
  std::string pinned = "table,rows,fnv1a64\n";
  for (const std::string& row : rows) pinned += row + '\n';
  check_pinned(pinned, "fullscale_digests.csv");
}

// The bytes of the campaign shapes the default config never takes: 3-test
// batteries (apps off), no batteries (static off), idle ticks between cycles
// and after the last one, and a UE population ticked on the coordinator
// (cell_load.csv). Small scale, fixed seed; pinned in
// tests/golden/campaign_shape_digests.csv, rewritten under
// WHEELS_GOLDEN_REGEN=1 like the full-scale file. On seed 46 the last
// shape's trip ends inside idle ticks, so finalize's flush of the trailing
// passive backlog is pinned too.
TEST(CampaignShapes, BundleTablesMatchPinnedDigests) {
  CampaignConfig base;
  base.seed = 46;
  base.scale = 0.03;
  std::vector<std::pair<std::string, CampaignConfig>> shapes;
  CampaignConfig cfg = base;
  cfg.run_apps = false;
  shapes.emplace_back("apps_off", cfg);
  cfg = base;
  cfg.run_static = false;
  shapes.emplace_back("static_off", cfg);
  cfg = base;
  cfg.idle_ticks_between_cycles = 7;
  shapes.emplace_back("idle_7", cfg);
  cfg = base;
  cfg.idle_ticks_between_cycles = 3;
  cfg.population = 2000;
  cfg.scheduler = ran::SchedulerKind::RoundRobin;
  cfg.long_app_stride = 3;
  shapes.emplace_back("ues_2000_rr_stride_3_idle_3", cfg);
  cfg = base;
  cfg.run_apps = false;
  cfg.run_static = false;
  cfg.idle_ticks_between_cycles = 7;
  shapes.emplace_back("apps_off_static_off_idle_7", cfg);

  std::string pinned = "shape,table,rows,fnv1a64\n";
  for (const auto& [name, shape] : shapes) {
    const measure::ConsolidatedDb db = DriveCampaign{shape}.run();
    for (const std::string& row : table_digest_rows(db, name + ',')) {
      pinned += row + '\n';
    }
  }
  check_pinned(pinned, "campaign_shape_digests.csv");
}

}  // namespace
}  // namespace wheels::campaign
