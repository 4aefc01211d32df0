#include "replay/ingest.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"

namespace wheels::replay {

namespace {

namespace fs = std::filesystem;

/// Open `name` under `dir` and run `read` on it, prefixing any parse error
/// with the full bundle-relative path — when a fleet run ingests many
/// bundles, the error must identify *which* bundle was malformed, not just
/// which table.
template <typename Read>
auto read_file(const fs::path& dir, const std::string& name, Read read) {
  const core::obs::ScopedSpan span{"measure.read:" + name, "measure"};
  const fs::path path = dir / name;
  std::ifstream is{path};
  if (!is) {
    throw std::runtime_error{"replay: missing bundle file " + path.string()};
  }
  try {
    return read(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path.string() + ": " + e.what()};
  }
}

}  // namespace

ReplayBundle read_dataset(const std::string& directory,
                          std::string_view expected_config_digest) {
  core::obs::ScopedSpan span{"replay.ingest", "replay"};
  const fs::path dir{directory};
  ReplayBundle bundle;
  measure::ConsolidatedDb& db = bundle.db;

  bundle.manifest = core::obs::read_manifest((dir / "manifest.json").string());
  if (!expected_config_digest.empty() &&
      bundle.manifest.config_digest != expected_config_digest) {
    throw std::runtime_error{
        "replay: bundle config digest " + bundle.manifest.config_digest +
        " does not match expected " + std::string{expected_config_digest}};
  }

  // The tables are read one after another. Read as parallel tasks, each
  // table's records grow in a short-lived worker thread's malloc arena,
  // which keeps the memory after the thread exits: a wheelsd running
  // several jobs at once peaked at ~29% more RSS that way.
  db.tests = read_file(dir, "tests.csv", measure::read_tests_csv);
  db.kpis = read_file(dir, "kpis.csv", measure::read_kpis_csv);
  db.rtts = read_file(dir, "rtts.csv", measure::read_rtts_csv);
  db.handovers = read_file(dir, "handovers.csv", measure::read_handovers_csv);
  db.app_runs = read_file(dir, "app_runs.csv", measure::read_app_runs_csv);
  // Optional table: only campaigns that ran app sessions write it, and
  // older bundles predate it entirely (their app replays fall back to the
  // statistical carrier timeline).
  if (fs::exists(dir / "link_ticks.csv")) {
    db.link_ticks =
        read_file(dir, "link_ticks.csv", measure::read_link_ticks_csv);
  }
  // Optional table: only population campaigns (WHEELS_UES > 0) write it, and
  // older bundles predate it entirely.
  if (fs::exists(dir / "cell_load.csv")) {
    db.cell_load =
        read_file(dir, "cell_load.csv", measure::read_cell_load_csv);
  }
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    const std::string base{radio::carrier_name(c)};
    db.passive[ci].carrier = c;
    db.passive[ci].segments =
        read_file(dir, "coverage_passive_" + base + ".csv",
                  [&](std::istream& is) {
                    return measure::read_coverage_csv(is, c, true);
                  });
    db.active_coverage[ci] =
        read_file(dir, "coverage_active_" + base + ".csv",
                  [&](std::istream& is) {
                    return measure::read_coverage_csv(is, c, false);
                  });
  }
  read_file(dir, "summary.csv", [&](std::istream& is) {
    measure::read_summary_csv(is, db);
    return 0;
  });
  read_file(dir, "cells.csv", [&](std::istream& is) {
    measure::read_cells_csv(is, db);
    return 0;
  });

  try {
    measure::validate_or_throw(db);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{directory + ": " + e.what()};
  }

  auto& reg = core::obs::MetricsRegistry::global();
  static const core::obs::MetricId bundles =
      reg.counter_id("replay.bundles_ingested");
  static const core::obs::MetricId rows =
      reg.counter_id("replay.rows_ingested");
  reg.add(bundles);
  reg.add(rows, db.tests.size() + db.kpis.size() + db.rtts.size() +
                    db.handovers.size() + db.app_runs.size() +
                    db.link_ticks.size());
  return bundle;
}

}  // namespace wheels::replay
