#include "replay/ingest.hpp"

#include <filesystem>
#include <stdexcept>

#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "measure/csv_export.hpp"
#include "measure/validate.hpp"

namespace wheels::replay {

ReplayBundle read_dataset(const std::string& directory,
                          std::string_view expected_config_digest) {
  core::obs::ScopedSpan span{"replay.ingest", "replay"};
  ReplayBundle bundle;
  bundle.manifest = core::obs::read_manifest(
      (std::filesystem::path{directory} / "manifest.json").string());
  if (!expected_config_digest.empty() &&
      bundle.manifest.config_digest != expected_config_digest) {
    throw std::runtime_error{
        "replay: bundle config digest " + bundle.manifest.config_digest +
        " does not match expected " + std::string{expected_config_digest}};
  }

  bundle.db = measure::read_dataset_tables(directory);
  const measure::ConsolidatedDb& db = bundle.db;

  try {
    const core::obs::ScopedSpan validate_span{"measure.validate", "measure"};
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
