// Record a campaign, ingest it back, and replay it — with and without a
// counterfactual knob turned.
//
//   ./replay_dataset [DIR]                 demo: export -> ingest -> replay
//                                          -> fidelity + counterfactual diff.
//                                          A bundle already in DIR (it has a
//                                          manifest.json) is replayed as it
//                                          stands and nothing is written; a
//                                          missing or empty DIR (default
//                                          wheels-replay-demo) records a
//                                          0.05-scale campaign into it first;
//                                          any other DIR fails with exit 2
//   ./replay_dataset --reexport IN OUT     ingest bundle IN, write it to OUT
//                                          (byte-identity check via diff -r)
//   ./replay_dataset --import TRACE [carrier]
//                                          lift an external trace (format
//                                          sniffed via the ingest registry)
//                                          into a bundle and replay it
//
// Knobs: WHEELS_REPLAY_SEED, WHEELS_REPLAY_INTERP (hold|linear),
// WHEELS_REPLAY_CC (cubic|bbr), WHEELS_REPLAY_SERVER (cloud|edge),
// WHEELS_REPLAY_MAX_TIER (technology name).
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"
#include "ingest/ingest.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"

using namespace wheels;

namespace {

bool knobs_set(const replay::ReplayKnobs& k) {
  return k.cc.has_value() || k.server.has_value() || k.max_tier.has_value();
}

int reexport(const std::string& in, const std::string& out) {
  const replay::ReplayBundle bundle = replay::read_dataset(in);
  std::cout << "Ingested " << in << ": " << bundle.db.tests.size()
            << " tests, " << bundle.db.kpis.size() << " KPI rows.\n";
  const auto files = measure::write_dataset(bundle.db, out, bundle.manifest);
  std::cout << "Re-exported " << files.size() << " files to " << out << "/\n";
  return 0;
}

int import_trace(const std::string& path, radio::Carrier carrier) {
  // Routed through the ingest registry: any registered format, sniffed.
  ingest::IngestOptions options;
  options.carrier = carrier;
  const ingest::TraceAdapter& adapter =
      ingest::builtin_registry().resolve("auto", ingest::sniff_file(path));
  const replay::ReplayBundle bundle =
      ingest::ingest_file(std::string{adapter.name()}, path, options);
  std::cout << "Imported " << path << " (format '" << adapter.name()
            << "') as a " << measure::names::to_name(carrier) << " bundle: "
            << bundle.db.kpis.size() << " KPI rows, " << bundle.db.rtts.size()
            << " RTT samples.\n\n";

  const replay::ReplayConfig cfg = replay::replay_config_from_env();
  const measure::ConsolidatedDb replayed =
      replay::ReplayCampaign{bundle, cfg}.run();
  replay::print_comparison(std::cout, "recorded",
                           replay::summarize(bundle.db), "replayed",
                           replay::summarize(replayed));
  return 0;
}

int demo(const std::string& dir) {
  namespace fs = std::filesystem;
  if (fs::exists(fs::path{dir} / "manifest.json")) {
    std::cout << "Replaying the bundle in " << dir << "/\n\n";
  } else if (fs::exists(dir) && !fs::is_empty(dir)) {
    std::cerr << "replay_dataset: " << dir
              << " is not empty and holds no bundle (no manifest.json); "
                 "not recording over it\n";
    return 2;
  } else {
    campaign::CampaignConfig config = campaign::config_from_env(0.05);
    std::cout << "Simulating campaign (scale " << config.scale << ")...\n";
    const measure::ConsolidatedDb recorded =
        campaign::DriveCampaign{config}.run();
    measure::write_dataset(recorded, dir, campaign::make_manifest(config));
    std::cout << "Recorded bundle written to " << dir << "/\n\n";
  }

  const replay::ReplayBundle bundle = replay::read_dataset(dir);

  // Fidelity: replay with every knob at its recorded value.
  replay::ReplayConfig cfg = replay::replay_config_from_env();
  replay::ReplayConfig baseline_cfg = cfg;
  baseline_cfg.knobs = {};
  const measure::ConsolidatedDb baseline =
      replay::ReplayCampaign{bundle, baseline_cfg}.run();
  std::cout << "Fidelity (recorded vs replayed, unchanged knobs):\n";
  replay::print_comparison(std::cout, "recorded",
                           replay::summarize(bundle.db), "replayed",
                           replay::summarize(baseline));

  // Counterfactual: env knobs when given, else the cloud->edge swap.
  replay::ReplayConfig cf_cfg = cfg;
  if (!knobs_set(cf_cfg.knobs)) {
    cf_cfg.knobs.server = net::ServerKind::Edge;
    std::cout << "\nCounterfactual: every test on the nearest edge server "
                 "(set WHEELS_REPLAY_* to pick another knob).\n";
  } else {
    std::cout << "\nCounterfactual: WHEELS_REPLAY_* knobs from the "
                 "environment.\n";
  }
  const measure::ConsolidatedDb counterfactual =
      replay::ReplayCampaign{bundle, cf_cfg}.run();
  replay::print_comparison(std::cout, "replayed",
                           replay::summarize(baseline), "counterfactual",
                           replay::summarize(counterfactual));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::obs::flush_at_exit();
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "--reexport") {
      if (argc != 4) {
        std::cerr << "usage: replay_dataset --reexport IN_DIR OUT_DIR\n";
        return 2;
      }
      return reexport(argv[2], argv[3]);
    }
    if (mode == "--import") {
      if (argc != 3 && argc != 4) {
        std::cerr << "usage: replay_dataset --import TRACE.csv [carrier]\n";
        return 2;
      }
      radio::Carrier carrier = radio::Carrier::Verizon;
      if (argc == 4) carrier = measure::names::parse_carrier(argv[3]);
      return import_trace(argv[2], carrier);
    }
    if (!mode.empty() && mode[0] == '-') {
      std::cerr << "usage: replay_dataset [DIR] | --reexport IN OUT | "
                   "--import TRACE.csv [carrier]\n";
      return 2;
    }
    return demo(mode.empty() ? "wheels-replay-demo" : mode);
  } catch (const std::exception& e) {
    std::cerr << "replay_dataset: " << e.what() << '\n';
    return 1;
  }
}
