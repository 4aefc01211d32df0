// Fleet replay: fan many recorded bundles across the thread pool, sweep a
// counterfactual knob grid over all of them, and aggregate per-carrier
// medians/CIs pooled across the whole fleet.
//
//   ./replay_fleet --bundles DIR1,DIR2,TRACE.csv[@carrier]
//                  [--grid cc=cubic,bbr server=cloud,edge tier=LTE]
//                  [--out fleet.csv]
//   ./replay_fleet --demo [N] [scale]     simulate N small campaigns
//                                         (seeds SEED..SEED+N-1), then sweep
//                                         a cc x server grid over them
//
// Bundle specs ending in ".csv" are t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms[,tech]
// traces read through the ingest "minimal" adapter — resampled onto the
// 500 ms tick, long gaps split into cycles — and an optional "@carrier"
// suffix picks the trace bundle's carrier; a directory that is not itself a
// bundle expands to its bundle subdirectories (the layout synth_trace --out
// produces), and everything else is a dataset directory. Grid values
// "recorded" keep a knob at its recorded value; the all-recorded baseline
// cell is always included and is the reference of every delta. The
// aggregate CSV (--out) is byte-identical for every WHEELS_THREADS.
//
// Knobs: WHEELS_THREADS (fleet-level fan-out), WHEELS_REPLAY_SEED,
// WHEELS_REPLAY_INTERP (hold|linear); the WHEELS_REPLAY_CC/SERVER/MAX_TIER
// knobs are superseded by --grid here.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"
#include "ingest/ingest.hpp"
#include "replay/fleet.hpp"
#include "replay/replay_campaign.hpp"

using namespace wheels;

namespace {

int usage() {
  std::cerr << "usage: replay_fleet --bundles SPEC[,SPEC...] "
               "[--grid DIM=v1,v2 ...] [--out FILE]\n"
               "       replay_fleet --demo [N>=1] [scale in (0,1]] "
               "[--grid ...] [--out FILE]\n"
               "grid dimensions: cc=cubic|bbr|recorded, "
               "server=cloud|edge|recorded, tier=<technology>|recorded\n";
  return 2;
}

std::vector<std::string> split_specs(const std::string& list) {
  std::vector<std::string> out;
  std::string cell;
  for (char ch : list) {
    if (ch == ',') {
      out.push_back(cell);
      cell.clear();
    } else {
      cell.push_back(ch);
    }
  }
  out.push_back(cell);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  core::obs::flush_at_exit();
  try {
    replay::FleetConfig cfg;
    cfg.replay = replay::replay_config_from_env();
    cfg.replay.knobs = {};  // the grid owns the knobs here

    std::vector<std::string> bundle_specs;
    std::string out_path;
    bool demo = false;
    int demo_n = 3;
    double demo_scale = 0.02;
    bool grid_given = false;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--bundles" && i + 1 < argc) {
        for (std::string& s : split_specs(argv[++i])) {
          bundle_specs.push_back(std::move(s));
        }
      } else if (arg == "--grid") {
        grid_given = true;
        while (i + 1 < argc && std::string{argv[i + 1]}.find('=') !=
                                   std::string::npos) {
          replay::apply_grid_axis(cfg.grid, argv[++i]);
        }
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--demo") {
        demo = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          demo_n = std::atoi(argv[++i]);
          if (demo_n < 1) return usage();
        }
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          demo_scale = std::atof(argv[++i]);
          if (demo_scale <= 0.0 || demo_scale > 1.0) return usage();
        }
      } else {
        return usage();
      }
    }
    if (demo && !bundle_specs.empty()) return usage();
    if (!demo && bundle_specs.empty()) return usage();

    std::vector<replay::ReplayBundle> bundles;
    std::vector<std::string> names;
    if (demo) {
      if (!grid_given) {
        replay::apply_grid_axis(cfg.grid, "cc=cubic,bbr");
        replay::apply_grid_axis(cfg.grid, "server=cloud,edge");
      }
      campaign::CampaignConfig base = campaign::config_from_env(demo_scale);
      base.scale = demo_scale;
      bundles.reserve(static_cast<std::size_t>(demo_n));
      for (int k = 0; k < demo_n; ++k) {
        campaign::CampaignConfig cc = base;
        cc.seed = base.seed + static_cast<std::uint64_t>(k);
        std::cout << "Simulating bundle seed " << cc.seed << " (scale "
                  << cc.scale << ")...\n";
        replay::ReplayBundle b;
        b.db = campaign::DriveCampaign{cc}.run();
        b.manifest = campaign::make_manifest(cc);
        bundles.push_back(std::move(b));
        names.push_back("seed-" + std::to_string(cc.seed));
      }
    } else {
      bundle_specs = replay::expand_fleet_specs(bundle_specs);
      bundles.reserve(bundle_specs.size());
      for (const std::string& spec : bundle_specs) {
        std::cout << "Loading " << spec << "...\n";
        bundles.push_back(ingest::load_fleet_bundle(spec));
        names.push_back(spec);
      }
    }

    std::vector<replay::FleetItem> items;
    items.reserve(bundles.size());
    for (std::size_t i = 0; i < bundles.size(); ++i) {
      items.push_back({names[i], &bundles[i]});
    }

    const replay::ReplayFleet fleet{cfg};
    std::cout << "Replaying " << items.size() << " bundles x "
              << fleet.cells().size() << " knob cells...\n\n";
    const replay::FleetResult result = fleet.run(items);
    replay::print_fleet(std::cout, result);

    if (!out_path.empty()) {
      std::ofstream os{out_path};
      if (!os) {
        std::cerr << "replay_fleet: cannot write " << out_path << '\n';
        return 1;
      }
      replay::write_fleet_csv(os, result);
      std::cout << "\nAggregate CSV written to " << out_path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "replay_fleet: " << e.what() << '\n';
    return 1;
  }
}
