// Fit regime models from recorded bundles; sample unlimited synthetic
// drive cycles.
//
//   ./synth_trace --fit tests/golden/bundle --profile p.json
//   ./synth_trace --profile p.json --sample 10 --out cycles/
//   ./synth_trace --fit tests/golden/bundle --sample 5 --validate
//   ./synth_trace --fit bundleA --fit bundleB --sample 3
//       --spec "duration_s=300,load=1.5,outage_factor=2" --seed 7
//       (one command line)
//
// Options:
//   --fit DIR       fit from this bundle directory (repeatable: evidence is
//                   pooled across all --fit bundles)
//   --profile PATH  with --fit: write the fitted profile JSON here;
//                   without --fit: read the profile to sample from
//   --sample N      synthesize N drive cycles (indices 0..N-1)
//   --seed S        sampling seed (default 1)
//   --spec SPEC     scenario: duration_s=, route_km=, speed_kmh=, load=,
//                   outage_factor=, max_tier=, carriers=A+B (default
//                   120 s cycles, fitted conditions, all carriers)
//   --out DIR       write each sampled cycle as its own bundle directory
//                   DIR/cycle-000, DIR/cycle-001, ... (replay_fleet
//                   accepts DIR directly)
//   --one-bundle DIR  write all cycles as one bundle directory instead
//   --validate      KS-compare the synthesis against the fit source
//                   (requires --fit and --sample); exit 1 when the gate
//                   fails
//   --ks-gate X     KS gate threshold (default 0.15)
//   --replay        replay the sampled bundle through ReplayCampaign and
//                   print recorded-vs-replayed
//   --threads N     sampling/join shards (default 1, 0 = WHEELS_THREADS);
//                   output is byte-identical at every thread count
//   --tick MS, --outage MBPS, --regimes N, --rtt-regimes N, --min-ticks N
//                   fit knobs (default 500 / 0.1 / 4 / 3 / 24)
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"
#include "synth/fit.hpp"
#include "synth/sample.hpp"
#include "synth/validate.hpp"

using namespace wheels;

namespace {

int usage() {
  std::cerr << "usage: synth_trace --fit DIR [--fit DIR...] "
               "[--profile OUT.json] [--sample N]\n"
               "       synth_trace --profile IN.json --sample N\n"
               "options: --seed S --spec KEY=V[,KEY=V...] --out DIR\n"
               "         --one-bundle DIR --validate --ks-gate X --replay\n"
               "         --threads N --tick MS --outage MBPS --regimes N\n"
               "         --rtt-regimes N --min-ticks N\n";
  return 2;
}

void print_profile_summary(const synth::SynthProfile& p) {
  std::cout << "Profile: " << p.streams.size() << " (carrier, RAT) streams, "
            << p.mixes.size() << " carrier mixes, tick " << p.tick_ms
            << " ms (source digest " << p.source_digest << ").\n";
  for (const synth::StreamModel& s : p.streams) {
    std::cout << "  " << std::left << std::setw(10)
              << measure::names::to_name(s.carrier) << " " << std::setw(10)
              << measure::names::to_name(s.tech) << std::right << " "
              << std::setw(6) << s.n_ticks << " ticks, outage "
              << std::setprecision(3) << 100.0 * s.outage_fraction
              << "%, handover rate " << s.handover_rate << "/tick\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::obs::flush_at_exit();
  try {
    std::vector<std::string> fit_dirs;
    std::string profile_path;
    std::string out_dir;
    std::string one_bundle_dir;
    std::string spec_text;
    std::uint64_t seed = 1;
    int sample_n = 0;
    int threads = 1;
    bool validate = false;
    bool do_replay = false;
    double ks_gate = 0.15;
    synth::FitOptions fit_options;

    const auto value = [&](int& i) -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error{"missing value for " + std::string{argv[i]}};
      }
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--fit") {
        fit_dirs.push_back(value(i));
      } else if (arg == "--profile") {
        profile_path = value(i);
      } else if (arg == "--sample") {
        sample_n = std::stoi(value(i));
      } else if (arg == "--seed") {
        seed = std::stoull(value(i));
      } else if (arg == "--spec") {
        spec_text = value(i);
      } else if (arg == "--out") {
        out_dir = value(i);
      } else if (arg == "--one-bundle") {
        one_bundle_dir = value(i);
      } else if (arg == "--validate") {
        validate = true;
      } else if (arg == "--ks-gate") {
        ks_gate = std::stod(value(i));
      } else if (arg == "--replay") {
        do_replay = true;
      } else if (arg == "--threads") {
        threads = std::stoi(value(i));
      } else if (arg == "--tick") {
        fit_options.tick_ms = std::stoll(value(i));
      } else if (arg == "--outage") {
        fit_options.outage_mbps = std::stod(value(i));
      } else if (arg == "--regimes") {
        fit_options.throughput_regimes =
            static_cast<std::size_t>(std::stoul(value(i)));
      } else if (arg == "--rtt-regimes") {
        fit_options.rtt_regimes =
            static_cast<std::size_t>(std::stoul(value(i)));
      } else if (arg == "--min-ticks") {
        fit_options.min_stream_ticks = std::stoull(value(i));
      } else {
        std::cerr << "unknown option " << arg << '\n';
        return usage();
      }
    }
    if (fit_dirs.empty() && profile_path.empty()) return usage();
    if (fit_dirs.empty() && sample_n <= 0) return usage();
    if (validate && (fit_dirs.empty() || sample_n <= 0)) {
      std::cerr << "--validate needs --fit and --sample\n";
      return usage();
    }

    // Fit (or load) the profile.
    std::vector<replay::ReplayBundle> sources;
    synth::SynthProfile profile;
    if (!fit_dirs.empty()) {
      std::vector<const replay::ReplayBundle*> ptrs;
      for (const std::string& dir : fit_dirs) {
        std::cout << "Loading " << dir << "...\n";
        sources.push_back(replay::read_dataset(dir));
        ptrs.push_back(&sources.back());
      }
      profile = synth::fit_profile(ptrs, fit_options);
      print_profile_summary(profile);
      if (!profile_path.empty()) {
        synth::write_profile(profile, profile_path);
        std::cout << "Profile written to " << profile_path << '\n';
      }
    } else {
      profile = synth::read_profile(profile_path);
      print_profile_summary(profile);
    }
    if (sample_n <= 0) return 0;

    const synth::ScenarioSpec spec = synth::parse_scenario_spec(spec_text);
    std::cout << "Sampling " << sample_n << " cycle(s), seed " << seed << ": "
              << synth::scenario_summary(spec, profile.tick_ms) << "\n";
    const replay::ReplayBundle bundle =
        synth::sample_bundle(profile, spec, seed, 0, sample_n, threads);
    std::cout << "Synthesized bundle: " << bundle.db.tests.size()
              << " tests, " << bundle.db.kpis.size() << " KPI rows, "
              << bundle.db.rtts.size() << " RTT samples (digest "
              << bundle.manifest.config_digest << ").\n";

    if (!one_bundle_dir.empty()) {
      const auto files =
          measure::write_dataset(bundle.db, one_bundle_dir, bundle.manifest);
      std::cout << "Wrote " << files.size() << " files to " << one_bundle_dir
                << "/\n";
    }
    if (!out_dir.empty()) {
      // One bundle directory per cycle. Counter-based draws make cycle j
      // sampled alone identical to cycle j inside the batch.
      std::filesystem::create_directories(out_dir);
      for (int j = 0; j < sample_n; ++j) {
        const replay::ReplayBundle one =
            synth::sample_bundle(profile, spec, seed, j, 1, threads);
        std::ostringstream name;
        name << out_dir << "/cycle-" << std::setfill('0') << std::setw(3)
             << j;
        measure::write_dataset(one.db, name.str(), one.manifest);
      }
      std::cout << "Wrote " << sample_n << " cycle bundles under " << out_dir
                << "/\n";
    }

    int rc = 0;
    if (validate) {
      measure::ConsolidatedDb pooled_source;
      synth::ValidationReport merged;
      // Pool the fit sources' evidence for the comparison.
      const replay::ReplayBundle* source = &sources.front();
      if (sources.size() == 1) {
        merged = synth::validate_synthesis(source->db, bundle.db, profile);
      } else {
        for (const replay::ReplayBundle& b : sources) {
          pooled_source.kpis.insert(pooled_source.kpis.end(),
                                    b.db.kpis.begin(), b.db.kpis.end());
          pooled_source.rtts.insert(pooled_source.rtts.end(),
                                    b.db.rtts.begin(), b.db.rtts.end());
          pooled_source.tests.insert(pooled_source.tests.end(),
                                     b.db.tests.begin(), b.db.tests.end());
        }
        merged = synth::validate_synthesis(pooled_source, bundle.db, profile);
      }
      synth::print_validation(std::cout, merged, ks_gate);
      if (!merged.passes(ks_gate)) rc = 1;
    }
    if (do_replay) {
      const replay::ReplayConfig cfg = replay::replay_config_from_env();
      const measure::ConsolidatedDb replayed =
          replay::ReplayCampaign{bundle, cfg}.run();
      replay::print_comparison(std::cout, "synthesized",
                               replay::summarize(bundle.db), "replayed",
                               replay::summarize(replayed));
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "synth_trace: " << e.what() << '\n';
    return 1;
  }
}
