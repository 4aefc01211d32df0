#include "service/jobs.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/campaign.hpp"
#include "core/obs/manifest.hpp"
#include "core/obs/metrics.hpp"
#include "ingest/ingest.hpp"
#include "measure/enum_names.hpp"
#include "replay/fleet.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "synth/profile.hpp"
#include "synth/sample.hpp"

namespace wheels::service {

namespace fs = std::filesystem;

namespace {

campaign::CampaignConfig to_campaign_config(const JobSpec& spec) {
  campaign::CampaignConfig cfg;
  cfg.seed = spec.seed;
  cfg.scale = spec.scale;
  cfg.run_apps = spec.apps;
  cfg.long_app_stride = spec.stride;
  cfg.run_static = spec.run_static;
  cfg.idle_ticks_between_cycles = spec.idle;
  cfg.population = spec.ues;
  cfg.scheduler = spec.scheduler;
  cfg.threads = 1;
  return cfg;
}

replay::ReplayConfig to_replay_config(const JobSpec& spec) {
  replay::ReplayConfig cfg;
  cfg.seed = spec.seed;
  cfg.policy = spec.policy;
  cfg.knobs = spec.knobs;
  cfg.threads = 1;
  return cfg;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{path + ": cannot open"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// The identity string of one bundle manifest — everything that pins which
/// data a bundle holds (its config digest plus the run's seed and scale).
std::string manifest_identity(const core::obs::RunManifest& m) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "config=%s;seed=%llu;scale=%.17g",
                m.config_digest.c_str(),
                static_cast<unsigned long long>(m.seed), m.scale);
  return buf;
}

/// Identity of one expanded fleet path spec: bundle dirs contribute their
/// manifest identity, external trace CSVs the digest of their bytes plus
/// the selected carrier and the ingest path that loads them (the "minimal"
/// adapter of ingest::load_fleet_bundle) — renaming a file changes nothing,
/// editing a tick changes the key, and a cache entry written while trace
/// specs loaded another way misses.
std::string spec_identity(const std::string& spec) {
  const replay::FleetSpec parsed = replay::parse_fleet_spec(spec);
  if (parsed.is_trace) {
    return "trace=" +
           core::obs::hex64(core::obs::fnv1a64(read_file_bytes(parsed.path))) +
           ";carrier=" + std::string{measure::names::to_name(parsed.carrier)} +
           ";via=minimal";
  }
  return manifest_identity(core::obs::read_manifest(
      (fs::path{parsed.path} / "manifest.json").string()));
}

/// The fleet job's canonical config string: the expanded knob grid (cell
/// labels in expand_grid order) and the interpolation policy — everything
/// that shapes fleet.csv besides the input bundles.
std::string fleet_canonical(const JobSpec& spec,
                            const std::vector<replay::ReplayKnobs>& cells) {
  std::string canon = "fleet;interp=";
  canon += replay::hold_policy_name(spec.policy);
  canon += ";cells=";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) canon += ",";
    canon += replay::cell_label(cells[i]);
  }
  return canon;
}

std::vector<replay::ReplayKnobs> fleet_cells(const JobSpec& spec) {
  replay::KnobGrid grid;
  for (const std::string& axis : spec.grid) {
    replay::apply_grid_axis(grid, axis);
  }
  return replay::expand_grid(grid);
}

void run_fleet_job(const JobSpec& spec, const std::string& out_dir) {
  const std::vector<std::string> specs =
      replay::expand_fleet_specs(spec.bundles);
  std::vector<replay::ReplayBundle> bundles;
  bundles.reserve(specs.size());
  for (const std::string& s : specs) {
    bundles.push_back(ingest::load_fleet_bundle(s));
  }
  std::vector<replay::FleetItem> items;
  items.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    items.push_back({specs[i], &bundles[i]});
  }
  replay::FleetConfig cfg;
  cfg.replay = to_replay_config(spec);
  cfg.threads = 1;
  for (const std::string& axis : spec.grid) {
    replay::apply_grid_axis(cfg.grid, axis);
  }
  const replay::ReplayFleet fleet{cfg};
  const replay::FleetResult result = fleet.run(items);

  fs::create_directories(out_dir);
  const std::string csv_path = (fs::path{out_dir} / "fleet.csv").string();
  std::ofstream csv{csv_path, std::ios::binary};
  if (!csv) {
    throw std::runtime_error{csv_path + ": cannot open for writing"};
  }
  replay::write_fleet_csv(csv, result);
  csv.close();

  core::obs::RunManifest manifest = core::obs::make_run_manifest();
  manifest.seed = spec.seed;
  manifest.scale = 0.0;
  manifest.config_digest =
      core::obs::hex64(core::obs::fnv1a64(fleet_canonical(spec,
                                                          fleet.cells())));
  manifest.threads = 1;
  core::obs::canonicalize_provenance(manifest);
  core::obs::write_manifest(manifest,
                            (fs::path{out_dir} / "manifest.json").string());
}

}  // namespace

std::string CacheKey::dir_name() const {
  std::string out{job_kind_name(kind)};
  out += "-" + config_digest + "-" + std::to_string(seed) + "-" +
         input_digest;
  return out;
}

CacheKey cache_key(const JobSpec& spec) {
  CacheKey key{spec.kind, "", spec.seed, "-"};
  switch (spec.kind) {
    case JobKind::Campaign:
      key.config_digest =
          campaign::make_manifest(to_campaign_config(spec)).config_digest;
      break;
    case JobKind::Replay: {
      const core::obs::RunManifest source = core::obs::read_manifest(
          (fs::path{spec.bundles[0]} / "manifest.json").string());
      key.config_digest =
          replay::make_replay_manifest(to_replay_config(spec), source)
              .config_digest;
      key.input_digest =
          core::obs::hex64(core::obs::fnv1a64(manifest_identity(source)));
      break;
    }
    case JobKind::Fleet: {
      key.config_digest = core::obs::hex64(
          core::obs::fnv1a64(fleet_canonical(spec, fleet_cells(spec))));
      std::string joined;
      for (const std::string& s : replay::expand_fleet_specs(spec.bundles)) {
        if (!joined.empty()) joined += "|";
        joined += spec_identity(s);
      }
      key.input_digest = core::obs::hex64(core::obs::fnv1a64(joined));
      break;
    }
    case JobKind::Synth: {
      const synth::ScenarioSpec scenario =
          synth::parse_scenario_spec(spec.scenario);
      const std::string canon = "synth;cycles=" +
                                std::to_string(spec.cycles) + ";spec=" +
                                synth::scenario_canonical(scenario);
      key.config_digest = core::obs::hex64(core::obs::fnv1a64(canon));
      key.input_digest = core::obs::hex64(
          core::obs::fnv1a64(read_file_bytes(spec.profile)));
      break;
    }
  }
  return key;
}

void run_job(const JobSpec& spec, const std::string& out_dir) {
  static const core::obs::Counter computed{"service.jobs_computed"};
  computed.add();
  switch (spec.kind) {
    case JobKind::Campaign:
      campaign::run_to_bundle(to_campaign_config(spec), out_dir,
                              /*canonical_provenance=*/true);
      return;
    case JobKind::Replay: {
      const replay::ReplayBundle bundle = replay::read_dataset(
          spec.bundles[0]);
      replay::replay_to_bundle(bundle, to_replay_config(spec), out_dir,
                               /*canonical_provenance=*/true);
      return;
    }
    case JobKind::Fleet:
      run_fleet_job(spec, out_dir);
      return;
    case JobKind::Synth: {
      const synth::SynthProfile profile = synth::read_profile(spec.profile);
      const synth::ScenarioSpec scenario =
          synth::parse_scenario_spec(spec.scenario);
      synth::sample_to_bundle(profile, scenario, spec.seed,
                              /*first_cycle=*/0, spec.cycles, /*threads=*/1,
                              out_dir, /*canonical_provenance=*/true);
      return;
    }
  }
}

}  // namespace wheels::service
