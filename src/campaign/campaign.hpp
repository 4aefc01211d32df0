// DriveCampaign: the public entry point of the library.
//
// Re-enacts the paper's 8-day LA→Boston measurement campaign: three carrier
// phones in one van run round-robin tests (30 s nuttcp DL, 30 s nuttcp UL,
// 20 s ping, AR ×2, CAV ×2, periodic 3-min 360° video and 1-min cloud
// gaming) against the timezone-appropriate cloud server (or a Wavelength
// edge for Verizon near edge cities), while three more phones passively log
// handovers with 200 ms pings, and static baseline tests run in each major
// city in front of the best high-speed 5G site. Every throughput/RTT test's
// data flows through the XCAL `.drm` + app-log + LogSynchronizer pipeline
// before landing in the ConsolidatedDb.
//
// The whole campaign is deterministic in (seed, config) — including across
// thread counts: the three carrier pipelines are computationally independent
// (core::Rng::fork gives each subsystem its own stream) and their records
// are merged into the ConsolidatedDb in canonical carrier order, so
// WHEELS_THREADS only changes wall-clock time, never a single byte of the
// database.
#pragma once

#include <cstdint>

#include "core/obs/manifest.hpp"
#include "measure/records.hpp"
#include "radio/deployment.hpp"
#include "ran/scheduler.hpp"

namespace wheels::campaign {

struct CampaignConfig {
  std::uint64_t seed = 20220808;
  /// Fraction of the full 5,711 km trip to drive (map compressed, see
  /// geo::ScaledRoute). 1.0 reproduces the paper; benches use ~0.05-0.2.
  double scale = 1.0;
  /// Run the four killer-app tests (AR/CAV every cycle, video & gaming every
  /// `long_app_stride` cycles — they are long).
  bool run_apps = true;
  int long_app_stride = 4;
  /// Run static city baselines.
  bool run_static = true;
  /// Idle ticks (500 ms each) inserted between round-robin cycles.
  int idle_ticks_between_cycles = 0;

  /// What-if deployment scaling (1.0 everywhere = the paper's 2022 world).
  radio::DeploymentOverrides deployment;

  /// Test durations (ticks of 500 ms), defaults per the paper.
  int bulk_ticks = 60;      // 30 s
  int rtt_ticks = 40;       // 20 s
  int offload_ticks = 40;   // 20 s per AR/CAV run
  int video_ticks = 360;    // 180 s
  int gaming_ticks = 120;   // 60 s

  /// Tick budget of one app test of `type` (offload_ticks, video_ticks or
  /// gaming_ticks); 0 for bulk and ping tests.
  int app_ticks(measure::TestType type) const;

  /// Threads for the per-carrier pipelines (radio ticks, transport, apps,
  /// passive logging), the calling thread included. 0 = auto
  /// (WHEELS_THREADS, else hardware_concurrency); 1 = the serial path. The
  /// resulting ConsolidatedDb is byte-identical for every value — see
  /// docs/ARCHITECTURE.md, "Parallel execution".
  int threads = 0;

  /// Size of the simulated background UE population (ran::UePool), split
  /// evenly across the three carriers; the measurement phones then share
  /// each cell's downlink with the population (WHEELS_UES). 0 — the default
  /// — disables the pool entirely and reproduces the six-handset paper
  /// campaign byte-for-byte; see docs/SCALING.md.
  int population = 0;
  /// Per-cell scheduling discipline of the population (WHEELS_SCHEDULER:
  /// "pf" or "rr"). No effect when population == 0.
  ran::SchedulerKind scheduler = ran::SchedulerKind::ProportionalFair;
};

/// Reads WHEELS_SCALE / WHEELS_SEED / WHEELS_THREADS / WHEELS_UES /
/// WHEELS_SCHEDULER from the environment (used by the bench binaries so one
/// knob tunes the whole suite). Falls back to the defaults; malformed values
/// go through core::ignore_env (a stderr warning and the config.ignored
/// counter) instead of silently parsing as 0.
CampaignConfig config_from_env(double default_scale = 0.08);

/// The provenance manifest of a campaign about to run with `cfg`: seed,
/// scale, resolved thread count, and the FNV-1a digest of every field that
/// influences the produced data (threads is recorded but excluded from the
/// digest — it never changes a byte of the database). Pass to
/// measure::write_dataset so the bundle's manifest.json identifies the run.
core::obs::RunManifest make_manifest(const CampaignConfig& cfg);

/// Run the campaign and write the resulting dataset bundle into `directory`
/// (the callable job entry point wheelsd schedules). Returns the manifest
/// the bundle was written with. With `canonical_provenance`, the manifest's
/// wall-clock/threads fields are pinned (core::obs::canonicalize_provenance)
/// so identical configs produce byte-identical bundles — the result-cache
/// contract.
core::obs::RunManifest run_to_bundle(const CampaignConfig& cfg,
                                     const std::string& directory,
                                     bool canonical_provenance = false);

class DriveCampaign {
 public:
  explicit DriveCampaign(CampaignConfig config) : config_(config) {}

  /// Run the whole campaign and return the consolidated database.
  measure::ConsolidatedDb run() const;

  const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace wheels::campaign
