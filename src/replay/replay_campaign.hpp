// ReplayCampaign: re-run the transport and application layers over a
// recorded drive.
//
// The recorded bundle pins the radio layer: bulk flows run over each test's
// recorded KPI rows, pings over its recorded echoes, and app sessions over
// their recorded link ticks (or, in bundles without them, over the carrier's
// merged TraceChannel timeline). TCP bulk flows, the ping latency model and
// all four apps run live on top. With unchanged knobs the replay reproduces
// the recorded per-test summaries; with a knob turned — another congestion
// control, cloud<->edge, a service-tier cap — the same recorded radio
// conditions answer a counterfactual.
//
// A replay rewrites the recording in place: the output tables start as
// copies of the recorded ones, one job per carrier (core::run_indexed)
// rewrites that carrier's tests' rows, and rows the recording lacks (the
// fallback's link ticks, runs of app tests that recorded none) follow the
// recorded rows in test-id order. Jobs write disjoint rows and draw from
// per-test Rng streams forked from (seed, carrier, test id); byte counters
// sum in carrier order. The replayed ConsolidatedDb therefore lines up row
// for row with the recording and is byte-identical for every WHEELS_THREADS
// (tests/test_replay.cpp). The recording must pass measure::validate, whose
// row-kind rules guarantee every row is visited.
#pragma once

#include <cstdint>
#include <optional>

#include "measure/records.hpp"
#include "net/server.hpp"
#include "radio/technology.hpp"
#include "replay/ingest.hpp"
#include "replay/trace_channel.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels::replay {

/// Counterfactual switches. Unset = replay what was recorded.
struct ReplayKnobs {
  /// Congestion control for the replayed bulk transfers (recorded: CUBIC).
  std::optional<transport::CcAlgo> cc;
  /// Force every test onto this server class (cloud<->edge swap); RTTs and
  /// app latency shift by the base-RTT delta at the recorded position.
  std::optional<net::ServerKind> server;
  /// Service-tier policy cap: technologies above this tier are downgraded
  /// to it and the replayed capacity is clamped to the tier's PHY ceiling
  /// ("what if this plan had no mmWave?").
  std::optional<radio::Technology> max_tier;
};

struct ReplayConfig {
  /// Seed of the replay's own stochastic layers (transport loss draws). The
  /// radio timeline is recorded and does not consume randomness.
  std::uint64_t seed = 20220808;
  HoldPolicy policy = HoldPolicy::Hold;
  /// Worker threads, resolved like the campaign's (0 = WHEELS_THREADS/auto).
  int threads = 0;
  ReplayKnobs knobs;
};

/// Read WHEELS_REPLAY_SEED, WHEELS_REPLAY_INTERP (hold|linear),
/// WHEELS_REPLAY_CC (cubic|bbr), WHEELS_REPLAY_SERVER (cloud|edge) and
/// WHEELS_REPLAY_MAX_TIER (a technology name). Malformed values go through
/// core::ignore_env and keep the default, like campaign::config_from_env.
ReplayConfig replay_config_from_env();

/// The provenance manifest of a replay about to run: seed = the replay's
/// own seed, scale carried over from the source, and a config digest over
/// everything that shapes the replayed data — the knob cell, the hold
/// policy, and the source bundle's identity (config digest, seed, scale).
/// Computable before the replay runs, so wheelsd keys its result cache on
/// it; written into every bundle replay_to_bundle produces.
core::obs::RunManifest make_replay_manifest(
    const ReplayConfig& config, const core::obs::RunManifest& source);

/// Replay `bundle` under `config` and write the resulting dataset bundle
/// into `directory` (the callable job entry point wheelsd schedules).
/// Returns the manifest the bundle was written with; `canonical_provenance`
/// pins its wall-clock/threads fields (core::obs::canonicalize_provenance)
/// so identical requests produce byte-identical bundles.
core::obs::RunManifest replay_to_bundle(const ReplayBundle& bundle,
                                        const ReplayConfig& config,
                                        const std::string& directory,
                                        bool canonical_provenance = false);

class ReplayCampaign {
 public:
  ReplayCampaign(const ReplayBundle& bundle, ReplayConfig config)
      : bundle_(bundle), config_(config) {}

  /// Replay every recorded test and return the resulting database. Test ids,
  /// order and windows are preserved from the recording; geometry-derived
  /// state (driven km, passive logs, coverage, cells, runtimes) is carried
  /// over unchanged — the radio world is fixed, only transport/apps re-run.
  measure::ConsolidatedDb run() const;

  const ReplayConfig& config() const { return config_; }

 private:
  const ReplayBundle& bundle_;
  ReplayConfig config_;
};

}  // namespace wheels::replay
