// The four benchmark workloads: input generation (set-up), one timed pass
// each, the output checks that run after the timed part, and the probe tour
// of the traced run.
//
// Every path below is relative to the working directory, which run.py points
// at the run's private work directory inside the checkout.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "export/roundtrip.hpp"
#include "replay/ingest.hpp"
#include "service/protocol.hpp"
#include "synth/profile.hpp"

namespace perfbench {

enum class Workload { Campaign, Replay, Emulate, Service };

/// Throws std::runtime_error on an unknown name.
Workload parse_workload(std::string_view name);

/// Generate the workload's inputs from `seed` into the working directory.
void run_setup(Workload workload, std::uint64_t seed);

/// What one pass measured, and what its output checks found.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Per-job latency (ms) from submit to fetched result; service only.
  std::vector<double> job_ms;
  /// Jobs that finished Done; service only.
  std::int64_t jobs_done = 0;
  /// Output checks (service: jobs submitted) and how many of them failed.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  /// campaign: content digest of the written bundle.
  std::string digest;

  void check(bool ok, const std::string& what);
};

/// One timed pass through the workload's path, then its output checks.
/// `index` names the pass's private output paths; `deep_check` adds the
/// checks that cost seconds: the campaign pass reads its bundle back
/// through replay::read_dataset, the replay pass compares its CSV bytes.
PassResult run_pass(Workload workload, int index, bool deep_check);

/// The campaign path: DriveCampaign::run, then write_dataset into the empty
/// directory `out`. The result carries the bundle's content digest; `out`
/// is removed afterwards. With `deep_check`, the bundle must read back
/// through replay::read_dataset.
PassResult campaign_pass(const wheels::campaign::CampaignConfig& cfg,
                         const std::string& out, bool deep_check);

/// The replay path over the bundle at `bundle_dir`: read_dataset, then
/// ReplayCampaign::run with recorded knobs and with cc=bbr. With
/// `deep_check`, the recorded-knob replay must render the bundle's own
/// app_runs.csv and link_ticks.csv byte for byte.
PassResult replay_pass(const std::string& bundle_dir, bool deep_check);

/// Work counts the passes and probes add up as they run, for the traced
/// run's rates and per-call costs: bytes read/written per call, probe call
/// counts, rendered Mahimahi lines. Keyed by span name plus a suffix.
std::map<std::string, double>& tallies();

/// tallies()[key] += amount, from any thread.
void tally(const std::string& key, double amount);

struct ClientJob {
  /// Index of the earlier job of the same client this one repeats, or -1.
  int repeat_of = -1;
  wheels::service::JobSpec spec;
};

/// Inputs of the probe tour, generated from the seed under tour/ before the
/// traced window opens: a small campaign bundle (held in memory too, for
/// the transport and apps probes), small external traces, a synth profile
/// and a three-job client list.
struct TourInputs {
  wheels::replay::ReplayBundle bundle;
  std::vector<std::vector<ClientJob>> jobs;
};
TourInputs prepare_tour(std::uint64_t seed);

/// The probe tour of the traced run: a small instance of every workload's
/// public calls plus the per-operation layer probes, so every layer records
/// spans whichever workload is traced. Checks land in `checks`.
void run_tour(std::uint64_t seed, const TourInputs& tour, PassResult& checks);

// --- input generation shared by set-up and the tour ---

/// Seeded external traces: a Mahimahi .down/.up pair for Verizon and
/// minimal column CSVs for T-Mobile and AT&T, `ticks` 500 ms ticks each.
void write_emulate_traces(const std::string& dir, std::uint64_t seed,
                          int ticks);

/// What the emulate pipeline produced, kept for its output checks.
struct EmulateRun {
  wheels::replay::ReplayBundle source;
  wheels::synth::SynthProfile profile;
  wheels::replay::ReplayBundle sampled;
  std::vector<wheels::emu::RoundTripReport> roundtrips;  // one per carrier
};

/// The emulate pipeline over traces written by write_emulate_traces:
/// ingest_join -> fit_profile -> sample_bundle (`cycles` cycles of
/// `cycle_s` seconds) -> render every sampled carrier timeline through
/// every exporter -> verify_mahimahi_roundtrip.
EmulateRun run_emulate(const std::string& dir, std::uint64_t seed, int cycles,
                       double cycle_s);

/// Every round trip within its bound and, with `ks_gate`, the synthesis KS
/// gate at 0.15 (which needs a long enough sample to mean anything).
void check_emulate(const EmulateRun& run, PassResult& checks, bool ks_gate);

/// An in-process service::Server on a private socket and cache directory
/// (both named by `tag`), and one closed-loop client thread per job list:
/// submit, wait, fetch, next. The pass covers the client loop only.
PassResult service_round(const std::string& tag,
                         const std::vector<std::vector<ClientJob>>& clients);

}  // namespace perfbench
