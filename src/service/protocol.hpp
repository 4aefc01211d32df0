// The wheelsd wire protocol: newline-delimited JSON over a local socket.
//
// One request per line, one JSON object per request, parsed by the same
// strict line-tracking reader as synth profiles (core::json) under the
// "protocol" prefix — a truncated line, an unknown op, a version-skewed
// client each fail with an exact, tested message instead of a guess.
// Responses are single lines {"ok": true, ...} / {"ok": false, "error":
// "..."}, except `watch`, which streams status lines: one at once, then one
// per change of the job's state or stage, the terminal state's line last.
// Strings are escaped (core::json::escape), so a multi-line error still
// travels as one line.
//
// Ops:
//   {"v": 1, "op": "submit", "job": {...}}   -> status (id, state, cache_hit)
//   {"v": 1, "op": "status", "id": N}        -> status
//   {"v": 1, "op": "watch",  "id": N}        -> status stream, ends terminal
//   {"v": 1, "op": "result", "id": N}        -> result (path, digest, files)
//   {"v": 1, "op": "cancel", "id": N}        -> status
//   {"v": 1, "op": "stats"}                  -> job/cache/counter stats
//   {"v": 1, "op": "shutdown"}               -> {"ok": true}
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ran/scheduler.hpp"
#include "replay/replay_campaign.hpp"

namespace wheels::service {

inline constexpr int kProtocolVersion = 1;

enum class JobKind { Campaign, Replay, Fleet, Synth };
std::string_view job_kind_name(JobKind k);
/// Exact reverse of job_kind_name. Returns nullopt on unknown text.
std::optional<JobKind> parse_job_kind(std::string_view text);

enum class JobState { Queued, Running, Done, Failed, Cancelled };
std::string_view job_state_name(JobState s);
std::optional<JobState> parse_job_state(std::string_view text);
/// Done, Failed and Cancelled are terminal: the state can no longer change.
bool is_terminal(JobState s);

/// One job request. A flat superset of the four job kinds' knobs. Each JSON
/// key is declared once, in protocol.cpp's job-key table (its name, kinds,
/// field, type, bounds and requiredness); the parser, to_json() and
/// apply_job_arg() all read that table, so only the fields relevant to
/// `kind` are rendered and accepted (an off-kind key is a protocol error,
/// not silently ignored).
struct JobSpec {
  JobKind kind = JobKind::Campaign;
  /// Seed of the job's own stochastic layers — part of the cache key. The
  /// wire carries it exactly, as plain digits (core::json::Doc::u64).
  std::uint64_t seed = 1;

  // --- campaign ---
  double scale = 0.02;
  bool apps = true;
  int stride = 4;
  bool run_static = true;
  int idle = 0;
  int ues = 0;
  ran::SchedulerKind scheduler = ran::SchedulerKind::ProportionalFair;

  // --- replay / fleet ---
  /// replay ("bundle"): exactly one source bundle dir; fleet ("bundles"):
  /// one or more fleet path specs (bundle dirs, trace CSVs, dirs of bundles
  /// — replay/fleet.hpp).
  std::vector<std::string> bundles;
  replay::ReplayKnobs knobs;
  replay::HoldPolicy policy = replay::HoldPolicy::Hold;
  /// Fleet knob-grid axes, apply_grid_axis grammar ("cc=cubic,bbr", ...).
  std::vector<std::string> grid;

  // --- synth ---
  std::string profile;
  int cycles = 1;
  /// "spec": parse_scenario_spec grammar ("duration_s=60,load=1.5,...").
  std::string scenario;

  /// The "job" object of a submit request; parse_job_spec inverts it.
  std::string to_json() const;
};

/// Apply one wheelsctl-style "key=value" argument to `spec` ("seed=7",
/// "scale=0.05", "cc=bbr", ...): the JSON keys of spec.kind, read from the
/// same table and decoded as the parser decodes them. A list key ("grid",
/// "bundles", and a fleet's "bundle") appends one item per argument.
/// Throws std::runtime_error naming an unknown key or malformed value, e.g.
/// `unknown job argument "grid" for campaign jobs`.
void apply_job_arg(JobSpec& spec, const std::string& arg);

struct Request {
  enum class Op { Submit, Status, Watch, Result, Cancel, Stats, Shutdown };
  Op op = Op::Stats;
  std::uint64_t id = 0;  // status/watch/result/cancel
  JobSpec job;           // submit
};

/// Parse one request line. Throws std::runtime_error
/// "protocol: line 1: ..." on anything malformed: bad JSON, a missing or
/// mistyped key, an unsupported version, an unknown op or job kind.
Request parse_request(const std::string& line);

/// What a finished job produced: a bundle directory inside the daemon's
/// cache. `content_digest` is the FNV-1a digest of the stored file set
/// (service::digest_directory), so byte-identity between two results is
/// checkable from the digests alone.
struct ResultInfo {
  std::string path;
  std::string content_digest;
  std::uint64_t bytes = 0;
  std::vector<std::string> files;  // sorted file names
};

/// One job's externally visible state; the payload of submit acks, status
/// polls and watch stream lines.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::Queued;
  /// Where a running job is: "queued", "cache lookup", "computing",
  /// "publishing".
  std::string stage;
  /// The result was served from the cache without recomputing.
  bool cache_hit = false;
  std::string error;  // Failed only
  std::optional<ResultInfo> result;
  /// Progress snapshot: the daemon's "service."-prefixed obs counters at
  /// response time (core::obs::MetricsRegistry).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

struct StatsInfo {
  std::map<std::string, std::uint64_t> jobs_by_state;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_max_bytes = 0;
  /// Index lines the cache rejected on load ("cache index: line N: ...").
  std::vector<std::string> cache_warnings;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

// --- Response rendering (server side) ---
std::string render_error(const std::string& message);
std::string render_status(const JobStatus& status);
std::string render_result(std::uint64_t id, bool cache_hit,
                          const ResultInfo& result);
std::string render_stats(const StatsInfo& stats);
std::string render_ok();

// --- Response decoding (client side). Each throws std::runtime_error with
// the server's verbatim error string on {"ok": false}. ---
JobStatus parse_status_response(const std::string& line);
ResultInfo parse_result_response(const std::string& line, bool* cache_hit);
StatsInfo parse_stats_response(const std::string& line);
void parse_ok_response(const std::string& line);

}  // namespace wheels::service
