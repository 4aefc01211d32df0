// ReplayFleet: multi-trace fleet replay with knob sweeps.
//
// The paper's dataset is a *fleet* of recordings — days, carriers, routes,
// scales — and campaign-wide claims (Tables 2-4 medians, counterfactual
// deltas) only reproduce over many recordings at once. ReplayFleet is the
// campaign::FleetRunner of the replay world: it fans (bundle, knob-cell)
// work items out through core::run_indexed, runs each through
// ReplayCampaign, and pools the per-bundle sample series into one
// fleet-level aggregate — per-carrier medians with closed-form 95% CIs per
// knob cell, plus each cell's delta against the all-recorded baseline.
//
// Determinism contract (the FleetRunner discipline, fleet_runner.hpp):
// every work item writes only its own pre-allocated slot, inner replays run
// serially (they are thread-count invariant anyway), and pooling reads the
// slots in submission order. The intervals are read off each sorted pooled
// series and draw no random number — so FleetResult, and the CSV
// write_fleet_csv emits, are byte-identical for every WHEELS_THREADS.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "net/server.hpp"
#include "radio/technology.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels::replay {

/// Value lists of the knob sweep, one axis per ReplayKnobs field; nullopt is
/// the "as recorded" value. Defaults to the single recorded value on every
/// axis, so an empty grid replays the fleet once, baseline only.
struct KnobGrid {
  std::vector<std::optional<transport::CcAlgo>> cc{std::nullopt};
  std::vector<std::optional<net::ServerKind>> server{std::nullopt};
  std::vector<std::optional<radio::Technology>> max_tier{std::nullopt};
};

/// Apply one CLI grid token to `grid`, replacing that axis: "cc=cubic,bbr",
/// "server=cloud,edge" or "tier=LTE,5G-mid" (the value "recorded" selects
/// the unset knob). Throws std::runtime_error naming the offending
/// dimension, value, or duplicated value.
void apply_grid_axis(KnobGrid& grid, const std::string& spec);

/// Cartesian expansion in fixed cc-major, server, tier-minor order, with the
/// all-recorded baseline cell prepended when the product does not already
/// contain it — cell 0 is always the reference the deltas are against.
std::vector<ReplayKnobs> expand_grid(const KnobGrid& grid);

/// Stable label of one cell, e.g. "cc=bbr|server=edge|tier=recorded"; the
/// all-recorded baseline is "recorded".
std::string cell_label(const ReplayKnobs& knobs);

/// One bundle to replay: a display name plus a non-owning pointer to a
/// loaded bundle the caller keeps alive across run().
struct FleetItem {
  std::string name;
  const ReplayBundle* bundle = nullptr;
};

/// One fleet path spec, parsed: a dataset directory, or an external
/// per-tick trace CSV (a path ending in ".csv"), optionally suffixed
/// "@carrier" to pick the trace bundle's carrier (default Verizon).
/// ingest::load_fleet_bundle loads one.
struct FleetSpec {
  std::string path;
  radio::Carrier carrier = radio::Carrier::Verizon;
  bool is_trace = false;
};

/// The one parser of the fleet spec grammar. "@carrier" splits off only when
/// the part before the last '@' ends in ".csv", so a bundle directory may
/// hold '@' or ".csv" anywhere in its name. Throws std::runtime_error on an
/// unknown carrier name.
FleetSpec parse_fleet_spec(const std::string& spec);

/// Expand fleet path specs in place of globbing: a spec naming a directory
/// that is not itself a bundle (no manifest.json) but holds bundle
/// subdirectories — e.g. synth_trace --out output, output/cycle-000/... —
/// expands to those subdirectories in lexicographic name order. Every other
/// spec (bundle dirs, ".csv[@carrier]" traces) passes through unchanged.
/// Throws std::runtime_error when a directory spec contains no bundles, or
/// on a trace spec's unknown carrier.
std::vector<std::string> expand_fleet_specs(
    const std::vector<std::string>& specs);

struct FleetConfig {
  /// Per-replay configuration. `replay.threads` is ignored: inner replays
  /// run serially and all parallelism is spent at the fleet level, which
  /// changes no output byte (replay_campaign.hpp's invariance).
  ReplayConfig replay;
  /// Concurrent (bundle, cell) work items; 0 = auto (WHEELS_THREADS).
  int threads = 0;
  KnobGrid grid;
};

/// Pooled statistics of one metric over every bundle's samples in one cell.
struct MetricAggregate {
  std::size_t n = 0;
  double median = 0.0;
  /// 95% order-statistic CI of the median (analysis::median_ci); {0,0,0}
  /// when n == 0.
  analysis::ConfidenceInterval ci;
  /// 95% CI of (this cell's median - the recorded baseline's median), Price
  /// & Bonett's interval over both pooled series
  /// (analysis::median_delta_ci). Only meaningful when has_delta.
  analysis::ConfidenceInterval delta_ci;
  /// delta_ci was computed: a non-baseline cell with samples on both sides.
  bool has_delta = false;
  /// delta_ci excludes zero — the knob's effect on this metric clears
  /// sampling noise at the 95% level.
  bool significant = false;
};

/// The six headline series of CarrierSamples, in fleet table order.
inline constexpr std::size_t kFleetMetricCount = 6;
extern const std::array<const char*, kFleetMetricCount> kFleetMetricNames;

/// Series `metric` (an index into kFleetMetricNames) of one carrier's
/// samples.
const std::vector<double>& metric_series(const CarrierSamples& samples,
                                         std::size_t metric);

struct CellAggregate {
  std::size_t cell = 0;  // index into FleetResult::cells
  std::array<std::array<MetricAggregate, kFleetMetricCount>,
             radio::kCarrierCount>
      metrics{};
};

/// One (bundle, cell) replay's headline summary.
struct FleetRunResult {
  std::size_t bundle = 0;
  std::size_t cell = 0;
  ReportSummary summary;
};

struct FleetResult {
  std::vector<std::string> bundles;      // submission order
  std::vector<ReplayKnobs> cells;        // expand_grid order, baseline first
  std::vector<FleetRunResult> runs;      // bundle-major, cell-minor
  std::vector<CellAggregate> aggregate;  // one per cell, same order
};

class ReplayFleet {
 public:
  explicit ReplayFleet(FleetConfig config = {});

  const FleetConfig& config() const { return config_; }
  /// The expanded knob grid (baseline first).
  const std::vector<ReplayKnobs>& cells() const { return cells_; }

  /// Replay every (bundle, cell) pair and aggregate. Deterministic and
  /// identically ordered for every thread count.
  FleetResult run(const std::vector<FleetItem>& items) const;

 private:
  FleetConfig config_;
  std::vector<ReplayKnobs> cells_;
};

/// The aggregate as CSV — `cell,carrier,metric,n,median,ci_lo,ci_hi,
/// delta_vs_recorded_pct,significant`, doubles at measure::csv_double
/// precision, rows in (cell, carrier, metric) order: byte-identical for
/// every WHEELS_THREADS. Empty-series medians/CIs render as empty fields, as
/// does the delta of a zero or empty baseline; `significant` is 1/0 where a
/// delta CI exists (non-baseline cell, samples on both sides) and empty
/// elsewhere.
void write_fleet_csv(std::ostream& os, const FleetResult& result);

/// Human-readable report: one per-bundle table per cell, then the pooled
/// aggregate with 95% CIs and deltas against the recorded baseline.
void print_fleet(std::ostream& os, const FleetResult& result);

}  // namespace wheels::replay
