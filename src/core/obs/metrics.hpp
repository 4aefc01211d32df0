// MetricsRegistry: named counters and fixed-bucket histograms with
// thread-local shards merged on snapshot.
//
// The same shard-then-merge discipline as measure::RecordShard, for the same
// reason: instrumented code runs on whatever worker thread the pool picked,
// so every thread increments its own private shard (no locks, no contention)
// and snapshot() merges the shards. All stored quantities are integers, so
// the merge is order-free and the *deterministic* snapshot — everything not
// prefixed "rt." — is byte-identical for any WHEELS_THREADS (enforced by
// tests/test_obs.cpp, the same gate pattern as test_campaign_parallel.cpp).
//
// Cost model: an increment is one thread-local lookup, an uncontended
// per-shard lock, and a vector index — always on, cheap enough for per-tick
// call sites. The shard lock is what makes snapshot() safe to call *while*
// instrumented work runs (wheelsd streams job progress from mid-run
// snapshots); it is only ever contended by such a concurrent snapshot.
// Wall-clock reads and anything else that varies run-to-run must be filed
// under an "rt." name so the deterministic snapshot stays exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wheels::core::obs {

/// Dense per-registry metric index. Resolve once (e.g. in a function-local
/// static) and reuse; resolution takes the registry lock, add/observe do not.
using MetricId = std::size_t;

/// Names prefixed "rt." are *runtime* metrics (wall-clock batch times):
/// legitimate observability, but dependent on thread count and machine load,
/// so Snapshot::to_json(false) excludes them.
bool is_runtime_metric(std::string_view name);

class MetricsRegistry {
 public:
  /// A resolved histogram: the id plus its immutable bucket definition, so
  /// observe() never touches the registry lock.
  struct HistogramHandle {
    MetricId id = 0;
    const void* def = nullptr;  // internal HistogramDef*
  };

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumentation hook reports to.
  static MetricsRegistry& global();

  /// Id of the named counter (created on first use).
  MetricId counter_id(std::string_view name);

  /// Handle of the named histogram (created on first use). `upper_bounds`
  /// are ascending bucket upper bounds; an implicit +inf bucket is appended.
  /// Empty means default_ms_bounds(). Later calls with the same name reuse
  /// the first definition.
  HistogramHandle histogram(std::string_view name,
                            std::span<const double> upper_bounds = {});

  void add(MetricId counter, std::uint64_t delta = 1);
  void observe(const HistogramHandle& histogram, double value);

  struct HistogramSnapshot {
    std::vector<double> upper_bounds;
    /// counts[i] observations <= upper_bounds[i]; counts.back() is the
    /// overflow (+inf) bucket. Size = upper_bounds.size() + 1.
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
  };
  struct Snapshot {
    /// Sorted by name.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
    /// Stable JSON rendering; with include_runtime=false, "rt." metrics are
    /// dropped and the result is byte-identical across thread counts.
    std::string to_json(bool include_runtime = false) const;
    /// The named counter's merged value, or nullptr when it never fired —
    /// the progress-snapshot hook wheelsd streams job progress from (and
    /// tests assert cache behaviour with) without parsing to_json().
    const std::uint64_t* find_counter(std::string_view name) const;
  };

  /// Merge every thread's shard. Safe to call while instrumented work is
  /// still running (each shard is merged under its own lock) — a mid-run
  /// snapshot is a consistent progress view. For an *exact* total, call
  /// after the concurrent work has joined (e.g. after DriveCampaign::run
  /// returned); the return of core::ThreadPool::run_indexed establishes the
  /// needed happens-before edge.
  Snapshot snapshot() const;

  /// Zero every shard's totals (the name table survives, ids stay valid).
  void reset();

  /// Default bucket upper bounds for millisecond-scale histograms
  /// (0.5 ms .. 60 s).
  static std::span<const double> default_ms_bounds();

 private:
  struct Shard;
  struct HistogramDef;

  Shard& local_shard() const;

  const std::uint64_t uid_;  // never reused; keys the thread-local cache
  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::map<std::string, MetricId, std::less<>> counter_ids_;
  std::vector<std::unique_ptr<HistogramDef>> histogram_defs_;
  std::map<std::string, MetricId, std::less<>> histogram_ids_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

/// A named counter bound to the global registry, resolved once at
/// construction — collapses the "static MetricId + registry lookup"
/// boilerplate at instrumentation sites to
///   static const Counter c{"replay.fleet.runs"};
///   c.add();
/// Safe to construct as a function-local static from any thread (the
/// registry lock serialises the id lookup).
class Counter {
 public:
  explicit Counter(std::string_view name)
      : id_(MetricsRegistry::global().counter_id(name)) {}
  void add(std::uint64_t delta = 1) const {
    MetricsRegistry::global().add(id_, delta);
  }

 private:
  MetricId id_;
};

/// Write the global registry's full snapshot (runtime metrics included) to
/// $WHEELS_METRICS_OUT and the global trace collector to $WHEELS_TRACE_OUT,
/// when those variables name writable paths. No-op when unset. Called by
/// measure::write_dataset and, via flush_at_exit(), by every example and
/// bench binary.
void flush_to_env_sinks();

/// Idempotently register a std::atexit hook running flush_to_env_sinks().
/// Constructs the global registry and trace collector first, so both
/// outlive the hook however late the program first uses them.
void flush_at_exit();

}  // namespace wheels::core::obs
