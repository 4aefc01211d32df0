#include "core/obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/obs/trace_export.hpp"

namespace wheels::core::obs {

namespace {

constexpr double kDefaultMsBounds[] = {
    0.5,    1.0,    2.0,    5.0,     10.0,    20.0,    50.0,    100.0,
    200.0,  500.0,  1000.0, 2000.0,  5000.0,  10000.0, 30000.0, 60000.0};

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> n{1};
  return n.fetch_add(1, std::memory_order_relaxed);
}

/// Shortest-exact double for the JSON rendering (bounds come from static
/// tables, so the text is stable across runs and platforms with IEEE754).
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool is_runtime_metric(std::string_view name) {
  return name.substr(0, 3) == "rt.";
}

struct MetricsRegistry::HistogramDef {
  std::string name;
  std::vector<double> upper_bounds;
};

struct MetricsRegistry::Shard {
  /// Guards the two tables below. Only the owning thread writes, so the hot
  /// path (add/observe) takes an uncontended lock; cross-thread readers —
  /// snapshot() and reset() — contend only for the duration of one merge.
  /// This is what lets wheelsd stream progress snapshots while jobs are
  /// still incrementing counters on pool workers.
  std::mutex mu;
  std::vector<std::uint64_t> counters;
  /// Indexed by histogram id; inner vector sized upper_bounds.size() + 1.
  std::vector<std::vector<std::uint64_t>> histograms;
};

namespace {

struct TlsEntry {
  std::uint64_t uid;
  void* shard;  // MetricsRegistry::Shard* (private; cast in local_shard)
};

/// Per-thread cache of (registry uid -> shard). Entries for destroyed
/// registries are never matched (uids are not reused) and never dereferenced.
thread_local std::vector<TlsEntry> tls_shards;

}  // namespace

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() const {
  for (const TlsEntry& e : tls_shards) {
    if (e.uid == uid_) return *static_cast<Shard*>(e.shard);
  }
  std::lock_guard lk{mu_};
  shards_.push_back(std::make_unique<Shard>());
  Shard* s = shards_.back().get();
  tls_shards.push_back({uid_, s});
  return *s;
}

MetricId MetricsRegistry::counter_id(std::string_view name) {
  std::lock_guard lk{mu_};
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return it->second;
  const MetricId id = counter_names_.size();
  counter_names_.emplace_back(name);
  counter_ids_.emplace(std::string{name}, id);
  return id;
}

MetricsRegistry::HistogramHandle MetricsRegistry::histogram(
    std::string_view name, std::span<const double> upper_bounds) {
  std::lock_guard lk{mu_};
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) {
    return {it->second, histogram_defs_[it->second].get()};
  }
  const MetricId id = histogram_defs_.size();
  auto def = std::make_unique<HistogramDef>();
  def->name = std::string{name};
  if (upper_bounds.empty()) upper_bounds = default_ms_bounds();
  def->upper_bounds.assign(upper_bounds.begin(), upper_bounds.end());
  const HistogramHandle handle{id, def.get()};
  histogram_defs_.push_back(std::move(def));
  histogram_ids_.emplace(std::string{name}, id);
  return handle;
}

void MetricsRegistry::add(MetricId counter, std::uint64_t delta) {
  Shard& s = local_shard();
  std::lock_guard sl{s.mu};
  if (s.counters.size() <= counter) s.counters.resize(counter + 1, 0);
  s.counters[counter] += delta;
}

void MetricsRegistry::observe(const HistogramHandle& histogram, double value) {
  const auto* def = static_cast<const HistogramDef*>(histogram.def);
  const auto& bounds = def->upper_bounds;
  // lower_bound makes each upper bound inclusive (value <= bound), matching
  // the documented HistogramSnapshot contract.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  Shard& s = local_shard();
  std::lock_guard sl{s.mu};
  if (s.histograms.size() <= histogram.id) {
    s.histograms.resize(histogram.id + 1);
  }
  auto& counts = s.histograms[histogram.id];
  if (counts.empty()) counts.assign(bounds.size() + 1, 0);
  ++counts[bucket];
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lk{mu_};
  Snapshot out;

  // Merge each shard once under its own lock, so a snapshot taken while
  // other threads are still incrementing (a wheelsd progress poll) sees a
  // consistent per-shard view instead of racing the vectors.
  std::vector<std::uint64_t> counter_totals(counter_names_.size(), 0);
  std::vector<std::vector<std::uint64_t>> histogram_totals(
      histogram_defs_.size());
  for (MetricId id = 0; id < histogram_defs_.size(); ++id) {
    histogram_totals[id].assign(histogram_defs_[id]->upper_bounds.size() + 1,
                                0);
  }
  for (const auto& shard : shards_) {
    std::lock_guard sl{shard->mu};
    const std::size_t n =
        std::min(shard->counters.size(), counter_totals.size());
    for (MetricId id = 0; id < n; ++id) {
      counter_totals[id] += shard->counters[id];
    }
    const std::size_t m =
        std::min(shard->histograms.size(), histogram_totals.size());
    for (MetricId id = 0; id < m; ++id) {
      const auto& counts = shard->histograms[id];
      for (std::size_t b = 0; b < counts.size(); ++b) {
        histogram_totals[id][b] += counts[b];
      }
    }
  }

  std::map<std::string, std::uint64_t> counters;
  for (MetricId id = 0; id < counter_names_.size(); ++id) {
    counters.emplace(counter_names_[id], counter_totals[id]);
  }
  out.counters.assign(counters.begin(), counters.end());

  std::map<std::string, HistogramSnapshot> histograms;
  for (MetricId id = 0; id < histogram_defs_.size(); ++id) {
    HistogramSnapshot h;
    h.upper_bounds = histogram_defs_[id]->upper_bounds;
    h.counts = histogram_totals[id];
    for (const std::uint64_t c : h.counts) h.total += c;
    histograms.emplace(histogram_defs_[id]->name, std::move(h));
  }
  out.histograms.assign(std::make_move_iterator(histograms.begin()),
                        std::make_move_iterator(histograms.end()));
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lk{mu_};
  for (const auto& shard : shards_) {
    std::lock_guard sl{shard->mu};
    std::fill(shard->counters.begin(), shard->counters.end(), 0);
    for (auto& counts : shard->histograms) {
      std::fill(counts.begin(), counts.end(), 0);
    }
  }
}

std::span<const double> MetricsRegistry::default_ms_bounds() {
  return kDefaultMsBounds;
}

const std::uint64_t* MetricsRegistry::Snapshot::find_counter(
    std::string_view name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return &value;
  }
  return nullptr;
}

std::string MetricsRegistry::Snapshot::to_json(bool include_runtime) const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!include_runtime && is_runtime_metric(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!include_runtime && is_runtime_metric(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"upper_bounds\": [";
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_double(h.upper_bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"total\": " + std::to_string(h.total) + "}";
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

void flush_to_env_sinks() {
  if (const char* path = std::getenv("WHEELS_METRICS_OUT")) {
    std::ofstream os{path};
    if (os) {
      os << MetricsRegistry::global().snapshot().to_json(true) << '\n';
    } else {
      std::fprintf(stderr, "[wheels] cannot write WHEELS_METRICS_OUT=%s\n",
                   path);
    }
  }
  if (const char* path = std::getenv("WHEELS_TRACE_OUT")) {
    std::ofstream os{path};
    if (os) {
      TraceCollector::global().write_chrome_trace(os);
    } else {
      std::fprintf(stderr, "[wheels] cannot write WHEELS_TRACE_OUT=%s\n",
                   path);
    }
  }
}

void flush_at_exit() {
  static const bool registered = [] {
    // Construct both singletons before registering: a static first
    // constructed after the std::atexit call is destroyed before the hook
    // runs, and the hook would read a dead registry.
    (void)MetricsRegistry::global();
    (void)TraceCollector::global();
    std::atexit([] { flush_to_env_sinks(); });
    return true;
  }();
  (void)registered;
}

}  // namespace wheels::core::obs
