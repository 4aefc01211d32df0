#include "replay/fleet.hpp"

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/report.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"

namespace wheels::replay {

namespace {
constexpr std::size_t kCarriers = radio::kCarrierCount;
}  // namespace

const std::array<const char*, kFleetMetricCount> kFleetMetricNames{
    "dl_mbps",    "ul_mbps",          "rtt_ms",
    "video_qoe",  "gaming_latency_ms", "offload_e2e_ms"};

const std::vector<double>& metric_series(const CarrierSamples& samples,
                                         std::size_t metric) {
  switch (metric) {
    case 0:
      return samples.dl_mbps;
    case 1:
      return samples.ul_mbps;
    case 2:
      return samples.rtt_ms;
    case 3:
      return samples.video_qoe;
    case 4:
      return samples.gaming_latency_ms;
    default:
      return samples.offload_e2e_ms;
  }
}

namespace {

bool is_baseline(const ReplayKnobs& k) {
  return !k.cc.has_value() && !k.server.has_value() &&
         !k.max_tier.has_value();
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cell;
  for (char ch : s) {
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

/// One axis's value list: "recorded" keeps the knob unset, anything else
/// goes through `parse`. Rejects empty lists and repeated values.
template <typename T, typename Parse>
std::vector<std::optional<T>> parse_axis(const std::string& values,
                                         Parse parse) {
  std::vector<std::optional<T>> out;
  for (const std::string& v : split_csv(values)) {
    if (v.empty()) throw std::runtime_error{"empty value in list"};
    std::optional<T> cell;
    if (v != "recorded") cell = parse(v);
    for (const std::optional<T>& seen : out) {
      if (seen == cell) {
        throw std::runtime_error{"duplicated value '" + v + "'"};
      }
    }
    out.push_back(cell);
  }
  return out;
}

}  // namespace

void apply_grid_axis(KnobGrid& grid, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw std::runtime_error{"fleet grid: expected DIM=value,value,... got '" +
                             spec + "'"};
  }
  const std::string dim = spec.substr(0, eq);
  const std::string values = spec.substr(eq + 1);
  try {
    if (dim == "cc") {
      grid.cc =
          parse_axis<transport::CcAlgo>(values, transport::parse_cc_algo);
    } else if (dim == "server") {
      grid.server = parse_axis<net::ServerKind>(
          values, measure::names::parse_server_kind);
    } else if (dim == "tier" || dim == "max_tier") {
      grid.max_tier = parse_axis<radio::Technology>(
          values, measure::names::parse_technology);
    } else {
      throw std::runtime_error{"unknown dimension '" + dim +
                               "' (expected cc|server|tier)"};
    }
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{"fleet grid: " + spec + ": " + e.what()};
  }
}

std::vector<ReplayKnobs> expand_grid(const KnobGrid& grid) {
  std::vector<ReplayKnobs> cells;
  cells.reserve(grid.cc.size() * grid.server.size() * grid.max_tier.size() +
                1);
  bool has_baseline = false;
  for (const auto& cc : grid.cc) {
    for (const auto& server : grid.server) {
      for (const auto& tier : grid.max_tier) {
        ReplayKnobs k;
        k.cc = cc;
        k.server = server;
        k.max_tier = tier;
        has_baseline = has_baseline || is_baseline(k);
        cells.push_back(k);
      }
    }
  }
  if (!has_baseline) {
    cells.insert(cells.begin(), ReplayKnobs{});
  }
  return cells;
}

std::string cell_label(const ReplayKnobs& knobs) {
  if (is_baseline(knobs)) return "recorded";
  std::string out = "cc=";
  out += knobs.cc.has_value()
             ? std::string{transport::cc_algo_name(*knobs.cc)}
             : "recorded";
  out += "|server=";
  out += knobs.server.has_value()
             ? std::string{measure::names::to_name(*knobs.server)}
             : "recorded";
  out += "|tier=";
  out += knobs.max_tier.has_value()
             ? std::string{measure::names::to_name(*knobs.max_tier)}
             : "recorded";
  return out;
}

FleetSpec parse_fleet_spec(const std::string& spec) {
  const auto ends_in_csv = [](std::string_view s) {
    return s.size() >= 4 && s.substr(s.size() - 4) == ".csv";
  };
  FleetSpec out;
  out.path = spec;
  if (const std::size_t at = spec.rfind('@');
      at != std::string::npos &&
      ends_in_csv(std::string_view{spec}.substr(0, at))) {
    out.path = spec.substr(0, at);
    out.carrier = measure::names::parse_carrier(spec.substr(at + 1));
  }
  out.is_trace = ends_in_csv(out.path);
  return out;
}

std::vector<std::string> expand_fleet_specs(
    const std::vector<std::string>& specs) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const std::string& spec : specs) {
    if (parse_fleet_spec(spec).is_trace || !fs::is_directory(spec) ||
        fs::exists(fs::path{spec} / "manifest.json")) {
      out.push_back(spec);
      continue;
    }
    std::vector<std::string> children;
    for (const fs::directory_entry& entry : fs::directory_iterator{spec}) {
      if (entry.is_directory() &&
          fs::exists(entry.path() / "manifest.json")) {
        children.push_back(entry.path().string());
      }
    }
    if (children.empty()) {
      throw std::runtime_error{"fleet: " + spec +
                               " contains no bundle directories"};
    }
    std::sort(children.begin(), children.end());
    out.insert(out.end(), children.begin(), children.end());
  }
  return out;
}

ReplayFleet::ReplayFleet(FleetConfig config)
    : config_(std::move(config)), cells_(expand_grid(config_.grid)) {}

FleetResult ReplayFleet::run(const std::vector<FleetItem>& items) const {
  core::obs::ScopedSpan span{"replay.fleet.run", "replay"};
  static const core::obs::Counter fleet_bundles{"replay.fleet.bundles"};
  static const core::obs::Counter fleet_cells{"replay.fleet.cells"};
  fleet_bundles.add(items.size());
  fleet_cells.add(cells_.size());

  FleetResult out;
  out.cells = cells_;
  out.bundles.reserve(items.size());
  for (const FleetItem& item : items) out.bundles.push_back(item.name);

  // Phase 1: every (bundle, cell) pair replays into its own slot.
  const std::size_t ncells = cells_.size();
  const std::size_t jobs = items.size() * ncells;
  std::vector<DbSamples> samples(jobs);
  out.runs.resize(jobs);
  core::run_indexed(config_.threads, jobs, [&](std::size_t j) {
    core::obs::ScopedSpan item_span{"replay.fleet.item", "replay"};
    static const core::obs::Counter runs{"replay.fleet.runs"};
    runs.add();
    const std::size_t bi = j / ncells;
    const std::size_t ci = j % ncells;
    ReplayConfig cfg = config_.replay;
    cfg.threads = 1;  // fleet-level parallelism only (see FleetConfig)
    cfg.knobs = cells_[ci];
    const measure::ConsolidatedDb db =
        ReplayCampaign{*items[bi].bundle, cfg}.run();
    samples[j] = collect_samples(db);
    out.runs[j].bundle = bi;
    out.runs[j].cell = ci;
    out.runs[j].summary = summarize_samples(samples[j]);
  });

  // Phase 2: one job per (cell, carrier, metric) slot pools its series
  // across bundles in submission order and sorts it in place. The intervals
  // are then read off the sorted series and draw no random number, so the
  // aggregate depends neither on job scheduling nor on a seed.
  core::obs::ScopedSpan aggregate_span{"replay.fleet.aggregate", "replay"};
  constexpr std::size_t kPerCell = kCarriers * kFleetMetricCount;
  std::vector<std::vector<double>> sorted(ncells * kPerCell);
  core::run_indexed(config_.threads, sorted.size(), [&](std::size_t j) {
    const std::size_t ci = j / kPerCell;
    const std::size_t c = (j % kPerCell) / kFleetMetricCount;
    const std::size_t m = j % kFleetMetricCount;
    for (std::size_t bi = 0; bi < items.size(); ++bi) {
      const std::vector<double>& part =
          metric_series(samples[bi * ncells + ci][c], m);
      sorted[j].insert(sorted[j].end(), part.begin(), part.end());
    }
    std::sort(sorted[j].begin(), sorted[j].end());
  });
  out.aggregate.resize(ncells);
  for (std::size_t ci = 0; ci < ncells; ++ci) {
    out.aggregate[ci].cell = ci;
    for (std::size_t c = 0; c < kCarriers; ++c) {
      for (std::size_t m = 0; m < kFleetMetricCount; ++m) {
        const std::size_t slot = c * kFleetMetricCount + m;
        const std::vector<double>& xs = sorted[ci * kPerCell + slot];
        const std::vector<double>& base_xs = sorted[slot];  // cell 0
        MetricAggregate& agg = out.aggregate[ci].metrics[c][m];
        agg.n = xs.size();
        if (xs.empty()) continue;
        agg.ci = analysis::median_ci(xs);
        agg.median = agg.ci.point;
        // Significance vs the recorded baseline: does the knob's delta
        // clear sampling noise? Baseline rows carry no delta.
        if (ci == 0 || base_xs.empty()) continue;
        agg.delta_ci = analysis::median_delta_ci(xs, base_xs);
        agg.has_delta = true;
        agg.significant = agg.delta_ci.lo > 0.0 || agg.delta_ci.hi < 0.0;
      }
    }
  }
  return out;
}

void write_fleet_csv(std::ostream& os, const FleetResult& result) {
  os << "cell,carrier,metric,n,median,ci_lo,ci_hi,delta_vs_recorded_pct,"
        "significant\n";
  for (const CellAggregate& cell : result.aggregate) {
    const std::string label = cell_label(result.cells[cell.cell]);
    for (std::size_t c = 0; c < kCarriers; ++c) {
      for (std::size_t m = 0; m < kFleetMetricCount; ++m) {
        const MetricAggregate& a = cell.metrics[c][m];
        const MetricAggregate& base = result.aggregate.front().metrics[c][m];
        os << label << ','
           << measure::names::to_name(radio::kAllCarriers[c]) << ','
           << kFleetMetricNames[m] << ',' << a.n << ',';
        if (a.n > 0) {
          os << measure::csv_double(a.median) << ','
             << measure::csv_double(a.ci.lo) << ','
             << measure::csv_double(a.ci.hi);
        } else {
          os << ",,";
        }
        os << ',';
        if (a.n > 0 && base.n > 0 && base.median != 0.0) {
          os << measure::csv_double((a.median / base.median - 1.0) * 100.0);
        }
        os << ',';
        if (a.has_delta) os << (a.significant ? '1' : '0');
        os << '\n';
      }
    }
  }
}

namespace {

std::string fmt_agg(const MetricAggregate& a) {
  if (a.n == 0) return "-";
  return analysis::fmt(a.median) + " [" + analysis::fmt(a.ci.lo) + "," +
         analysis::fmt(a.ci.hi) + "]";
}

std::string fmt_delta(const MetricAggregate& a, const MetricAggregate& base) {
  if (a.n == 0 || base.n == 0 || base.median == 0.0) return "-";
  std::string out = analysis::fmt_pct(a.median / base.median - 1.0);
  // '*': the delta's own CI excludes zero.
  if (a.significant) out += " *";
  return out;
}

}  // namespace

void print_fleet(std::ostream& os, const FleetResult& result) {
  const std::size_t ncells = result.cells.size();
  for (std::size_t ci = 0; ci < ncells; ++ci) {
    os << "Cell " << cell_label(result.cells[ci]) << " — per-bundle medians\n";
    analysis::Table t{{"bundle", "carrier", "tests", "DL med", "UL med",
                       "RTT med", "QoE", "game lat", "E2E"}};
    for (std::size_t bi = 0; bi < result.bundles.size(); ++bi) {
      const ReportSummary& s = result.runs[bi * ncells + ci].summary;
      for (const CarrierSummary& cs : s.carriers) {
        t.add_row({result.bundles[bi],
                   std::string{measure::names::to_name(cs.carrier)},
                   std::to_string(cs.tests), analysis::fmt(cs.dl_median_mbps),
                   analysis::fmt(cs.ul_median_mbps),
                   analysis::fmt(cs.rtt_median_ms),
                   analysis::fmt(cs.video_qoe),
                   analysis::fmt(cs.gaming_latency_ms),
                   analysis::fmt(cs.offload_e2e_ms)});
      }
    }
    t.print(os);
    os << '\n';
  }

  os << "Fleet aggregate — pooled medians [95% CI]\n";
  analysis::Table agg{{"cell", "carrier", "DL med", "UL med", "RTT med",
                       "QoE", "game lat", "E2E"}};
  for (const CellAggregate& cell : result.aggregate) {
    for (std::size_t c = 0; c < kCarriers; ++c) {
      std::vector<std::string> row{
          cell_label(result.cells[cell.cell]),
          std::string{measure::names::to_name(radio::kAllCarriers[c])}};
      for (std::size_t m = 0; m < kFleetMetricCount; ++m) {
        row.push_back(fmt_agg(cell.metrics[c][m]));
      }
      agg.add_row(std::move(row));
    }
  }
  agg.print(os);

  if (ncells > 1) {
    os << "\nCounterfactual deltas vs recorded baseline\n";
    analysis::Table delta{{"cell", "carrier", "DL", "UL", "RTT", "QoE",
                           "game lat", "E2E"}};
    for (std::size_t ci = 1; ci < ncells; ++ci) {
      for (std::size_t c = 0; c < kCarriers; ++c) {
        std::vector<std::string> row{
            cell_label(result.cells[ci]),
            std::string{measure::names::to_name(radio::kAllCarriers[c])}};
        for (std::size_t m = 0; m < kFleetMetricCount; ++m) {
          row.push_back(fmt_delta(result.aggregate[ci].metrics[c][m],
                                  result.aggregate.front().metrics[c][m]));
        }
        delta.add_row(std::move(row));
      }
    }
    delta.print(os);
    os << "(* = delta's 95% CI excludes zero)\n";
  }
}

}  // namespace wheels::replay
