// wheels_perf: the benchmark's binary. run.py runs it in the run's
// work directory, one subcommand per process, and reads the JSON object it
// prints on its last line of standard output:
//
//   wheels_perf setup --workload W --seed N
//       generate the workload's inputs (run.py times the whole process)
//   wheels_perf pass --workload W --index K [--deep-check 1]
//       one timed pass plus its output checks; {"wall_s", "cpu_s",
//       "peak_rss_mb", "job_ms", "jobs_done", "attempted", "failed", ...}
//   wheels_perf trace --workload W --seed N
//       the traced window (a traced pass and the probe tour); per-layer
//       metrics, the self-time roll-up and the tracing overhead
//   wheels_perf host
//       {"nproc", "build_type", "compiler"} of this build
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "rollup.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using wheels::core::obs::MetricsRegistry;

/// The src/ modules, as the layers spans and self times report to.
const std::vector<std::string> kLayers{
    "core",     "geo",    "radio",  "ran",   "transport", "apps",   "measure",
    "campaign", "replay", "ingest", "synth", "export",    "service"};

template <typename T, typename Render>
std::string json_array(const std::vector<T>& items, Render render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += render(items[i]);
  }
  return out + "]";
}

std::string failure_list(const std::vector<std::string>& failures) {
  return json_array(failures, json_quote);
}

int cmd_setup(const std::map<std::string, std::string>& flags) {
  run_setup(parse_workload(flag(flags, "workload")),
            parse_u64(flag(flags, "seed")));
  return 0;
}

int cmd_pass(const std::map<std::string, std::string>& flags) {
  const Workload w = parse_workload(flag(flags, "workload"));
  const int index = std::stoi(flag(flags, "index"));
  const bool deep_check =
      flags.count("deep-check") > 0 && flags.at("deep-check") == "1";
  const PassResult r = run_pass(w, index, deep_check);
  std::printf("%s\n", JsonObject{}
                          .num("wall_s", r.wall_s)
                          .num("cpu_s", r.cpu_s)
                          .num("peak_rss_mb", r.peak_rss_mb)
                          .raw("job_ms", json_array(r.job_ms, json_number))
                          .integer("jobs_done", r.jobs_done)
                          .integer("attempted", r.attempted)
                          .integer("failed", r.failed)
                          .raw("failures", failure_list(r.failures))
                          .str("digest", r.digest)
                          .render()
                          .c_str());
  return 0;
}

std::uint64_t counter(const MetricsRegistry::Snapshot& s,
                      std::string_view name) {
  const std::uint64_t* v = s.find_counter(name);
  return v == nullptr ? 0 : *v;
}

/// (observations <= the first bucket bound, all observations) of a
/// histogram in `s`.
std::pair<std::uint64_t, std::uint64_t> first_bucket(
    const MetricsRegistry::Snapshot& s, std::string_view name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return {h.counts.empty() ? 0 : h.counts.front(), h.total};
  }
  return {0, 0};
}

/// The src/ module a span category reports to; empty for categories that
/// name no layer (rolled into the uncovered remainder, and listed).
std::string layer_of(const std::string& category) {
  if (category == "emu") return "export";
  for (const std::string& l : kLayers) {
    if (category == l) return l;
  }
  return {};
}

/// What recording one span costs: the median, over a few rounds, of the
/// time of kSpans ScopedSpans with the collector on less the same spans with
/// it off, per span. The collector is left off and empty.
double span_cost_s() {
  constexpr int kRounds = 5;
  constexpr int kSpans = 50000;
  auto& collector = wheels::core::obs::TraceCollector::global();
  const auto time_spans = [&](bool enabled) {
    collector.set_enabled(enabled);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      const wheels::core::obs::ScopedSpan span{"perfbench::span_cost",
                                               "perfbench"};
    }
    const double s = seconds_between(t0, Clock::now());
    collector.set_enabled(false);
    collector.clear();
    return s;
  };
  std::vector<double> per_span;
  for (int r = 0; r < kRounds; ++r) {
    const double off = time_spans(false);
    per_span.push_back((time_spans(true) - off) / kSpans);
  }
  return median(per_span);
}

int cmd_trace(const std::map<std::string, std::string>& flags) {
  const Workload w = parse_workload(flag(flags, "workload"));
  const std::uint64_t seed = parse_u64(flag(flags, "seed"));
  auto& collector = wheels::core::obs::TraceCollector::global();
  auto& registry = MetricsRegistry::global();

  const TourInputs tour = prepare_tour(seed);

  tallies().clear();
  const MetricsRegistry::Snapshot before = registry.snapshot();
  collector.clear();
  collector.set_enabled(true);
  const std::int64_t begin_us = wheels::core::obs::trace_now_us();
  PassResult checks = run_pass(w, 0, false);
  const double traced_pass_s = checks.wall_s;
  run_tour(seed, tour, checks);
  const std::int64_t end_us = wheels::core::obs::trace_now_us();
  collector.set_enabled(false);
  const MetricsRegistry::Snapshot after = registry.snapshot();
  const std::vector<Span> spans = collected_spans();
  const double span_s = span_cost_s();
  std::map<std::string, double> call_s;
  std::map<std::string, std::vector<double>> call_ms;
  for (const Span& s : spans) {
    call_s[s.name] += static_cast<double>(s.dur_us) * 1e-6;
    call_ms[s.name].push_back(static_cast<double>(s.dur_us) * 1e-3);
  }
  const auto t = [](const std::string& key) {
    const auto it = tallies().find(key);
    return it == tallies().end() ? 0.0 : it->second;
  };
  const auto per_call = [&](const std::string& name, double unit) {
    const double calls = t(name + ".calls");
    return calls > 0.0 ? call_s[name] * unit / calls : 0.0;
  };
  const auto rate = [](double amount, double seconds) {
    return seconds > 0.0 ? amount / seconds : 0.0;
  };
  const auto delta = [&](std::string_view name) {
    return static_cast<double>(counter(after, name) - counter(before, name));
  };

  JsonObject m;
  m.num("campaign.run_s", call_s["campaign::DriveCampaign::run"]);
  const double write_s = call_s["measure::write_dataset"];
  const double bundle_mb = t("measure::write_dataset.bytes") * 1e-6;
  m.num("measure.write_s", write_s)
      .num("measure.write_mb_per_s", rate(bundle_mb, write_s))
      .num("measure.bundle_mb", bundle_mb);
  const double read_s = call_s["replay::read_dataset"];
  m.num("replay.read_s", read_s)
      .num("replay.read_mb_per_s",
           rate(t("replay::read_dataset.bytes") * 1e-6, read_s))
      .num("replay.run_recorded_s",
           call_s["replay::ReplayCampaign::run[recorded]"])
      .num("replay.run_bbr_s", call_s["replay::ReplayCampaign::run[bbr]"]);
  m.num("geo.tick_ns", per_call("geo::DriveTraceGenerator::next", 1e9))
      .num("radio.covering_cell_ns",
           per_call("radio::Deployment::covering_cell", 1e9))
      .num("radio.channel_sample_ns",
           per_call("radio::ChannelModel::sample", 1e9))
      .num("ran.session_tick_ns", per_call("ran::RadioSession::tick", 1e9))
      .num("transport.advance_ns",
           per_call("transport::TcpBulkFlow::advance", 1e9))
      .num("apps.offload_us", per_call("apps::OffloadApp::run", 1e6))
      .num("apps.video_us", per_call("apps::VideoApp::run", 1e6))
      .num("apps.gaming_us", per_call("apps::GamingApp::run", 1e6))
      .num("core.rng_fork_ns", per_call("core::Rng::fork", 1e9))
      .num("core.rng_normal_ns", per_call("core::Rng::normal", 1e9));
  const auto [small_after, total_after] =
      first_bucket(after, "rt.pool.batch_ms");
  const auto [small_before, total_before] =
      first_bucket(before, "rt.pool.batch_ms");
  const double batches_timed = static_cast<double>(total_after - total_before);
  m.num("pool.batches", delta("pool.batches"))
      .num("pool.small_batch_frac",
           batches_timed > 0.0
               ? static_cast<double>(small_after - small_before) / batches_timed
               : 0.0)
      .num("campaign.tests", delta("campaign.tests"))
      .num("transport.retransmits", delta("transport.retransmits"))
      .num("ran.handover.attempts", delta("ran.handover.attempts"));
  const double join_s = call_s["ingest::ingest_join"];
  m.num("ingest.join_s", join_s)
      .num("ingest.mb_per_s",
           rate(t("ingest::ingest_join.bytes") * 1e-6, join_s))
      .num("ingest.rows_emitted", delta("ingest.rows_emitted"));
  const double sample_s = call_s["synth::sample_bundle"];
  m.num("synth.fit_s", call_s["synth::fit_profile"])
      .num("synth.sample_s", sample_s)
      .num("synth.ticks_per_s",
           rate(t("synth::sample_bundle.ticks"), sample_s));
  const double mahimahi_s = call_s["emu::render[mahimahi]"];
  m.num("export.mahimahi_s", mahimahi_s)
      .num("export.netem_s", call_s["emu::render[netem]"])
      .num("export.json_s", call_s["emu::render[json]"])
      .num("export.mahimahi_lines_per_s",
           rate(t("emu::render[mahimahi].lines"), mahimahi_s))
      .num("export.verify_s", call_s["emu::verify_mahimahi_roundtrip"]);
  const double submits = delta("service.jobs_submitted");
  m.num("service.submit_ms", median(call_ms["service::Client::submit"]))
      .num("service.wait_ms", median(call_ms["service::Client::wait"]))
      .num("service.fetch_ms", median(call_ms["service::Client::fetch"]))
      .num("service.cache_hit_ratio",
           submits > 0.0 ? delta("service.cache_hits") / submits : 0.0)
      .num("service.jobs_computed", delta("service.jobs_computed"));

  const Rollup rollup = roll_up(spans, begin_us, end_us);
  std::map<std::string, double> by_layer;
  double uncovered = rollup.uncovered_s;
  std::printf("self time over the traced window (%.3f s):\n", rollup.wall_s);
  for (const auto& [category, s] : rollup.self_s) {
    const std::string layer = layer_of(category);
    std::printf("  %-10s %10.4f s%s\n", category.c_str(), s,
                layer.empty() ? "  (no layer: counted as uncovered)" : "");
    (layer.empty() ? uncovered : by_layer[layer]) += s;
  }
  std::printf("  %-10s %10.4f s\n", "uncovered", rollup.uncovered_s);
  for (const std::string& layer : kLayers) {
    m.num("self." + layer + "_s", by_layer[layer]);
  }
  const double overhead_s = span_s * static_cast<double>(spans.size());
  m.num("self.uncovered_s", uncovered)
      .num("trace.wall_s", rollup.wall_s)
      .num("trace.pass_s", traced_pass_s)
      .num("trace.spans", static_cast<double>(spans.size()))
      .num("trace.span_ns", span_s * 1e9)
      .num("trace.overhead_s", overhead_s);
  std::printf(
      "tracing overhead %.4f s: %zu spans recorded, each %.1f ns dearer "
      "traced than untraced\n",
      overhead_s, spans.size(), span_s * 1e9);
  std::printf("service cache hits %.0f of %.0f submits\n",
              delta("service.cache_hits"), submits);

  std::printf("%s\n", JsonObject{}
                          .raw("metrics", m.render())
                          .integer("attempted", checks.attempted)
                          .integer("failed", checks.failed)
                          .raw("failures", failure_list(checks.failures))
                          .render()
                          .c_str());
  return 0;
}

int cmd_host() {
  std::printf("%s\n",
              JsonObject{}
                  .integer("nproc", std::thread::hardware_concurrency())
                  .str("build_type", WHEELS_PERF_BUILD_TYPE)
                  .str("compiler", WHEELS_PERF_COMPILER)
                  .render()
                  .c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: wheels_perf setup|pass|trace|host ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const auto flags = parse_flags(argc, argv, 2);
    if (cmd == "setup") return cmd_setup(flags);
    if (cmd == "pass") return cmd_pass(flags);
    if (cmd == "trace") return cmd_trace(flags);
    if (cmd == "host") return cmd_host();
    std::fprintf(stderr, "wheels_perf: unknown command '%s'\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wheels_perf %s: %s\n", cmd.c_str(), e.what());
  }
  return 1;
}
