// The probe tour of the traced run. It replays a small instance of every
// workload's public calls, so every layer records spans whichever workload
// is traced, and runs the per-operation layer probes: geo, radio and ran
// over the seed's route scaled to 1.0, transport and apps over the tour
// bundle's recorded link ticks, and core's Rng. Each probe is one span around
// a fixed amount of work; its call count goes to tallies() under the span's
// name, so per-call cost = span time / calls.
#include <cstdio>
#include <filesystem>
#include <map>

#include "apps/gaming.hpp"
#include "apps/offload.hpp"
#include "apps/video.hpp"
#include "campaign/campaign.hpp"
#include "core/obs/trace_export.hpp"
#include "core/rng.hpp"
#include "geo/drive_trace.hpp"
#include "geo/route.hpp"
#include "geo/scaled_route.hpp"
#include "measure/csv_export.hpp"
#include "radio/channel.hpp"
#include "radio/deployment.hpp"
#include "ran/session.hpp"
#include "synth/fit.hpp"
#include "transport/tcp_flow.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wheels;
using core::obs::ScopedSpan;

namespace {

constexpr double kTourScale = 0.02;
constexpr int kTourTraceTicks = 600;
constexpr int kRngForks = 20000;
constexpr int kRngNormals = 2000000;
constexpr Millis kTickMs = 500.0;

/// Keeps the probes' results observable so no loop is optimized away.
double probe_sink = 0.0;

void count_calls(const std::string& span_name, double calls) {
  tally(span_name + ".calls", calls);
}

std::vector<geo::DriveSample> probe_geo(const geo::Route& route,
                                        std::uint64_t seed) {
  geo::DriveTraceConfig tc;
  tc.scale = 1.0;
  std::vector<geo::DriveSample> samples;
  samples.reserve(1 << 20);
  const char* name = "geo::DriveTraceGenerator::next";
  {
    const ScopedSpan span{name, "geo"};
    geo::DriveTraceGenerator gen{route, tc, Rng{seed}.fork("trace")};
    while (const std::optional<geo::DriveSample> s = gen.next()) {
      samples.push_back(*s);
    }
  }
  count_calls(name, static_cast<double>(samples.size() + 1));
  return samples;
}

void probe_radio_ran(const geo::Route& route, std::uint64_t seed,
                     const std::vector<geo::DriveSample>& samples) {
  const geo::ScaledRoute view{route, 1.0};
  std::vector<radio::Deployment> deployments;
  for (const radio::Carrier c : radio::kAllCarriers) {
    deployments.emplace_back(
        view, c, Rng{seed}.fork(radio::carrier_name(c)).fork("deployment"));
  }
  const std::size_t n = samples.size();

  // Serving-cell lookup for every technology at every sample.
  std::vector<const radio::CellSite*> lte(n * deployments.size(), nullptr);
  {
    const char* name = "radio::Deployment::covering_cell";
    double found = 0.0;
    {
      const ScopedSpan span{name, "radio"};
      for (std::size_t d = 0; d < deployments.size(); ++d) {
        for (std::size_t i = 0; i < n; ++i) {
          for (const radio::Technology tech : radio::kAllTechnologies) {
            const radio::CellSite* cell =
                deployments[d].covering_cell(tech, samples[i].km);
            if (cell == nullptr) continue;
            found += 1.0;
            if (tech == radio::Technology::Lte) lte[d * n + i] = cell;
          }
        }
      }
    }
    probe_sink += found;
    count_calls(name, static_cast<double>(deployments.size() * n *
                                          radio::kAllTechnologies.size()));
  }

  // The channel of the covering LTE cell, re-attached at every cell change.
  {
    const char* name = "radio::ChannelModel::sample";
    double calls = 0.0;
    double capacity = 0.0;
    {
      const ScopedSpan span{name, "radio"};
      for (std::size_t d = 0; d < deployments.size(); ++d) {
        const radio::Carrier c = deployments[d].carrier();
        radio::ChannelModel channel{
            c, Rng{seed}.fork(radio::carrier_name(c)).fork("channel-probe")};
        const radio::CellSite* attached = nullptr;
        for (std::size_t i = 0; i < n; ++i) {
          const radio::CellSite* cell = lte[d * n + i];
          if (cell == nullptr) continue;
          if (cell != attached) {
            channel.attach(*cell);
            attached = cell;
          }
          capacity += channel
                          .sample(*cell, samples[i].km, samples[i].speed,
                                  kTickMs)
                          .capacity_dl;
          calls += 1.0;
        }
      }
    }
    probe_sink += capacity;
    count_calls(name, calls);
  }

  // One backlogged-downlink session per carrier, as the campaign's phones.
  {
    const char* name = "ran::RadioSession::tick";
    double cells = 0.0;
    {
      const ScopedSpan span{name, "ran"};
      for (const radio::Deployment& dep : deployments) {
        ran::RadioSession session{
            dep, ran::TrafficProfile::BackloggedDownlink,
            Rng{seed}.fork(radio::carrier_name(dep.carrier()))
                .fork("active-session")};
        for (const geo::DriveSample& s : samples) {
          cells += session.tick(s, kTickMs).cell_id;
        }
      }
    }
    probe_sink += cells;
    count_calls(name, static_cast<double>(deployments.size() * n));
  }
}

/// Recorded link ticks of each app session, in recorded order.
std::map<std::uint32_t, apps::LinkTrace> session_traces(
    const measure::ConsolidatedDb& db) {
  std::map<std::uint32_t, apps::LinkTrace> traces;
  for (const measure::LinkTickRecord& r : db.link_ticks) {
    apps::LinkTick t;
    t.cap_dl = r.cap_dl;
    t.cap_ul = r.cap_ul;
    t.rtt = r.rtt;
    t.interruption = r.interruption;
    t.handovers = r.handovers;
    t.tech = r.tech;
    traces[r.test_id].push_back(t);
  }
  return traces;
}

void probe_transport(const std::map<std::uint32_t, apps::LinkTrace>& traces,
                     std::uint64_t seed) {
  std::vector<transport::TcpBulkFlow> flows;
  flows.reserve(traces.size());
  for (const auto& [test_id, trace] : traces) {
    flows.emplace_back(trace.front().rtt,
                       Rng{seed}.fork("transport-probe", test_id));
  }
  const char* name = "transport::TcpBulkFlow::advance";
  double calls = 0.0;
  double delivered = 0.0;
  {
    const ScopedSpan span{name, "transport"};
    std::size_t f = 0;
    for (const auto& [test_id, trace] : traces) {
      for (const apps::LinkTick& t : trace) {
        delivered += flows[f].advance(t.cap_dl, kTickMs);
      }
      calls += static_cast<double>(trace.size());
      ++f;
    }
  }
  probe_sink += delivered;
  count_calls(name, calls);
}

void probe_apps(const measure::ConsolidatedDb& db,
                const std::map<std::uint32_t, apps::LinkTrace>& traces) {
  const auto probe = [&](const char* name, auto&& accepts, auto&& run) {
    double calls = 0.0;
    double sink = 0.0;
    {
      const ScopedSpan span{name, "apps"};
      for (const measure::AppRunRecord& rec : db.app_runs) {
        const auto it = traces.find(rec.test_id);
        if (!accepts(rec) || it == traces.end()) continue;
        sink += run(rec, it->second);
        calls += 1.0;
      }
    }
    probe_sink += sink;
    count_calls(name, calls);
  };
  const apps::OffloadApp ar{apps::ar_config()};
  const apps::OffloadApp cav{apps::cav_config()};
  probe(
      "apps::OffloadApp::run",
      [](const measure::AppRunRecord& r) {
        return r.app == measure::AppKind::Ar || r.app == measure::AppKind::Cav;
      },
      [&](const measure::AppRunRecord& r, const apps::LinkTrace& trace) {
        const apps::OffloadApp& app = r.app == measure::AppKind::Ar ? ar : cav;
        return app.run(trace, r.compressed).median_e2e;
      });
  const apps::VideoApp video;
  probe(
      "apps::VideoApp::run",
      [](const measure::AppRunRecord& r) {
        return r.app == measure::AppKind::Video;
      },
      [&](const measure::AppRunRecord&, const apps::LinkTrace& trace) {
        return video.run(trace).avg_qoe;
      });
  const apps::GamingApp gaming;
  probe(
      "apps::GamingApp::run",
      [](const measure::AppRunRecord& r) {
        return r.app == measure::AppKind::Gaming;
      },
      [&](const measure::AppRunRecord&, const apps::LinkTrace& trace) {
        return gaming.run(trace).median_bitrate;
      });
}

void probe_core(std::uint64_t seed) {
  const Rng root{seed};
  std::uint64_t forked = 0;
  {
    const ScopedSpan span{"core::Rng::fork", "core"};
    for (int i = 0; i < kRngForks; ++i) {
      forked ^= root.fork("probe", static_cast<std::uint64_t>(i)).seed();
    }
  }
  count_calls("core::Rng::fork", kRngForks);
  Rng rng{seed};
  double sum = 0.0;
  {
    const ScopedSpan span{"core::Rng::normal", "core"};
    for (int i = 0; i < kRngNormals; ++i) sum += rng.normal(0.0, 1.0);
  }
  count_calls("core::Rng::normal", kRngNormals);
  probe_sink += sum + static_cast<double>(forked % 1024);
}

}  // namespace

TourInputs prepare_tour(std::uint64_t seed) {
  fs::create_directories("tour");
  campaign::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.scale = kTourScale;
  campaign::run_to_bundle(cfg, "tour/bundle", /*canonical_provenance=*/true);
  write_emulate_traces("tour/traces", mix64(seed), kTourTraceTicks);

  TourInputs tour;
  tour.bundle = replay::read_dataset("tour/bundle");
  synth::write_profile(synth::fit_profile(tour.bundle), "tour/profile.json");
  service::JobSpec sample;
  sample.kind = service::JobKind::Synth;
  sample.seed = seed % 1000000007ull;
  sample.profile = "tour/profile.json";
  sample.cycles = 1;
  sample.scenario = "duration_s=60";
  service::JobSpec small;
  small.seed = sample.seed;
  small.scale = 0.01;
  tour.jobs = {{{-1, sample}, {-1, small}, {0, sample}}};
  return tour;
}

void run_tour(std::uint64_t seed, const TourInputs& tour, PassResult& checks) {
  campaign::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.scale = kTourScale;
  const PassResult campaign =
      campaign_pass(cfg, "tour/out", /*deep_check=*/false);
  const PassResult replay = replay_pass("tour/bundle", /*deep_check=*/true);
  const EmulateRun emulate =
      run_emulate("tour/traces", seed, /*cycles=*/2, /*cycle_s=*/120.0);
  const PassResult service = service_round("tour", tour.jobs);

  const geo::Route route = geo::Route::cross_country();
  const std::vector<geo::DriveSample> samples = probe_geo(route, seed);
  probe_radio_ran(route, seed, samples);
  const auto traces = session_traces(tour.bundle.db);
  probe_transport(traces, seed);
  probe_apps(tour.bundle.db, traces);
  probe_core(seed);

  for (const PassResult* r : {&campaign, &replay, &service}) {
    checks.attempted += r->attempted;
    checks.failed += r->failed;
    checks.failures.insert(checks.failures.end(), r->failures.begin(),
                           r->failures.end());
  }
  check_emulate(emulate, checks, /*ks_gate=*/false);
  std::printf("probe checksum %.6g\n", probe_sink);
}

}  // namespace perfbench
