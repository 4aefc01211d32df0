// One timed pass per workload. Every public call of the timed path runs
// inside a core::obs::ScopedSpan recorded from here (free while the trace
// collector is off), so the traced run attributes time with the very code
// the untraced runs time. Output checks run after the pass's usage figures
// are taken.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/campaign.hpp"
#include "core/obs/manifest.hpp"
#include "core/obs/trace_export.hpp"
#include "export/exporter.hpp"
#include "export/roundtrip.hpp"
#include "export/timeline.hpp"
#include "ingest/ingest.hpp"
#include "measure/csv_export.hpp"
#include "replay/ingest.hpp"
#include "replay/replay_campaign.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "synth/fit.hpp"
#include "synth/sample.hpp"
#include "synth/validate.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wheels;
using core::obs::ScopedSpan;

void PassResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::map<std::string, double>& tallies() {
  static std::map<std::string, double> t;
  return t;
}

void tally(const std::string& key, double amount) {
  static std::mutex mu;
  std::lock_guard lk{mu};
  tallies()[key] += amount;
}

namespace {

std::uint64_t read_seed() {
  const std::string text = read_file("seed");
  return parse_u64(text.substr(0, text.find('\n')));
}

/// The CSV bytes `write` renders from `db`.
template <typename Writer>
std::string render_csv(const measure::ConsolidatedDb& db, Writer write) {
  std::ostringstream os;
  write(os, db);
  return os.str();
}

/// Times [construction, finish()) of a pass: wall clock and process CPU,
/// plus the process's peak RSS when the pass ends.
class PassTimer {
 public:
  PassTimer() : start_(Clock::now()), usage_(process_usage()) {}
  void finish(PassResult& r) const {
    const Usage end = process_usage();
    r.wall_s = seconds_between(start_, Clock::now());
    r.cpu_s = end.cpu_s - usage_.cpu_s;
    r.peak_rss_mb = end.peak_rss_mb;
  }

 private:
  Clock::time_point start_;
  Usage usage_;
};

}  // namespace

// --- campaign ---------------------------------------------------------------

PassResult campaign_pass(const campaign::CampaignConfig& cfg,
                         const std::string& out, bool deep_check) {
  fs::remove_all(out);
  core::obs::RunManifest manifest = campaign::make_manifest(cfg);
  core::obs::canonicalize_provenance(manifest);

  PassResult r;
  {
    const PassTimer timer;
    measure::ConsolidatedDb db;
    {
      const ScopedSpan span{"campaign::DriveCampaign::run", "campaign"};
      db = campaign::DriveCampaign{cfg}.run();
    }
    {
      const ScopedSpan span{"measure::write_dataset", "measure"};
      (void)measure::write_dataset(db, out, manifest);
    }
    timer.finish(r);
  }
  tally("measure::write_dataset.bytes",
        static_cast<double>(directory_bytes(out)));
  r.digest = service::digest_directory(out);
  if (deep_check) {
    try {
      (void)replay::read_dataset(out);
      r.check(true, "");
    } catch (const std::exception& e) {
      r.check(false, std::string{"bundle does not read back: "} + e.what());
    }
  }
  fs::remove_all(out);
  return r;
}

// --- replay -----------------------------------------------------------------

PassResult replay_pass(const std::string& bundle_dir, bool deep_check) {
  PassResult r;
  const PassTimer timer;
  replay::ReplayBundle bundle;
  {
    const ScopedSpan span{"replay::read_dataset", "replay"};
    bundle = replay::read_dataset(bundle_dir);
  }
  replay::ReplayConfig cfg;
  cfg.seed = bundle.manifest.seed;
  measure::ConsolidatedDb recorded;
  {
    const ScopedSpan span{"replay::ReplayCampaign::run[recorded]", "replay"};
    recorded = replay::ReplayCampaign{bundle, cfg}.run();
  }
  cfg.knobs.cc = transport::CcAlgo::Bbr;
  measure::ConsolidatedDb bbr;
  {
    const ScopedSpan span{"replay::ReplayCampaign::run[bbr]", "replay"};
    bbr = replay::ReplayCampaign{bundle, cfg}.run();
  }
  timer.finish(r);
  tally("replay::read_dataset.bytes",
        static_cast<double>(directory_bytes(bundle_dir)));

  r.check(bbr.tests.size() == bundle.db.tests.size(),
          "bbr replay lost tests");
  if (deep_check) {
    // The recorded-knob replay must render the bundle's own tables, byte
    // for byte.
    r.check(render_csv(recorded, measure::write_app_runs_csv) ==
                read_file(bundle_dir + "/app_runs.csv"),
            "recorded-knob replay changed app_runs.csv");
    r.check(render_csv(recorded, measure::write_link_ticks_csv) ==
                read_file(bundle_dir + "/link_ticks.csv"),
            "recorded-knob replay changed link_ticks.csv");
  }
  return r;
}

namespace {

// --- emulate ----------------------------------------------------------------

PassResult emulate_pass() {
  const std::uint64_t seed = read_seed();
  PassResult r;
  EmulateRun run;
  {
    const PassTimer timer;
    run = run_emulate("traces", seed, /*cycles=*/4, /*cycle_s=*/300.0);
    timer.finish(r);
  }
  check_emulate(run, r, /*ks_gate=*/true);
  return r;
}

// --- service ----------------------------------------------------------------

std::vector<ClientJob> read_jobs(const std::string& path) {
  std::vector<ClientJob> jobs;
  std::istringstream in{read_file(path)};
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const std::size_t tab = line.find('\t');
    ClientJob job;
    job.repeat_of = std::stoi(line.substr(0, tab));
    job.spec = service::parse_request(line.substr(tab + 1)).job;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct ClientOutcome {
  std::vector<double> job_ms;
  std::int64_t done = 0;
  std::vector<std::string> failures;
  std::int64_t submitted = 0;
};

/// A closed-loop client: submit, wait, fetch, then the next job.
void client_loop(const std::string& socket, const std::vector<ClientJob>& jobs,
                 const std::string& fetch_base, ClientOutcome& out) {
  try {
    service::Client client{socket};
    std::vector<std::string> digests(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Clock::time_point t0 = Clock::now();
      ++out.submitted;
      service::JobStatus status;
      {
        const ScopedSpan span{"service::Client::submit", "service"};
        status = client.submit(jobs[j].spec);
      }
      if (!service::is_terminal(status.state)) {
        const ScopedSpan span{"service::Client::wait", "service"};
        status = client.wait(status.id);
      }
      if (status.state != service::JobState::Done) {
        out.failures.push_back("job " + std::to_string(status.id) + " " +
                               std::string{job_state_name(status.state)} +
                               ": " + status.error);
        continue;
      }
      service::ResultInfo info;
      {
        const ScopedSpan span{"service::Client::fetch", "service"};
        info = client.fetch(status.id, fetch_base + std::to_string(j));
      }
      out.job_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      ++out.done;
      digests[j] = info.content_digest;
      const int orig = jobs[j].repeat_of;
      if (orig >= 0 && digests[static_cast<std::size_t>(orig)] !=
                           info.content_digest) {
        out.failures.push_back("repeat of job " + std::to_string(orig) +
                               " fetched different content");
      }
    }
  } catch (const std::exception& e) {
    out.failures.push_back(std::string{"client: "} + e.what());
  }
}

}  // namespace

PassResult service_round(const std::string& tag,
                         const std::vector<std::vector<ClientJob>>& clients) {
  service::ServerOptions options;
  options.config.socket_path = "svc-" + tag + ".sock";
  options.config.cache_dir = "cache-" + tag;
  fs::remove_all(options.config.cache_dir);
  service::Server server{options};
  server.start();

  PassResult r;
  std::vector<ClientOutcome> outcomes(clients.size());
  {
    const PassTimer timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back(client_loop, options.config.socket_path,
                           std::cref(clients[c]),
                           "fetch-" + tag + "-" + std::to_string(c) + "-",
                           std::ref(outcomes[c]));
    }
    for (std::thread& t : threads) t.join();
    timer.finish(r);
  }
  server.stop();
  for (const ClientOutcome& o : outcomes) {
    r.job_ms.insert(r.job_ms.end(), o.job_ms.begin(), o.job_ms.end());
    r.jobs_done += o.done;
    r.attempted += o.submitted;
    r.failed += static_cast<std::int64_t>(o.failures.size());
    r.failures.insert(r.failures.end(), o.failures.begin(), o.failures.end());
  }
  fs::remove_all(options.config.cache_dir);
  for (const fs::directory_entry& e : fs::directory_iterator{"."}) {
    if (e.path().filename().string().rfind("fetch-" + tag + "-", 0) == 0) {
      fs::remove_all(e.path());
    }
  }
  return r;
}

namespace {

PassResult service_pass(int index) {
  std::vector<std::vector<ClientJob>> clients;
  for (int c = 0;; ++c) {
    const std::string path = "jobs-" + std::to_string(c) + ".txt";
    if (!fs::exists(path)) break;
    clients.push_back(read_jobs(path));
  }
  if (clients.empty()) throw std::runtime_error{"no jobs-*.txt inputs"};
  return service_round(std::to_string(index), clients);
}

}  // namespace

EmulateRun run_emulate(const std::string& dir, std::uint64_t seed, int cycles,
                       double cycle_s) {
  const std::vector<ingest::JoinEntry> entries{
      {radio::Carrier::Verizon, dir + "/verizon.down"},
      {radio::Carrier::TMobile, dir + "/tmobile.csv"},
      {radio::Carrier::Att, dir + "/att.csv"},
  };
  ingest::IngestOptions options;
  options.mahimahi_uplink_path = dir + "/verizon.up";
  options.threads = 0;
  EmulateRun run;
  {
    const ScopedSpan span{"ingest::ingest_join", "ingest"};
    run.source = ingest::ingest_join("auto", entries, options, {});
  }
  double input_bytes = static_cast<double>(fs::file_size(dir + "/verizon.up"));
  for (const ingest::JoinEntry& e : entries) {
    input_bytes += static_cast<double>(fs::file_size(e.path));
  }
  tally("ingest::ingest_join.bytes", input_bytes);

  {
    const ScopedSpan span{"synth::fit_profile", "synth"};
    run.profile = synth::fit_profile(run.source);
  }
  synth::ScenarioSpec spec;
  spec.duration_s = cycle_s;
  {
    const ScopedSpan span{"synth::sample_bundle", "synth"};
    run.sampled = synth::sample_bundle(run.profile, spec, seed, 0, cycles,
                                       /*threads=*/0);
  }
  tally("synth::sample_bundle.ticks",
        static_cast<double>(run.sampled.db.kpis.size()));

  const emu::ExporterRegistry& registry = emu::builtin_exporter_registry();
  for (const radio::Carrier carrier : radio::kAllCarriers) {
    const emu::EmuTimeline timeline =
        emu::timeline_from_bundle(run.sampled.db, carrier);
    for (const emu::EmuExporter* exporter : registry.exporters()) {
      const std::string name =
          "emu::render[" + std::string{exporter->name()} + "]";
      std::vector<emu::ExportArtifact> artifacts;
      {
        const ScopedSpan span{name, "emu"};
        artifacts = exporter->render(timeline);
      }
      double lines = 0.0;
      for (const emu::ExportArtifact& a : artifacts) {
        lines += static_cast<double>(
            std::count(a.content.begin(), a.content.end(), '\n'));
      }
      tally(name + ".lines", lines);
    }
    const ScopedSpan span{"emu::verify_mahimahi_roundtrip", "emu"};
    run.roundtrips.push_back(emu::verify_mahimahi_roundtrip(timeline));
  }
  return run;
}

void check_emulate(const EmulateRun& run, PassResult& checks, bool ks_gate) {
  for (std::size_t i = 0; i < run.roundtrips.size(); ++i) {
    const emu::RoundTripReport& report = run.roundtrips[i];
    checks.check(report.ok(),
                 std::string{radio::carrier_name(radio::kAllCarriers[i])} +
                     " mahimahi round trip off by " +
                     std::to_string(report.max_error_mbps) + " Mbps");
  }
  if (!ks_gate) return;
  const synth::ValidationReport ks =
      synth::validate_synthesis(run.source.db, run.sampled.db, run.profile);
  double outage = 0.0;
  for (const synth::StreamModel& s : run.profile.streams) {
    outage = std::max(outage, s.outage_fraction);
  }
  std::fprintf(stderr,
               "emulate: synthesis max KS %.4f (gate 0.15), largest fitted "
               "outage fraction %.4f\n",
               ks.max_ks(), outage);
  checks.check(ks.passes(0.15), "synthesis KS " + std::to_string(ks.max_ks()) +
                                    " over the 0.15 gate");
}

PassResult run_pass(Workload workload, int index, bool deep_check) {
  switch (workload) {
    case Workload::Campaign: {
      campaign::CampaignConfig cfg;
      cfg.seed = read_seed();
      return campaign_pass(cfg, "out-" + std::to_string(index), deep_check);
    }
    case Workload::Replay: return replay_pass("bundle", deep_check);
    case Workload::Emulate: return emulate_pass();
    case Workload::Service: return service_pass(index);
  }
  throw std::logic_error{"unreachable"};
}

}  // namespace perfbench
