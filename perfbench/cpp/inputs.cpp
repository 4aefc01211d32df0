// Set-up: every input a workload reads is generated here from the seed.
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/rng.hpp"
#include "radio/technology.hpp"
#include "replay/ingest.hpp"
#include "service/protocol.hpp"
#include "synth/fit.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wheels;

namespace {

/// Link state of one generated 500 ms tick.
struct GenTick {
  double dl = 0.0;
  double ul = 0.0;
  double rtt = 0.0;
  radio::Technology tech = radio::Technology::Lte;
};

struct Regime {
  double dl_mbps;
  double rtt_ms;
  radio::Technology tech;
  int runs;  // runs of kRunTicks per kDeckTicks
};

// LTE, LTE-A and mid-band 5G levels: a regime chain the synth fitter can
// recover. The seed shuffles the order of fixed-length runs (and jitters
// every tick), so each regime's share of the trace, and with it the
// trace's size, is the same for every seed.
constexpr Regime kRegimes[] = {
    {15.0, 70.0, radio::Technology::Lte, 7},
    {35.0, 50.0, radio::Technology::LteA, 7},
    {70.0, 35.0, radio::Technology::NrMid, 6},
};
constexpr int kRunTicks = 5;
constexpr int kDeckTicks = 100;  // kRunTicks * sum of runs

// Every deck holds one outage: kOutageTicks ticks of zero capacity in both
// directions (zero Mahimahi delivery opportunities), inside whatever run
// covers them, so the fitter's outage band (<= 0.1 Mbps) and the exporters'
// zero-opportunity ticks are exercised. The seed places it; it never
// touches a deck's first or last run, so the trace starts and ends with
// capacity (a Mahimahi trace has no way to record a leading or trailing
// outage) and its size stays the same for every seed.
constexpr int kOutageTicks = 3;

std::vector<GenTick> generate_ticks(Rng rng, int ticks) {
  std::vector<std::size_t> deck;
  for (std::size_t r = 0; r < std::size(kRegimes); ++r) {
    deck.insert(deck.end(), static_cast<std::size_t>(kRegimes[r].runs), r);
  }
  std::vector<GenTick> out;
  out.reserve(static_cast<std::size_t>(ticks));
  std::vector<std::size_t> order;
  int outage_start = 0;
  for (int i = 0; i < ticks; ++i) {
    if (i % kDeckTicks == 0) {
      order = deck;
      for (std::size_t k = order.size() - 1; k > 0; --k) {
        std::swap(order[k], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<int>(k)))]);
      }
      outage_start = rng.uniform_int(kRunTicks,
                                     kDeckTicks - kRunTicks - kOutageTicks);
    }
    const int in_deck = i % kDeckTicks;
    const Regime& r =
        kRegimes[order[static_cast<std::size_t>(in_deck / kRunTicks)]];
    GenTick t;
    t.tech = r.tech;
    t.dl = r.dl_mbps * rng.lognormal(0.0, 0.3);
    t.ul = t.dl * 0.15 * rng.lognormal(0.0, 0.2);
    t.rtt = r.rtt_ms * rng.lognormal(0.0, 0.15);
    if (in_deck >= outage_start && in_deck < outage_start + kOutageTicks) {
      t.dl = 0.0;
      t.ul = 0.0;
    }
    out.push_back(t);
  }
  return out;
}

constexpr double kTickMs = 500.0;
constexpr double kMtuBits = 1500.0 * 8.0;

/// One Mahimahi direction: round(cap * tick / MTU) delivery opportunities
/// per tick, spread evenly over the tick.
void write_mahimahi(const std::string& path, const std::vector<GenTick>& ticks,
                    bool uplink) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot write " + path};
  std::string buf;
  buf.reserve(1 << 20);
  char num[24];
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    const double cap = uplink ? ticks[i].ul : ticks[i].dl;
    const auto n = static_cast<std::int64_t>(
        std::llround(cap * 1e6 * kTickMs * 1e-3 / kMtuBits));
    const std::int64_t base = static_cast<std::int64_t>(i) * 500;
    for (std::int64_t k = 0; k < n; ++k) {
      const std::int64_t t = base + k * 500 / n;
      const auto res = std::to_chars(num, num + sizeof num, t);
      buf.append(num, res.ptr);
      buf += '\n';
    }
    if (buf.size() > (1u << 20) - 4096) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error{"cannot write " + path};
}

void write_minimal_csv(const std::string& path,
                       const std::vector<GenTick>& ticks) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot write " + path};
  out << "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech\n";
  char line[160];
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    const GenTick& t = ticks[i];
    std::snprintf(line, sizeof line, "%zu,%.6f,%.6f,%.4f,%s\n", i * 500, t.dl,
                  t.ul, t.rtt,
                  std::string{radio::technology_name(t.tech)}.c_str());
    out << line;
  }
  if (!out) throw std::runtime_error{"cannot write " + path};
}

// --- service ---------------------------------------------------------------

constexpr int kServiceClients = 4;
constexpr int kJobsPerClient = 16;
/// Every fourth job of a client repeats, exactly, its job two places back.
constexpr int kRepeatEvery = 4;
constexpr int kRepeatDistance = 2;

std::string submit_line(const service::JobSpec& spec) {
  return "{\"v\": 1, \"op\": \"submit\", \"job\": " + spec.to_json() + "}";
}

/// Job `index` of `client`. The kind and knobs follow a fixed rotation
/// (clients start one kind apart, so every wave mixes kinds); the seed only
/// picks each job's own seed, so the work a pass does is the same for every
/// benchmark seed.
service::JobSpec make_job(std::uint64_t seed, int client, int index) {
  const int slot = client + index;
  service::JobSpec spec;
  spec.seed = mix64(seed ^ mix64(static_cast<std::uint64_t>(
                               client * 1000 + index + 1))) %
              1000000007ull;
  switch (slot % 3) {
    case 0:
      spec.kind = service::JobKind::Campaign;
      spec.scale = 0.01;
      break;
    case 1:
      spec.kind = service::JobKind::Replay;
      spec.bundles = {"source"};
      if ((slot / 3) % 2 == 1) spec.knobs.cc = transport::CcAlgo::Bbr;
      break;
    default:
      spec.kind = service::JobKind::Synth;
      spec.profile = "profile.json";
      spec.cycles = 2;
      spec.scenario = "duration_s=120";
      break;
  }
  return spec;
}

void write_service_inputs(std::uint64_t seed) {
  campaign::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.scale = 0.02;
  campaign::run_to_bundle(cfg, "source", /*canonical_provenance=*/true);
  synth::write_profile(synth::fit_profile(replay::read_dataset("source")),
                       "profile.json");
  // One file per client: "<repeat-of index or -1>\t<submit request line>".
  for (int c = 0; c < kServiceClients; ++c) {
    std::vector<std::string> lines;
    std::string text;
    for (int j = 0; j < kJobsPerClient; ++j) {
      int repeat_of = -1;
      std::string line;
      if (j % kRepeatEvery == kRepeatEvery - 1) {
        repeat_of = j - kRepeatDistance;
        line = lines[static_cast<std::size_t>(repeat_of)];
      } else {
        line = submit_line(make_job(seed, c, j));
        // Fail here, not mid-run, on a spec the protocol would refuse.
        (void)service::parse_request(line);
      }
      lines.push_back(line);
      text += std::to_string(repeat_of) + "\t" + line + "\n";
    }
    write_file("jobs-" + std::to_string(c) + ".txt", text);
  }
}

}  // namespace

Workload parse_workload(std::string_view name) {
  if (name == "campaign") return Workload::Campaign;
  if (name == "replay") return Workload::Replay;
  if (name == "emulate") return Workload::Emulate;
  if (name == "service") return Workload::Service;
  throw std::runtime_error{"unknown workload '" + std::string{name} +
                           "' (campaign, replay, emulate, service)"};
}

void write_emulate_traces(const std::string& dir, std::uint64_t seed,
                          int ticks) {
  fs::create_directories(dir);
  const Rng root{seed};
  const std::vector<GenTick> verizon =
      generate_ticks(root.fork("emulate.verizon"), ticks);
  write_mahimahi(dir + "/verizon.down", verizon, /*uplink=*/false);
  write_mahimahi(dir + "/verizon.up", verizon, /*uplink=*/true);
  write_minimal_csv(dir + "/tmobile.csv",
                    generate_ticks(root.fork("emulate.tmobile"), ticks));
  write_minimal_csv(dir + "/att.csv",
                    generate_ticks(root.fork("emulate.att"), ticks));
}

void run_setup(Workload workload, std::uint64_t seed) {
  write_file("seed", std::to_string(seed) + "\n");
  switch (workload) {
    case Workload::Campaign:
      // The campaign reads nothing: its only input is the seed.
      return;
    case Workload::Replay: {
      campaign::CampaignConfig cfg;
      cfg.seed = seed;
      campaign::run_to_bundle(cfg, "bundle", /*canonical_provenance=*/true);
      return;
    }
    case Workload::Emulate:
      write_emulate_traces("traces", seed, /*ticks=*/3600);
      return;
    case Workload::Service:
      write_service_inputs(seed);
      return;
  }
}

}  // namespace perfbench
