// Ablation: what if operators upgraded idle UEs?
//
// §4.1's lesson is that passive coverage logging under-reports 5G because
// upgrade policies are traffic-aware. This ablation re-runs the passive
// handover-logger with three hypothetical policies and quantifies the bias.
#include <array>

#include "bench_common.hpp"
#include "core/thread_pool.hpp"
#include "geo/drive_trace.hpp"
#include "geo/scaled_route.hpp"
#include "measure/passive_logger.hpp"
#include "ran/session.hpp"

using namespace wheels;
using namespace wheels::analysis;

namespace {

TechShares passive_coverage(const radio::Deployment& dep,
                            const geo::Route& route, double scale,
                            ran::TrafficProfile profile, Rng rng) {
  ran::RadioSession session{dep, profile, rng.fork("s")};
  measure::CoverageTracker tracker;
  geo::DriveTraceConfig tc;
  tc.scale = scale;
  geo::DriveTraceGenerator gen{route, tc, rng.fork("trace")};
  while (auto s = gen.next()) {
    tracker.observe(s->km / scale, session.tick(*s, 500.0).tech);
  }
  return coverage_from_segments(std::move(tracker).finish());
}

}  // namespace

int main() {
  banner(std::cout, "Ablation",
         "Coverage logging bias vs upgrade policy (paper §4.1: passive "
         "approaches are not reliable)");

  const auto cfg = campaign::config_from_env(0.25);
  const geo::Route route = geo::Route::cross_country();
  const geo::ScaledRoute view{route, cfg.scale};
  const Rng root{cfg.seed + 2};

  const struct {
    ran::TrafficProfile profile;
    const char* name;
  } profiles[] = {
      {ran::TrafficProfile::IdlePing, "idle ping (the paper's logger)"},
      {ran::TrafficProfile::Interactive, "interactive app"},
      {ran::TrafficProfile::BackloggedDownlink, "backlogged DL (truth)"},
  };
  constexpr std::size_t kProfiles = std::size(profiles);

  // The 3 carriers x (truth + 3 policies) arms draw from independent forked
  // streams, so fan them across cores into index-addressed slots and print
  // serially afterwards. Each arm builds its own Deployment from the same
  // fork (Rng::fork is const and repeatable), keeping arms share-nothing.
  // Slot ci * (kProfiles + 1) holds carrier ci's truth, the next kProfiles
  // slots its policies.
  std::array<TechShares, radio::kCarrierCount*(kProfiles + 1)> results{};
  core::run_indexed(0, results.size(), [&](std::size_t i) {
    const radio::Carrier c = radio::kAllCarriers[i / (kProfiles + 1)];
    const std::size_t arm = i % (kProfiles + 1);
    const ran::TrafficProfile profile =
        arm == 0 ? ran::TrafficProfile::BackloggedDownlink
                 : profiles[arm - 1].profile;
    const char* stream = arm == 0 ? "truth" : profiles[arm - 1].name;
    radio::Deployment dep{view, c, root.fork(radio::carrier_name(c))};
    results[i] =
        passive_coverage(dep, route, cfg.scale, profile,
                         root.fork(stream, static_cast<std::uint64_t>(c)));
  });

  Table t({"carrier", "logger traffic", "5G share seen", "hi-speed share",
           "bias vs backlogged-DL"});
  for (radio::Carrier c : radio::kAllCarriers) {
    const std::size_t ci = measure::carrier_index(c);
    const TechShares& truth = results[ci * (kProfiles + 1)];
    for (std::size_t pi = 0; pi < kProfiles; ++pi) {
      const TechShares& seen = results[ci * (kProfiles + 1) + 1 + pi];
      t.add_row({bench::carrier_str(c), profiles[pi].name,
                 fmt_pct(five_g_share(seen)), fmt_pct(high_speed_share(seen)),
                 fmt(five_g_share(seen) - five_g_share(truth), 2)});
    }
  }
  t.print(std::cout);

  std::cout << "\n  Expected shape: the idle-ping logger under-reports 5G "
               "massively\n  (AT&T: to zero); only traffic-loaded logging "
               "recovers the true footprint.\n";
  return 0;
}
