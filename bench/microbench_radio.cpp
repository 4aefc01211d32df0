// google-benchmark microbenchmarks for the radio hot path: channel sampling
// and serving-cell lookup dominate the per-tick cost of the campaign.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "geo/drive_trace.hpp"
#include "geo/route.hpp"
#include "geo/scaled_route.hpp"
#include "radio/channel.hpp"
#include "radio/deployment.hpp"
#include "ran/session.hpp"

namespace {

using namespace wheels;

const geo::Route& route() {
  static const geo::Route r = geo::Route::cross_country();
  return r;
}

void BM_ChannelSample(benchmark::State& state) {
  radio::CellSite cell;
  cell.id = 1;
  cell.tech = radio::Technology::NrMid;
  cell.center_km = 100.0;
  cell.radius_km = 1.3;
  radio::ChannelModel ch{radio::Carrier::TMobile, Rng{3}};
  ch.attach(cell);
  Km km = 99.0;
  for (auto _ : state) {
    km += 0.009;
    if (km > 101.0) km = 99.0;
    benchmark::DoNotOptimize(ch.sample(cell, km, 65.0, 500.0));
  }
}
BENCHMARK(BM_ChannelSample);

void BM_CoveringCellLookup(benchmark::State& state) {
  const geo::ScaledRoute view{route(), 1.0};
  const radio::Deployment dep{view, radio::Carrier::TMobile, Rng{4}};
  Km km = 0.0;
  for (auto _ : state) {
    km += 1.37;
    if (km > 5700.0) km = 0.0;
    benchmark::DoNotOptimize(dep.covering_cell(radio::Technology::Lte, km));
  }
}
BENCHMARK(BM_CoveringCellLookup);

// One phone's RadioSession ticking along the whole drive at scale 1.0, as
// the campaign's bulk tests tick it: the coverage lookup, the tier policy,
// handovers and the channel sample of every 500 ms tick. At the end of the
// drive a fresh session starts over from km 0.
void BM_SessionTickAlongDrive(benchmark::State& state) {
  static const std::vector<geo::DriveSample> samples = [] {
    std::vector<geo::DriveSample> out;
    geo::DriveTraceGenerator gen{route(), geo::DriveTraceConfig{},
                                 Rng{1}.fork("trace")};
    while (const std::optional<geo::DriveSample> s = gen.next()) {
      out.push_back(*s);
    }
    return out;
  }();
  const geo::ScaledRoute view{route(), 1.0};
  const radio::Deployment dep{view, radio::Carrier::TMobile, Rng{4}};
  std::optional<ran::RadioSession> session;
  std::size_t i = samples.size();
  for (auto _ : state) {
    if (i == samples.size()) {
      session.emplace(dep, ran::TrafficProfile::BackloggedDownlink, Rng{5});
      i = 0;
    }
    benchmark::DoNotOptimize(session->tick(samples[i++], 500.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionTickAlongDrive);

void BM_DeploymentGeneration(benchmark::State& state) {
  const geo::ScaledRoute view{route(), 1.0};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    radio::Deployment dep{view, radio::Carrier::Verizon, Rng{seed++}};
    benchmark::DoNotOptimize(dep.cells().size());
  }
}
BENCHMARK(BM_DeploymentGeneration);

}  // namespace

BENCHMARK_MAIN();
