// google-benchmark: scenario synthesis throughput. The sampler is the
// unlimited-data on-ramp — fleets of synthetic drive cycles feed replay
// campaigns — so points/s through sample_stream and end-to-end cycles
// through sample_bundle (including the ingest join) are the rates that
// bound "how much synthetic fleet per core-second". SetItemsProcessed
// makes sampled ticks first-class; the fit side is tracked too since
// refitting per profile tweak should stay interactive.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>

#include "ingest/join.hpp"
#include "ingest/stream.hpp"
#include "replay/ingest.hpp"
#include "synth/fit.hpp"
#include "synth/sample.hpp"

namespace {

using namespace wheels;

/// A deterministic two-carrier source bundle, built once per process
/// through the regular ingest join: sinusoidal capacity with noise and
/// occasional dropouts — enough regime structure to make the fit work.
const replay::ReplayBundle& source_bundle() {
  static const replay::ReplayBundle bundle = [] {
    const auto produce = [](std::uint64_t salt, double base_mbps) {
      return [salt, base_mbps](ingest::PointSink& sink) {
        std::uint64_t h = salt;
        for (int i = 0; i < 4000; ++i) {
          h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
          const double u =
              static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
          replay::TraceSample p;
          p.t = static_cast<std::int64_t>(i) * 500;
          const double swing = std::sin(i * 0.013) * 0.5 + 1.0;
          p.cap_dl = u < 0.02 ? 0.0 : base_mbps * swing * (0.5 + u);
          p.cap_ul = p.cap_dl * 0.25;
          p.rtt = 30.0 + 40.0 * u + (u < 0.02 ? 150.0 : 0.0);
          sink.push(p);
        }
        sink.finish();
      };
    };
    std::vector<ingest::StreamSource> sources;
    sources.push_back(
        {radio::Carrier::Verizon, "bench-vz", produce(0x9e3779b9, 120.0)});
    sources.push_back(
        {radio::Carrier::TMobile, "bench-tm", produce(0x85ebca6b, 200.0)});
    return ingest::join_streams(sources, {}, {}, 1);
  }();
  return bundle;
}

const synth::SynthProfile& fitted_profile() {
  static const synth::SynthProfile profile =
      synth::fit_profile(source_bundle());
  return profile;
}

void BM_FitProfile(benchmark::State& state) {
  const replay::ReplayBundle& bundle = source_bundle();
  std::size_t ticks = 0;
  for (auto _ : state) {
    const synth::SynthProfile p = synth::fit_profile(bundle);
    ticks = 0;
    for (const synth::StreamModel& s : p.streams) ticks += s.n_ticks;
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ticks) * state.iterations());
}
BENCHMARK(BM_FitProfile)->Unit(benchmark::kMillisecond);

/// Raw sampler rate: one carrier's point stream into a collecting sink,
/// items = sampled ticks (the 500 ms grid points of the cycles).
void BM_SampleStream(benchmark::State& state) {
  const synth::SynthProfile& profile = fitted_profile();
  synth::ScenarioSpec spec;
  spec.duration_s = 600.0;
  const int cycles = static_cast<int>(state.range(0));
  std::size_t points = 0;
  for (auto _ : state) {
    ingest::CollectSink sink;
    synth::sample_stream(profile, spec, 1, radio::Carrier::Verizon, 0, cycles,
                         sink);
    points = sink.trace.points.size();
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(static_cast<int64_t>(points) * state.iterations());
}
BENCHMARK(BM_SampleStream)
    ->Arg(1)
    ->Arg(10)
    ->ArgName("cycles")
    ->Unit(benchmark::kMillisecond);

/// End-to-end synthesis: sample + join + validated bundle, both carriers.
/// Items = KPI rows of the produced bundle (dl + ul per tick).
void BM_SampleBundle(benchmark::State& state) {
  const synth::SynthProfile& profile = fitted_profile();
  synth::ScenarioSpec spec;
  spec.duration_s = 600.0;
  const int threads = static_cast<int>(state.range(0));
  std::size_t rows = 0;
  for (auto _ : state) {
    const replay::ReplayBundle b =
        synth::sample_bundle(profile, spec, 1, 0, 5, threads);
    rows = b.db.kpis.size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}
BENCHMARK(BM_SampleBundle)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
