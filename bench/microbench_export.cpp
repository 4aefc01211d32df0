// google-benchmark: emulation-export rendering throughput. Exporting is the
// off-ramp from the simulator to real emulators (Mahimahi, tc/netem, JSON
// schedules) — a fleet's worth of per-run traces should render in seconds,
// so ticks/s through each backend's render() is the number that bounds "how
// much exported emulation per core-second". The Mahimahi verify loop
// (render + re-ingest + compare) is tracked too since CI runs it per
// export.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>

#include "export/exporter.hpp"
#include "export/roundtrip.hpp"

namespace {

using namespace wheels;

/// A deterministic drive-like timeline: sinusoidal capacity with dropouts
/// and occasional handover loss, the shape a recorded app session has.
emu::EmuTimeline synthetic_timeline(std::size_t ticks) {
  emu::EmuTimeline tl;
  tl.ticks.reserve(ticks);
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < ticks; ++i) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    apps::LinkTick t;
    const double swing = std::sin(static_cast<double>(i) * 0.013) * 0.5 + 1.0;
    t.cap_dl = u < 0.02 ? 0.0 : 120.0 * swing * (0.5 + u);
    t.cap_ul = t.cap_dl * 0.1;
    t.rtt = 30.0 + 40.0 * u;
    t.interruption = u < 0.05 ? 100.0 : 0.0;
    t.tech = u < 0.3 ? radio::Technology::NrMid : radio::Technology::Lte;
    tl.ticks.push_back(t);
  }
  return tl;
}

void bench_backend(benchmark::State& state, const char* backend) {
  const emu::EmuTimeline tl =
      synthetic_timeline(static_cast<std::size_t>(state.range(0)));
  const emu::EmuExporter& exporter =
      emu::builtin_exporter_registry().resolve(backend);
  for (auto _ : state) {
    const auto artifacts = exporter.render(tl);
    benchmark::DoNotOptimize(artifacts.front().content.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tl.ticks.size()));
}

void BM_ExportMahimahi(benchmark::State& state) {
  bench_backend(state, "mahimahi");
}
BENCHMARK(BM_ExportMahimahi)->Arg(1000)->Arg(20000);

void BM_ExportNetem(benchmark::State& state) {
  bench_backend(state, "netem");
}
BENCHMARK(BM_ExportNetem)->Arg(1000)->Arg(20000);

void BM_ExportJson(benchmark::State& state) { bench_backend(state, "json"); }
BENCHMARK(BM_ExportJson)->Arg(1000)->Arg(20000);

void BM_MahimahiRoundTripVerify(benchmark::State& state) {
  const emu::EmuTimeline tl =
      synthetic_timeline(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const emu::RoundTripReport report = emu::verify_mahimahi_roundtrip(tl);
    benchmark::DoNotOptimize(report.max_error_mbps);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tl.ticks.size()));
}
BENCHMARK(BM_MahimahiRoundTripVerify)->Arg(1000)->Arg(20000);

}  // namespace

BENCHMARK_MAIN();
