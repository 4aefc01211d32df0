// google-benchmark microbenchmark of the massive-UE core: UEs/sec of the
// batched SoA tick path (ran/ue_pool.hpp), swept over population size,
// scheduler discipline and worker-thread count. items_per_second in the
// report is UE-ticks per wall second — the headline scaling number tracked
// in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/thread_pool.hpp"
#include "geo/route.hpp"
#include "geo/scaled_route.hpp"
#include "radio/deployment.hpp"
#include "ran/scheduler.hpp"
#include "ran/ue_pool.hpp"

namespace {

using namespace wheels;

const geo::Route& route() {
  static const geo::Route r = geo::Route::cross_country();
  return r;
}

/// args: {population, scheduler (0 = pf, 1 = rr), threads}
void BM_UePoolTick(benchmark::State& state) {
  const auto population = static_cast<std::uint32_t>(state.range(0));
  const auto kind = state.range(1) == 0 ? ran::SchedulerKind::ProportionalFair
                                        : ran::SchedulerKind::RoundRobin;
  const int threads = static_cast<int>(state.range(2));

  const geo::ScaledRoute view{route(), 0.05};
  const radio::Deployment dep{view, radio::Carrier::TMobile, Rng{42}};
  ran::UePoolConfig cfg;
  cfg.count = population;
  cfg.scheduler = kind;
  ran::UePool pool{dep, view.total_physical_km(), cfg, Rng{42}};
  // threads counts participants; the calling thread is one of them.
  core::ThreadPool workers{threads};

  SimMillis t = 0;
  for (auto _ : state) {
    pool.tick(t, workers);
    t += 500;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(population));
  state.SetLabel(std::string{ran::scheduler_kind_name(kind)} + "/" +
                 std::to_string(threads) + "thr");
}
BENCHMARK(BM_UePoolTick)
    ->ArgNames({"ues", "sched", "thr"})
    ->Args({10000, 0, 1})
    ->Args({10000, 1, 1})
    ->Args({10000, 0, 4})
    ->Args({10000, 1, 4})
    ->Args({50000, 0, 1})
    ->Args({50000, 0, 4})
    ->UseRealTime()  // workers burn CPU off the timing thread; wall time is
                     // the honest denominator for UEs/sec
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
