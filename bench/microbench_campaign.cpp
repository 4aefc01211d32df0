// google-benchmark: end-to-end campaign simulation cost. The full-scale
// (5,711 km) campaign must stay laptop-fast; this tracks the per-km cost.
#include <benchmark/benchmark.h>

#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fleet_runner.hpp"
#include "core/sim_time.hpp"
#include "core/thread_pool.hpp"
#include "measure/log_sync.hpp"
#include "measure/logfile.hpp"

namespace {

using namespace wheels;

void BM_CampaignTiny(benchmark::State& state) {
  campaign::CampaignConfig cfg;
  cfg.scale = 0.01;  // ~57 km
  cfg.seed = 1;
  cfg.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto db = campaign::DriveCampaign{cfg}.run();
    benchmark::DoNotOptimize(db.kpis.size());
  }
}
// threads=1 is the serial path, threads=4 the per-carrier fan-out — both
// produce the identical database, so this pair measures pure overhead/gain.
BENCHMARK(BM_CampaignTiny)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FleetRunner(benchmark::State& state) {
  std::vector<campaign::CampaignConfig> configs(4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].scale = 0.01;
    configs[i].seed = i + 1;
    configs[i].run_apps = false;
    configs[i].run_static = false;
  }
  const campaign::FleetRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto dbs = runner.run_all(configs);
    benchmark::DoNotOptimize(dbs.size());
  }
}
BENCHMARK(BM_FleetRunner)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CampaignNoApps(benchmark::State& state) {
  campaign::CampaignConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 1;
  cfg.run_apps = false;
  cfg.run_static = false;
  for (auto _ : state) {
    const auto db = campaign::DriveCampaign{cfg}.run();
    benchmark::DoNotOptimize(db.kpis.size());
  }
}
BENCHMARK(BM_CampaignNoApps)->Unit(benchmark::kMillisecond);

// One bulk test's challenge-C2 pipeline: Arg ticks of 500 ms logged by
// XCAL (a .drm file opened in Central time, rows stamped in EDT) and by the
// nuttcp app log (UTC), then joined back by LogSynchronizer. Every row and
// line is one timestamp formatted and parsed back.
void BM_LogSyncJoin(benchmark::State& state) {
  const int ticks = static_cast<int>(state.range(0));
  const UnixMillis t0 = campaign_start_unix_ms() + 123'456'789;
  for (auto _ : state) {
    measure::XcalLogger xcal{radio::Carrier::Verizon, t0, -300};
    measure::AppLogger applog{"nuttcp", measure::TimestampPolicy::Utc, 0};
    for (int i = 0; i < ticks; ++i) {
      const UnixMillis now = t0 + 500 * static_cast<UnixMillis>(i);
      measure::KpiRecord kpi;
      kpi.t = sim_from_unix(now);
      xcal.log(now, kpi);
      applog.log(now, 100.0 + i);
    }
    const std::vector<measure::KpiRecord> rows =
        measure::LogSynchronizer::join(std::move(xcal).finish(),
                                       std::move(applog).finish());
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(state.iterations() * ticks);
}
BENCHMARK(BM_LogSyncJoin)->Arg(60);

// One run_indexed of three empty jobs on a persistent pool: the fixed cost
// of the per-segment carrier fan-out, paid 8,442 times by a full-scale
// campaign and its bundle write. Arg = pool width, the caller included.
void BM_PoolBatch(benchmark::State& state) {
  core::ThreadPool pool{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    pool.run_indexed(3, [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
}
BENCHMARK(BM_PoolBatch)
    ->Arg(1)
    ->Arg(3)
    ->UseRealTime()  // workers run jobs off the timing thread
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
