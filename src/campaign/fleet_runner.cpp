#include "campaign/fleet_runner.hpp"

#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"

namespace wheels::campaign {

FleetRunner::FleetRunner(int threads)
    : threads_(core::resolve_threads(threads)) {}

std::vector<measure::ConsolidatedDb> FleetRunner::run_all(
    std::vector<CampaignConfig> configs) const {
  core::obs::ScopedSpan span{"fleet.run_all", "campaign"};
  std::vector<measure::ConsolidatedDb> results(configs.size());

  // Each job writes only its own slot, so no lock is needed; the slot index
  // pins results to submission order whatever the completion order is.
  core::run_indexed(threads_, configs.size(), [&results, &configs](std::size_t i) {
    core::obs::ScopedSpan job_span{"fleet.job", "campaign"};
    static const core::obs::Counter jobs{"campaign.fleet.jobs"};
    jobs.add();
    CampaignConfig cfg = configs[i];
    // All parallelism lives at the fleet level; the inner serial path
    // produces the identical database (campaign.hpp).
    cfg.threads = 1;
    results[i] = DriveCampaign{cfg}.run();
  });
  return results;
}

}  // namespace wheels::campaign
