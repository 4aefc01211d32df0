// FleetRunner: campaign-level parallelism.
//
// Some benches (ext_future_deployment, microbench_campaign) run many
// *independent* campaigns — different seeds, scenario overrides, scales.
// FleetRunner fans those (seed, CampaignConfig) jobs out through
// core::run_indexed and returns the databases in submission order.
//
// Because a campaign's ConsolidatedDb is invariant to its own thread count
// (see campaign.hpp), FleetRunner forces every inner campaign to the serial
// path (threads = 1) and spends all parallelism at the fleet level — the
// efficient shape when jobs outnumber cores — without changing a single
// output byte.
#pragma once

#include <vector>

#include "campaign/campaign.hpp"

namespace wheels::campaign {

class FleetRunner {
 public:
  /// `threads` = total concurrent campaigns (the calling thread works too).
  /// 0 = auto: WHEELS_THREADS, else hardware_concurrency.
  explicit FleetRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Run every campaign and return the databases in submission order,
  /// regardless of thread count or completion order.
  std::vector<measure::ConsolidatedDb> run_all(
      std::vector<CampaignConfig> configs) const;

 private:
  int threads_;
};

}  // namespace wheels::campaign
