#include "measure/shard.hpp"

namespace wheels::measure {

void RecordShard::clear() {
  tests.clear();
  kpis.clear();
  rtts.clear();
  handovers.clear();
  app_runs.clear();
  link_ticks.clear();
  rx_bytes = 0.0;
  tx_bytes = 0.0;
}

void merge_shard_into(ConsolidatedDb& db, RecordShard& shard) {
  db.tests.insert(db.tests.end(), shard.tests.begin(), shard.tests.end());
  db.kpis.insert(db.kpis.end(), shard.kpis.begin(), shard.kpis.end());
  db.rtts.insert(db.rtts.end(), shard.rtts.begin(), shard.rtts.end());
  db.handovers.insert(db.handovers.end(), shard.handovers.begin(),
                      shard.handovers.end());
  db.app_runs.insert(db.app_runs.end(), shard.app_runs.begin(),
                     shard.app_runs.end());
  db.link_ticks.insert(db.link_ticks.end(), shard.link_ticks.begin(),
                       shard.link_ticks.end());
  db.rx_bytes += shard.rx_bytes;
  db.tx_bytes += shard.tx_bytes;
  shard.clear();
}

}  // namespace wheels::measure
