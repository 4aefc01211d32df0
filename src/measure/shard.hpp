// Per-carrier record shards: the thread-safe sink strategy of the parallel
// campaign.
//
// ConsolidatedDb's record vectors are shared across carriers, so three
// concurrent carrier jobs cannot append to them directly. Instead each job
// appends — lock-free, because the shard is thread-private — its records,
// the tests it closed included, to its carrier's own RecordShard, and the
// coordinator drains the shards in canonical carrier order after the join.
// The serial path (WHEELS_THREADS=1) runs the identical code inline, so the
// database contents are byte-identical for every thread count: same
// per-carrier record streams, same merge order, same floating-point
// summation order for the byte counters.
#pragma once

#include "measure/records.hpp"

namespace wheels::measure {

struct RecordShard {
  std::vector<TestRecord> tests;
  std::vector<KpiRecord> kpis;
  std::vector<RttRecord> rtts;
  std::vector<HandoverRecord> handovers;
  std::vector<AppRunRecord> app_runs;
  std::vector<LinkTickRecord> link_ticks;
  /// Application-layer bytes moved by this carrier during the fan-out.
  double rx_bytes = 0.0;
  double tx_bytes = 0.0;

  void clear();
};

/// Append `shard`'s records and byte counters to `db`, then clear the shard
/// for reuse. Must be called once per carrier, in carrier-index order, after
/// every fan-out joins — that fixed merge order is the determinism contract
/// of the parallel campaign (docs/ARCHITECTURE.md, "Parallel execution").
void merge_shard_into(ConsolidatedDb& db, RecordShard& shard);

}  // namespace wheels::measure
