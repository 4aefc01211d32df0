// UePool: the batched, cache-friendly massive-UE simulation core.
//
// The paper's campaign simulates six handsets, one heap-allocated
// RadioSession each. That shape cannot scale to the population a real
// carrier serves, so the UePool keeps *all* per-UE state in parallel arrays
// (structure-of-arrays): position, velocity, traffic profile, per-tick
// demand, transmit backlog, served-rate average, RRC idle counter and the
// attached cell. One tick sweeps the arrays in fixed-size blocks, one
// core::ThreadPool::run_indexed job per block, then runs one per-cell
// scheduler (ran/scheduler.hpp) per occupied cell to share the cell's
// capacity among every attached UE — which turns cell load, contention and
// tier-policy fairness into first-class simulated phenomena instead of a
// stochastic stand-in.
//
// Determinism contract (the same one the campaign runner obeys, see
// docs/SCALING.md): every parallel phase writes only disjoint array slots,
// all per-tick randomness is counter-based (hash of (UE seed, tick), no
// shared generator), block boundaries are fixed by config — never by thread
// count — and block-level reductions are merged in block order. The pool's
// state after N ticks is therefore byte-identical for every WHEELS_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "core/thread_pool.hpp"
#include "core/units.hpp"
#include "radio/deployment.hpp"
#include "ran/scheduler.hpp"

namespace wheels::ran {

/// The traffic classes of the simulated population (rough 2022 mobile mix).
/// Each class is a mean downlink rate, an on/off duty cycle and a backlog
/// ceiling; per-UE per-tick draws perturb the rate.
enum class UeProfile : std::uint8_t { Idle, Web, Audio, Video, Bulk };
inline constexpr int kUeProfileCount = 5;

std::string_view ue_profile_name(UeProfile p);

struct UePoolConfig {
  /// Population size. 0 is a valid (empty) pool.
  std::uint32_t count = 0;
  SchedulerKind scheduler = SchedulerKind::ProportionalFair;
  /// Tick length; the campaign's 500 ms XCAL interval.
  Millis tick = 500.0;
  /// Smoothing factor of the PF served-rate EWMA.
  double ewma_alpha = 0.1;
  /// UEs per parallel block. Part of the determinism contract: block
  /// boundaries depend on this constant only, never on the thread count.
  std::uint32_t block = 2048;
  /// RRC inactivity release, in ticks (10 s at the default tick).
  std::uint32_t rrc_idle_ticks = 20;
};

/// Per-cell aggregate of the whole run, drained once at campaign end (the
/// campaign converts these into measure::CellLoadRecord rows).
struct CellLoadSummary {
  std::uint32_t cell_id = 0;
  radio::Technology tech = radio::Technology::Lte;
  /// Ticks during which at least one UE was attached.
  std::int64_t ticks = 0;
  double avg_attached = 0.0;   // mean attached UEs over those ticks
  double avg_active = 0.0;     // mean UEs with positive demand
  Mbps avg_demand = 0.0;       // mean summed demand
  Mbps avg_allocated = 0.0;    // mean summed allocation
  Mbps avg_capacity = 0.0;     // mean cell capacity offered
  double utilization = 0.0;    // avg_allocated / avg_capacity
  double fairness = 0.0;       // mean Jain index over per-UE allocations
};

class UePool {
 public:
  /// Place `cfg.count` UEs along `route_length_km` of `deployment`'s route.
  /// All initial draws (placement, velocity, profile, device tier) come from
  /// `rng`; per-tick randomness is derived per UE, counter-based.
  UePool(const radio::Deployment& deployment, Km route_length_km,
         const UePoolConfig& cfg, Rng rng);

  /// Advance the whole population by one tick at sim time `t`. `pool`
  /// receives the block fan-out; its width never changes the result, and a
  /// 1-wide pool runs every block inline.
  void tick(SimMillis t, core::ThreadPool& pool);

  std::uint32_t size() const { return cfg_.count; }
  std::int64_t ticks() const { return tick_index_; }
  const UePoolConfig& config() const { return cfg_; }
  radio::Carrier carrier() const { return deployment_->carrier(); }

  /// Fraction of its serving cell's capacity a *measurement* UE attached to
  /// `cell_id` would retain this tick: one more proportional-fair user on
  /// the cell, floored by the cell's unused headroom. 1.0 when the cell is
  /// empty or unknown (anchor/sector ids never match pool cells).
  double population_share(std::uint32_t cell_id) const;

  /// Whole-run totals (block-order deterministic sums).
  struct Totals {
    double delivered_bytes = 0.0;  // application bytes served
    std::int64_t handovers = 0;    // serving-cell changes
    std::int64_t rrc_promotions = 0;
    std::int64_t active_ue_ticks = 0;  // (UE, tick) pairs with demand > 0
  };
  const Totals& totals() const { return totals_; }

  /// Per-cell load/fairness aggregates for every cell that ever hosted a UE,
  /// sorted by cell id.
  std::vector<CellLoadSummary> cell_load() const;

  /// Read-only views of the SoA arrays (tests and benches; indexed by UE).
  std::span<const double> demand_mbps() const { return demand_; }
  std::span<const double> alloc_mbps() const { return alloc_; }
  std::span<const double> avg_mbps() const { return avg_; }
  std::span<const std::uint32_t> attached_cell_index() const { return cell_; }
  const radio::CellSite& cell_site(std::uint32_t cell_index) const;

 private:
  struct BlockStats {
    double delivered_bytes = 0.0;
    std::int64_t handovers = 0;
    std::int64_t rrc_promotions = 0;
    std::int64_t active_ue_ticks = 0;
  };

  void update_ue_block(std::uint32_t begin, std::uint32_t end, SimMillis t,
                       BlockStats& stats);
  void schedule_cell_block(std::uint32_t begin, std::uint32_t end,
                           SchedulerScratch& scratch);
  void apply_block(std::uint32_t begin, std::uint32_t end, BlockStats& stats);
  void rebuild_members();
  void run_blocks(core::ThreadPool& pool, std::size_t n_items,
                  std::size_t block,
                  const std::function<void(std::uint32_t, std::uint32_t,
                                           std::uint32_t)>& fn);

  const radio::Deployment* deployment_;
  UePoolConfig cfg_;
  Km route_km_;

  // ---- SoA per-UE state (all vectors have size() == cfg_.count) ----
  std::vector<double> km_;        // position along the physical route
  std::vector<double> vel_kmh_;   // signed speed (reflects at route ends)
  std::vector<std::uint64_t> seed_;  // per-UE stream for counter-based draws
  std::vector<UeProfile> profile_;
  std::vector<std::uint8_t> max_tier_;   // device/plan ceiling (Technology)
  std::vector<std::uint16_t> idle_ticks_;  // ticks since last positive demand
  std::vector<double> demand_;    // demand offered to the scheduler
  std::vector<double> alloc_;     // scheduler output
  std::vector<double> avg_;       // served-rate EWMA (PF weight input)
  std::vector<double> backlog_bytes_;
  std::vector<std::uint32_t> cell_;  // dense cell index, kNoCell if none

  // ---- dense cell tables (size() == deployment cells) ----
  std::vector<const radio::CellSite*> cell_sites_;
  std::unordered_map<std::uint32_t, std::uint32_t> cell_index_by_id_;
  std::vector<double> model_cap_dl_;  // model-driven capacity per cell
  // Per-tick scheduling state, written in the cell phase (disjoint per cell).
  std::vector<std::uint32_t> cell_active_;  // members with demand > 0
  std::vector<double> cell_util_;           // allocated / capacity
  // Whole-run per-cell running sums.
  std::vector<std::int64_t> agg_ticks_;
  std::vector<double> agg_attached_;
  std::vector<double> agg_active_;
  std::vector<double> agg_demand_;
  std::vector<double> agg_alloc_;
  std::vector<double> agg_capacity_;
  std::vector<double> agg_fairness_;

  // Membership (counting sort by cell, rebuilt every tick).
  std::vector<std::uint32_t> members_;      // UE indices grouped by cell
  std::vector<std::uint32_t> cell_begin_;   // size cells+1, offsets into members_
  std::vector<std::uint32_t> count_scratch_;

  std::vector<SchedulerScratch> scheduler_scratch_;  // one per cell block
  std::vector<BlockStats> block_stats_;              // one per UE block

  std::int64_t tick_index_ = 0;
  Totals totals_;

  static constexpr std::uint32_t kNoCell = 0xffffffffu;
};

}  // namespace wheels::ran
