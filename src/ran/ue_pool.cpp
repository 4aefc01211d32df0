#include "ran/ue_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "radio/band_plan.hpp"

namespace wheels::ran {

namespace {

/// Per-profile traffic shape: mean downlink rate when a session is on, the
/// fraction of 30 s epochs that are on, and how many seconds of unserved
/// demand the UE will queue before dropping (browser tabs give up, players
/// rebuffer at lower rates).
struct ProfileShape {
  double mean_mbps;
  double duty;
  double backlog_seconds;
};

constexpr ProfileShape kProfileShapes[kUeProfileCount] = {
    /*Idle*/ {0.01, 0.10, 1.0},
    /*Web*/ {2.0, 0.35, 4.0},
    /*Audio*/ {0.3, 0.60, 8.0},
    /*Video*/ {8.0, 0.50, 6.0},
    /*Bulk*/ {40.0, 0.25, 10.0},
};

/// Population mix across the profiles (rough 2022 smartphone traffic split:
/// mostly idle/web, video dominating the byte count).
constexpr double kProfileWeights[kUeProfileCount] = {0.35, 0.30, 0.12, 0.18,
                                                     0.05};

/// Device/plan ceiling mix across technology tiers (LTE-only holdouts
/// through mmWave-capable flagships).
constexpr double kTierWeights[radio::kTechnologyCount] = {0.10, 0.25, 0.20,
                                                          0.30, 0.15};

/// Session epochs: traffic switches on/off at this granularity, so a UE's
/// demand pattern looks like bursts, not per-tick noise.
constexpr std::int64_t kEpochTicks = 60;  // 30 s at the 500 ms tick

/// Fraction of the aggregated PHY peak a loaded cell can actually deliver
/// (scheduling overhead, control channels, imperfect CQI).
constexpr double kCellEfficiency = 0.7;

/// Cells per task in the scheduling phase (cells are few; keep blocks small
/// enough that the fan-out still parallelises a 3-carrier deployment).
constexpr std::uint32_t kCellBlock = 16;

double bytes_per_mbps_tick(Millis tick) {
  return tick / kMillisPerSecond * 1e6 / kBitsPerByte;
}

}  // namespace

std::string_view ue_profile_name(UeProfile p) {
  switch (p) {
    case UeProfile::Idle: return "idle";
    case UeProfile::Web: return "web";
    case UeProfile::Audio: return "audio";
    case UeProfile::Video: return "video";
    case UeProfile::Bulk: return "bulk";
  }
  return "idle";
}

UePool::UePool(const radio::Deployment& deployment, Km route_length_km,
               const UePoolConfig& cfg, Rng rng)
    : deployment_(&deployment), cfg_(cfg), route_km_(route_length_km) {
  const std::uint32_t n = cfg_.count;
  km_.resize(n);
  vel_kmh_.resize(n);
  seed_.resize(n);
  profile_.resize(n);
  max_tier_.resize(n);
  idle_ticks_.assign(n, static_cast<std::uint16_t>(cfg_.rrc_idle_ticks));
  demand_.assign(n, 0.0);
  alloc_.assign(n, 0.0);
  avg_.assign(n, 0.0);
  backlog_bytes_.assign(n, 0.0);
  cell_.assign(n, kNoCell);

  const auto& cells = deployment.cells();
  cell_sites_.reserve(cells.size());
  for (const auto& cell : cells) {
    cell_index_by_id_.emplace(
        cell.id, static_cast<std::uint32_t>(cell_sites_.size()));
    cell_sites_.push_back(&cell);
    const auto plan = radio::band_plan(cell.carrier, cell.tech);
    model_cap_dl_.push_back(radio::cc_peak_rate(plan, true) * plan.max_cc_dl *
                            kCellEfficiency);
  }
  const std::size_t c = cell_sites_.size();
  cell_active_.assign(c, 0);
  cell_util_.assign(c, 0.0);
  agg_ticks_.assign(c, 0);
  agg_attached_.assign(c, 0.0);
  agg_active_.assign(c, 0.0);
  agg_demand_.assign(c, 0.0);
  agg_alloc_.assign(c, 0.0);
  agg_capacity_.assign(c, 0.0);
  agg_fairness_.assign(c, 0.0);
  cell_begin_.assign(c + 1, 0);
  count_scratch_.assign(c + 1, 0);
  members_.resize(n);
  scheduler_scratch_.resize(c == 0 ? 0 : (c + kCellBlock - 1) / kCellBlock);
  block_stats_.resize(
      cfg_.block == 0 || n == 0 ? 0 : (n + cfg_.block - 1) / cfg_.block);

  // All initial draws come from one serial pass over `rng`; per-tick
  // randomness never touches it again.
  Rng init = rng.fork("ue-pool-init");
  for (std::uint32_t i = 0; i < n; ++i) {
    km_[i] = route_km_ > 0.0 ? init.uniform(0.0, route_km_) : 0.0;
    // Roughly a third of the population is vehicular (the highway the route
    // follows); the rest moves at pedestrian/indoor speeds.
    if (init.bernoulli(0.35)) {
      vel_kmh_[i] = init.uniform(30.0, 110.0) * (init.bernoulli(0.5) ? 1 : -1);
    } else {
      vel_kmh_[i] = init.uniform(-4.0, 4.0);
    }
    seed_[i] = init.next_u64();
    profile_[i] = static_cast<UeProfile>(init.weighted_index(kProfileWeights));
    max_tier_[i] = static_cast<std::uint8_t>(init.weighted_index(kTierWeights));
  }
}

const radio::CellSite& UePool::cell_site(std::uint32_t cell_index) const {
  return *cell_sites_[cell_index];
}

void UePool::run_blocks(
    core::ThreadPool& pool, std::size_t n_items, std::size_t block,
    const std::function<void(std::uint32_t, std::uint32_t, std::uint32_t)>&
        fn) {
  const std::size_t n_blocks = (n_items + block - 1) / block;
  pool.run_indexed(n_blocks, [&](std::size_t b) {
    const auto begin = static_cast<std::uint32_t>(b * block);
    const auto end =
        static_cast<std::uint32_t>(std::min(n_items, (b + 1) * block));
    fn(static_cast<std::uint32_t>(b), begin, end);
  });
}

// Phase 1: per-UE state advance. Writes only slots [begin, end) of the UE
// arrays plus this block's stats entry — disjoint across tasks.
void UePool::update_ue_block(std::uint32_t begin, std::uint32_t end,
                             SimMillis /*t*/, BlockStats& stats) {
  const double km_per_tick_per_kmh =
      cfg_.tick / kMillisPerSecond / kSecondsPerHour;
  const std::int64_t epoch = tick_index_ / kEpochTicks;
  const double backlog_to_mbps = 1.0 / bytes_per_mbps_tick(cfg_.tick);

  for (std::uint32_t i = begin; i < end; ++i) {
    // Move, reflecting at the route ends so the population density stays
    // uniform along the corridor.
    if (route_km_ > 0.0) {
      double km = km_[i] + vel_kmh_[i] * km_per_tick_per_kmh;
      if (km < 0.0) {
        km = -km;
        vel_kmh_[i] = -vel_kmh_[i];
      } else if (km > route_km_) {
        km = 2.0 * route_km_ - km;
        vel_kmh_[i] = -vel_kmh_[i];
      }
      km_[i] = std::clamp(km, 0.0, route_km_);
    }

    // Counter-based draws: session on/off per 30 s epoch, rate jitter per
    // tick. No generator state — any thread may compute any UE's draw.
    const ProfileShape& shape =
        kProfileShapes[static_cast<std::size_t>(profile_[i])];
    const std::uint64_t seed = seed_[i];
    const bool session_on =
        u01(mix64(seed ^ (0x5e551007u + static_cast<std::uint64_t>(epoch) *
                                            0x9e3779b97f4a7c15ull))) <
        shape.duty;
    double fresh_mbps = 0.0;
    if (session_on) {
      const double jitter = 0.5 + u01(mix64(
          seed ^ (0x7ea512aBu + static_cast<std::uint64_t>(tick_index_) *
                                    0xbf58476d1ce4e5b9ull)));
      fresh_mbps = shape.mean_mbps * jitter;
    }
    demand_[i] = fresh_mbps + backlog_bytes_[i] * backlog_to_mbps;

    // Lightweight RRC: a UE with no demand for rrc_idle_ticks is released;
    // the next positive demand is a promotion (connection setup).
    if (demand_[i] > 0.0) {
      if (idle_ticks_[i] >= cfg_.rrc_idle_ticks) ++stats.rrc_promotions;
      idle_ticks_[i] = 0;
    } else if (idle_ticks_[i] < std::numeric_limits<std::uint16_t>::max()) {
      ++idle_ticks_[i];
    }

    // Attachment mirrors the paper's idle policy: released UEs camp on LTE;
    // connected UEs ride the best available tier their device supports.
    const radio::CellSite* site = nullptr;
    if (idle_ticks_[i] >= cfg_.rrc_idle_ticks) {
      site = deployment_->covering_cell(radio::Technology::Lte, km_[i]);
    } else {
      for (int tier = max_tier_[i]; tier >= 0 && site == nullptr; --tier) {
        site = deployment_->covering_cell(
            static_cast<radio::Technology>(tier), km_[i]);
      }
    }
    std::uint32_t new_cell = kNoCell;
    if (site != nullptr) {
      const auto it = cell_index_by_id_.find(site->id);
      if (it != cell_index_by_id_.end()) new_cell = it->second;
    }
    if (new_cell != cell_[i] && cell_[i] != kNoCell && new_cell != kNoCell) {
      ++stats.handovers;
    }
    cell_[i] = new_cell;
  }
}

// Phase 2 (coordinator only): counting sort of UEs into per-cell member
// groups. O(N + C), no allocation after the first tick.
void UePool::rebuild_members() {
  const std::size_t c = cell_sites_.size();
  std::fill(count_scratch_.begin(), count_scratch_.end(), 0u);
  for (std::uint32_t i = 0; i < cfg_.count; ++i) {
    if (cell_[i] != kNoCell) ++count_scratch_[cell_[i]];
  }
  std::uint32_t offset = 0;
  for (std::size_t cc = 0; cc < c; ++cc) {
    cell_begin_[cc] = offset;
    offset += count_scratch_[cc];
    count_scratch_[cc] = cell_begin_[cc];
  }
  cell_begin_[c] = offset;
  for (std::uint32_t i = 0; i < cfg_.count; ++i) {
    if (cell_[i] != kNoCell) members_[count_scratch_[cell_[i]]++] = i;
  }
}

// Phase 3: per-cell scheduling. Each cell's members, allocations and
// aggregate slots are written by exactly one task (cells are partitioned by
// block), so writes stay disjoint even though `alloc_` is shared.
void UePool::schedule_cell_block(std::uint32_t begin, std::uint32_t end,
                                 SchedulerScratch& scratch) {
  for (std::uint32_t c = begin; c < end; ++c) {
    const std::uint32_t m_begin = cell_begin_[c];
    const std::uint32_t m_end = cell_begin_[c + 1];
    cell_active_[c] = 0;
    cell_util_[c] = 0.0;
    if (m_begin == m_end) continue;

    const std::span<const std::uint32_t> members(members_.data() + m_begin,
                                                 m_end - m_begin);
    const Mbps capacity = model_cap_dl_[c];
    schedule_cell(cfg_.scheduler, capacity, members, demand_, avg_, alloc_,
                  scratch);

    double demand_sum = 0.0;
    double alloc_sum = 0.0;
    std::uint32_t active = 0;
    for (const std::uint32_t ue : members) {
      demand_sum += demand_[ue];
      alloc_sum += alloc_[ue];
      if (demand_[ue] > 0.0) ++active;
    }
    cell_active_[c] = active;
    cell_util_[c] = capacity > 0.0 ? std::min(alloc_sum / capacity, 1.0) : 1.0;

    ++agg_ticks_[c];
    agg_attached_[c] += static_cast<double>(members.size());
    agg_active_[c] += static_cast<double>(active);
    agg_demand_[c] += demand_sum;
    agg_alloc_[c] += alloc_sum;
    agg_capacity_[c] += capacity;
    // Fairness over this tick's allocations; scratch.weight is free again.
    scratch.weight.clear();
    for (const std::uint32_t ue : members) {
      if (demand_[ue] > 0.0) scratch.weight.push_back(alloc_[ue]);
    }
    agg_fairness_[c] += jain_fairness(scratch.weight);
  }
}

// Phase 4: fold allocations back into per-UE state. Disjoint UE slots plus
// this block's stats entry.
void UePool::apply_block(std::uint32_t begin, std::uint32_t end,
                         BlockStats& stats) {
  const double bytes_per_tick = bytes_per_mbps_tick(cfg_.tick);
  for (std::uint32_t i = begin; i < end; ++i) {
    const double alloc = cell_[i] == kNoCell ? 0.0 : alloc_[i];
    if (cell_[i] == kNoCell) alloc_[i] = 0.0;
    const double demand = demand_[i];
    if (demand > 0.0) ++stats.active_ue_ticks;
    stats.delivered_bytes += alloc * bytes_per_tick;

    const ProfileShape& shape =
        kProfileShapes[static_cast<std::size_t>(profile_[i])];
    const double unmet = std::max(demand - alloc, 0.0);
    const double cap_bytes = shape.mean_mbps * shape.backlog_seconds *
                             kMillisPerSecond / cfg_.tick * bytes_per_tick;
    backlog_bytes_[i] = std::min(unmet * bytes_per_tick, cap_bytes);

    avg_[i] = (1.0 - cfg_.ewma_alpha) * avg_[i] + cfg_.ewma_alpha * alloc;
  }
}

void UePool::tick(SimMillis t, core::ThreadPool& pool) {
  if (cfg_.count == 0) {
    ++tick_index_;
    return;
  }

  for (auto& s : block_stats_) s = BlockStats{};

  run_blocks(pool, cfg_.count, cfg_.block,
             [this, t](std::uint32_t b, std::uint32_t begin,
                       std::uint32_t end) {
               update_ue_block(begin, end, t, block_stats_[b]);
             });

  rebuild_members();

  run_blocks(pool, cell_sites_.size(), kCellBlock,
             [this](std::uint32_t b, std::uint32_t begin, std::uint32_t end) {
               schedule_cell_block(begin, end, scheduler_scratch_[b]);
             });

  run_blocks(pool, cfg_.count, cfg_.block,
             [this](std::uint32_t b, std::uint32_t begin, std::uint32_t end) {
               apply_block(begin, end, block_stats_[b]);
             });

  // Merge block reductions in block order — the other half of the
  // determinism contract (completion order never feeds a sum).
  for (const BlockStats& s : block_stats_) {
    totals_.delivered_bytes += s.delivered_bytes;
    totals_.handovers += s.handovers;
    totals_.rrc_promotions += s.rrc_promotions;
    totals_.active_ue_ticks += s.active_ue_ticks;
  }
  ++tick_index_;
}

double UePool::population_share(std::uint32_t cell_id) const {
  const auto it = cell_index_by_id_.find(cell_id);
  if (it == cell_index_by_id_.end()) return 1.0;
  const std::uint32_t c = it->second;
  const std::uint32_t active = cell_active_[c];
  if (active == 0) return 1.0;
  // One more PF user joining `active` others gets ~1/(n+1) of the cell —
  // unless the cell has idle headroom, in which case the headroom wins.
  const double pf_share = 1.0 / static_cast<double>(active + 1);
  const double headroom = std::max(1.0 - cell_util_[c], 0.0);
  return std::clamp(std::max(pf_share, headroom), 0.0, 1.0);
}

std::vector<CellLoadSummary> UePool::cell_load() const {
  std::vector<CellLoadSummary> out;
  for (std::size_t c = 0; c < cell_sites_.size(); ++c) {
    if (agg_ticks_[c] == 0) continue;
    const double ticks = static_cast<double>(agg_ticks_[c]);
    CellLoadSummary s;
    s.cell_id = cell_sites_[c]->id;
    s.tech = cell_sites_[c]->tech;
    s.ticks = agg_ticks_[c];
    s.avg_attached = agg_attached_[c] / ticks;
    s.avg_active = agg_active_[c] / ticks;
    s.avg_demand = agg_demand_[c] / ticks;
    s.avg_allocated = agg_alloc_[c] / ticks;
    s.avg_capacity = agg_capacity_[c] / ticks;
    s.utilization =
        s.avg_capacity > 0.0 ? std::min(s.avg_allocated / s.avg_capacity, 1.0)
                             : 0.0;
    s.fairness = agg_fairness_[c] / ticks;
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const CellLoadSummary& a, const CellLoadSummary& b) {
              return a.cell_id < b.cell_id;
            });
  return out;
}

}  // namespace wheels::ran
