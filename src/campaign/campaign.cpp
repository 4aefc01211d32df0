#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/link_trace.hpp"
#include "campaign/app_session.hpp"
#include "core/env.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"
#include "geo/drive_trace.hpp"
#include "measure/csv_export.hpp"
#include "geo/scaled_route.hpp"
#include "measure/log_sync.hpp"
#include "measure/logfile.hpp"
#include "measure/passive_logger.hpp"
#include "measure/shard.hpp"
#include "net/latency.hpp"
#include "net/server.hpp"
#include "ran/rrc.hpp"
#include "ran/session.hpp"
#include "ran/ue_pool.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels::campaign {

using apps::LinkTrace;
using geo::DriveSample;
using measure::ConsolidatedDb;
using measure::KpiRecord;
using measure::TestRecord;
using measure::TestType;
using radio::Carrier;
using radio::Direction;
using ran::TrafficProfile;

int CampaignConfig::app_ticks(TestType type) const {
  switch (type) {
    case TestType::ArApp:
    case TestType::CavApp:
      return offload_ticks;
    case TestType::Video:
      return video_ticks;
    case TestType::Gaming:
      return gaming_ticks;
    default:
      return 0;
  }
}

CampaignConfig config_from_env(double default_scale) {
  CampaignConfig cfg;
  cfg.scale = default_scale;
  if (const auto v = core::env_double("WHEELS_SCALE")) {
    if (*v > 0.0 && *v <= 1.0) {
      cfg.scale = *v;
    } else {
      core::ignore_env("WHEELS_SCALE", "(0, 1]");
    }
  }
  if (const auto v = core::env_int("WHEELS_SEED")) {
    if (*v >= 0) {
      cfg.seed = static_cast<std::uint64_t>(*v);
    } else {
      core::ignore_env("WHEELS_SEED", ">= 0");
    }
  }
  // resolve_threads re-reads WHEELS_THREADS when cfg.threads stays 0; going
  // through it here keeps the two readers' validation identical.
  cfg.threads = 0;
  if (const auto v = core::env_int("WHEELS_UES")) {
    if (*v >= 0 && *v <= std::numeric_limits<int>::max()) {
      cfg.population = static_cast<int>(*v);
    } else {
      core::ignore_env("WHEELS_UES", "0..2147483647");
    }
  }
  if (const char* v = std::getenv("WHEELS_SCHEDULER")) {
    if (const auto kind = ran::parse_scheduler_kind(v)) {
      cfg.scheduler = *kind;
    } else {
      core::ignore_env("WHEELS_SCHEDULER", "pf|rr");
    }
  }
  return cfg;
}

core::obs::RunManifest make_manifest(const CampaignConfig& cfg) {
  core::obs::RunManifest m = core::obs::make_run_manifest();
  m.seed = cfg.seed;
  m.scale = cfg.scale;
  m.threads = core::resolve_threads(cfg.threads);
  // Canonical rendering of every field that influences the produced data.
  // Doubles use %.17g so distinct configs never collide on formatting.
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "seed=%llu;scale=%.17g;apps=%d;stride=%d;static=%d;idle=%d;"
      "dep=%.17g,%.17g,%.17g;ticks=%d,%d,%d,%d,%d",
      static_cast<unsigned long long>(cfg.seed), cfg.scale,
      cfg.run_apps ? 1 : 0, cfg.long_app_stride, cfg.run_static ? 1 : 0,
      cfg.idle_ticks_between_cycles, cfg.deployment.low_multiplier,
      cfg.deployment.mid_multiplier, cfg.deployment.mmwave_multiplier,
      cfg.bulk_ticks, cfg.rtt_ticks, cfg.offload_ticks, cfg.video_ticks,
      cfg.gaming_ticks);
  std::string canonical{buf};
  // Population fields join the digest only when a population exists, so
  // every pre-population bundle (and the committed golden expectations)
  // keeps its digest.
  if (cfg.population > 0) {
    std::snprintf(buf, sizeof(buf), ";ues=%d;sched=%.8s", cfg.population,
                  std::string{ran::scheduler_kind_name(cfg.scheduler)}.c_str());
    canonical += buf;
  }
  m.config_digest = core::obs::hex64(core::obs::fnv1a64(canonical));
  return m;
}

namespace {

constexpr Millis kTick = 500.0;

struct CarrierContext {
  Carrier carrier;
  std::unique_ptr<radio::Deployment> deployment;
  std::unique_ptr<ran::RadioSession> session;
  std::unique_ptr<measure::PassiveLogger> passive;
  std::unique_ptr<net::RttProcess> rtt_process;
  std::unique_ptr<ran::RrcMachine> rrc;
  /// The carrier's share of the simulated background population; null when
  /// cfg.population == 0 (the six-handset paper campaign).
  std::unique_ptr<ran::UePool> ue_pool;
  measure::CoverageTracker active_coverage;
  /// The serving and anchor ids record_common inserted last into the
  /// carrier's db_.active_cells; a tick that repeats one (nearly every
  /// tick) skips its insert. Cell ids start at 1, so 0 means none yet.
  std::uint32_t last_cell_id = 0;
  std::uint32_t last_anchor_id = 0;
  Rng rng{0};
  /// Thread-private record sink; drained into the db after every fan-out.
  measure::RecordShard shard;
};

// The campaign is executed as a sequence of *segments* (one bulk transfer,
// one ping test, one app collection, one static battery). For each segment
// the coordinator thread opens the test records and advances the shared
// drive trace, then fans the three carrier pipelines — computationally
// independent by construction — across the worker pool, and finally merges
// their record shards into the ConsolidatedDb in canonical carrier order.
// With threads=1 the identical per-carrier closures run inline in carrier
// order, which is why the parallel database is byte-identical to the serial
// one (the determinism gate in test_campaign_parallel.cpp).
class CampaignRunner {
 public:
  CampaignRunner(const CampaignConfig& cfg)
      : cfg_(cfg),
        root_(cfg.seed),
        route_(geo::Route::cross_country()),
        view_(route_, cfg.scale),
        fleet_(net::ServerFleet::standard(route_)),
        trace_gen_(route_, make_trace_config(cfg), root_.fork("trace")),
        // The carrier fan-out is kCarrierCount wide, but a UE population's
        // block fan-out (ran::UePool) is far wider and reuses this pool.
        pool_(cfg.population > 0 ? core::resolve_threads(cfg.threads)
                                 : std::min(core::resolve_threads(cfg.threads),
                                            radio::kCarrierCount)) {
    for (Carrier c : radio::kAllCarriers) {
      auto& ctx = contexts_[measure::carrier_index(c)];
      ctx.carrier = c;
      Rng crng = root_.fork(radio::carrier_name(c));
      ctx.deployment = std::make_unique<radio::Deployment>(
          view_, c, crng.fork("deployment"), cfg.deployment);
      ctx.session = std::make_unique<ran::RadioSession>(
          *ctx.deployment, TrafficProfile::BackloggedDownlink,
          crng.fork("active-session"));
      ctx.passive = std::make_unique<measure::PassiveLogger>(
          *ctx.deployment, cfg.scale, crng.fork("passive"));
      ctx.rtt_process = std::make_unique<net::RttProcess>(
          c, crng.fork("rtt-process"));
      ctx.rrc = std::make_unique<ran::RrcMachine>(crng.fork("rrc"));
      if (cfg.population > 0) {
        // Remainder UEs land on the first carriers in canonical order.
        const std::size_t ci = measure::carrier_index(c);
        const int base = cfg.population / radio::kCarrierCount;
        const int extra =
            static_cast<std::size_t>(cfg.population % radio::kCarrierCount) >
                    ci
                ? 1
                : 0;
        ran::UePoolConfig pc;
        pc.count = static_cast<std::uint32_t>(base + extra);
        pc.scheduler = cfg.scheduler;
        pc.tick = kTick;
        ctx.ue_pool = std::make_unique<ran::UePool>(
            *ctx.deployment, view_.total_physical_km(), pc,
            crng.fork("ue-pool"));
      }
      ctx.rng = crng.fork("tests");
    }
    advance();  // prime the cursor
  }

  ConsolidatedDb run() {
    core::obs::ScopedSpan span{"campaign.run", "campaign"};
    while (current_.has_value()) {
      run_cycle();
      for (int i = 0; i < cfg_.idle_ticks_between_cycles && current_; ++i) {
        advance();
      }
      ++cycle_;
    }
    finalize();
    return std::move(db_);
  }

 private:
  static geo::DriveTraceConfig make_trace_config(const CampaignConfig& cfg) {
    geo::DriveTraceConfig tc;
    tc.scale = cfg.scale;
    return tc;
  }

  /// Advance the van by one tick. The sample joins the passive backlog
  /// (flushed to the per-carrier passive loggers at the next fan-out) and
  /// first arrivals in a city queue a static battery for the next segment
  /// boundary.
  void advance() {
    current_ = trace_gen_.next();
    if (!current_) return;
    pending_passive_.push_back(*current_);
    last_t_ = current_->t;
    db_.driven_km = current_->km;

    if (cfg_.run_static) {
      const geo::RoutePoint p = view_.at_physical(current_->km);
      if (p.region == geo::RegionType::Urban &&
          !visited_city_[p.nearest_city]) {
        visited_city_[p.nearest_city] = true;
        pending_cities_.push_back(p.nearest_city);
      }
    }
  }

  /// Consume up to `max_ticks` trace samples for one segment.
  std::vector<DriveSample> take_ticks(int max_ticks) {
    std::vector<DriveSample> ticks;
    ticks.reserve(static_cast<std::size_t>(std::max(max_ticks, 0)));
    for (int i = 0; i < max_ticks && current_; ++i) {
      ticks.push_back(*current_);
      advance();
    }
    return ticks;
  }

  /// Fan `fn(ctx)` across the carriers (inline in carrier order on a
  /// 1-wide pool), then merge every carrier's shard into the db in
  /// canonical carrier order. Each job first flushes the pending passive
  /// backlog to its carrier's passive logger, so passive logs see every
  /// sample exactly once, in production order.
  template <typename Fn>
  void parallel_carriers(Fn&& fn) {
    const std::vector<DriveSample> backlog = std::move(pending_passive_);
    pending_passive_.clear();
    // The UE pools advance on the coordinator, one pool at a time, each tick
    // fanning its UE blocks across the full pool — run_indexed admits one
    // batch at a time, so the population tick must not nest inside the
    // carrier fan-out below. The measurement phones therefore see the
    // population's contention frozen at segment granularity (documented in
    // docs/SCALING.md).
    if (cfg_.population > 0) {
      for (const DriveSample& s : backlog) {
        for (auto& ctx : contexts_) ctx.ue_pool->tick(s.t, pool_);
      }
    }
    auto work = [&](CarrierContext& ctx) {
      for (const DriveSample& s : backlog) ctx.passive->tick(s);
      fn(ctx);
    };
    // A 1-wide pool runs the jobs inline in index (= carrier) order, so one
    // code path serves both modes — and the pool's deterministic counters
    // (pool.batches, pool.tasks_run) see the same batches whatever the
    // thread count.
    pool_.run_indexed(contexts_.size(),
                      [&](std::size_t i) { work(contexts_[i]); });
    for (auto& ctx : contexts_) {
      measure::merge_shard_into(db_, ctx.shard);
    }
  }

  /// Run the static batteries queued by advance(). Called at segment
  /// boundaries so a battery (itself a parallel fan-out) never interleaves
  /// with a moving test's tick loop.
  void drain_pending_cities() {
    while (!pending_cities_.empty()) {
      const std::size_t city = pending_cities_.front();
      pending_cities_.pop_front();
      run_static_battery(city);
    }
  }

  void run_cycle() {
    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId cycles = reg.counter_id("campaign.cycles");
    reg.add(cycles);
    drain_pending_cities();
    run_bulk(Direction::Downlink);
    run_bulk(Direction::Uplink);
    run_rtt();
    if (cfg_.run_apps) {
      for (const TestType type : {TestType::ArApp, TestType::CavApp}) {
        run_app_test(type, false);
        run_app_test(type, true);
      }
      if (cycle_ % cfg_.long_app_stride == 0) {
        run_app_test(TestType::Video, false);
        run_app_test(TestType::Gaming, false);
      }
    }
  }

  KpiRecord make_kpi(CarrierContext& ctx, const ran::RadioTick& tick,
                     const DriveSample& s, std::uint32_t test_id,
                     Direction dir, net::ServerKind server,
                     bool is_static) const {
    KpiRecord k;
    k.test_id = test_id;
    k.t = s.t;
    k.carrier = ctx.carrier;
    k.tech = tick.tech;
    k.cell_id = tick.cell_id;
    // XCAL logs instantaneous modem snapshots, not 500 ms averages: the
    // logged KPI carries measurement noise on top of the channel state (one
    // reason the paper's KPI-vs-throughput correlations are weak, Table 2).
    k.rsrp = tick.kpis.rsrp + ctx.rng.normal(0.0, 3.5);
    k.mcs = std::clamp(
        tick.kpis.mcs(dir) +
            static_cast<int>(std::lround(ctx.rng.normal(0.0, 2.2))),
        0, 28);
    k.bler = std::clamp(tick.kpis.bler(dir) + ctx.rng.normal(0.0, 0.06),
                        0.0, 1.0);
    k.ca = tick.kpis.cc(dir);
    k.speed = s.speed;
    k.km = s.km;
    k.map_km = s.km / cfg_.scale;
    k.tz = s.tz;
    k.region = s.region;
    k.handovers = static_cast<int>(tick.handovers.size());
    k.server = server;
    k.direction = dir;
    k.is_static = is_static;
    return k;
  }

  TestRecord open_test(TestType type, Carrier carrier, net::ServerKind server,
                       Direction dir, bool is_static) {
    TestRecord t;
    t.id = next_test_id_++;
    t.type = type;
    t.carrier = carrier;
    t.is_static = is_static;
    t.server = server;
    t.direction = dir;
    t.cycle = is_static ? -1 : cycle_;
    if (current_) {
      t.start = current_->t;
      t.start_km = current_->km;
      t.tz = current_->tz;
    }
    return t;
  }

  void close_test(TestRecord t, Millis duration) {
    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId tests = reg.counter_id("campaign.tests");
    reg.add(tests);
    if (current_) {
      t.end = current_->t;
      t.end_km = current_->km;
    } else {
      t.end = t.start + static_cast<SimMillis>(duration);
      t.end_km = db_.driven_km;
    }
    db_.experiment_runtime[measure::carrier_index(t.carrier)] += duration;
    db_.tests.push_back(t);
  }

  /// One 30 s nuttcp bulk transfer on all three phones concurrently, routed
  /// through the .drm + app-log + LogSynchronizer pipeline.
  void run_bulk(Direction dir) {
    if (!current_) return;
    core::obs::ScopedSpan span{dir == Direction::Downlink
                                   ? "campaign.bulk_dl"
                                   : "campaign.bulk_ul",
                               "campaign"};
    const TrafficProfile traffic = dir == Direction::Downlink
                                       ? TrafficProfile::BackloggedDownlink
                                       : TrafficProfile::BackloggedUplink;

    struct BulkState {
      TestRecord test;
      const net::Server* server = nullptr;
      std::unique_ptr<transport::TcpBulkFlow> flow;
      measure::XcalLogger xcal;
      measure::AppLogger applog;
    };
    std::array<std::optional<BulkState>, radio::kCarrierCount> states;

    const geo::RoutePoint start_pt = view_.at_physical(current_->km);
    const int local_offset = geo::utc_offset_minutes(current_->tz);
    for (auto& ctx : contexts_) {
      ctx.session->set_traffic(traffic);
      const net::Server& server =
          fleet_.select(ctx.carrier, route_, route_.at(start_pt.km));
      BulkState st{
          open_test(dir == Direction::Downlink ? TestType::DownlinkBulk
                                               : TestType::UplinkBulk,
                    ctx.carrier, server.kind, dir, false),
          &server,
          std::make_unique<transport::TcpBulkFlow>(
              net::base_rtt(ctx.carrier, ctx.session->current_tech(), server,
                            start_pt.pos),
              ctx.rng.fork("bulk", next_test_id_)),
          measure::XcalLogger{ctx.carrier, unix_from_sim(current_->t),
                              local_offset},
          measure::AppLogger{"nuttcp", measure::TimestampPolicy::Utc, 0}};
      states[measure::carrier_index(ctx.carrier)].emplace(std::move(st));
    }

    const std::vector<DriveSample> ticks = take_ticks(cfg_.bulk_ticks);

    parallel_carriers([&](CarrierContext& ctx) {
      BulkState& st = *states[measure::carrier_index(ctx.carrier)];
      for (const DriveSample& s : ticks) {
        (void)ctx.rrc->on_traffic(s.t);
        const ran::RadioTick tick = ctx.session->tick(s, kTick);
        st.flow->set_base_rtt(net::base_rtt(ctx.carrier, tick.tech,
                                            *st.server, s.pos));
        Mbps cap = tick.kpis.capacity(dir);
        // The simulated population contends for the same cell: the phone
        // keeps only its scheduler share of the downlink (uplink demand is
        // not modelled by the population).
        if (ctx.ue_pool && dir == Direction::Downlink) {
          cap *= ctx.ue_pool->population_share(tick.cell_id);
        }
        const double bytes = st.flow->advance(cap, kTick);
        const Mbps mbps = bytes * 8.0 / 1e6 / (kTick / 1000.0);

        const UnixMillis now = unix_from_sim(s.t);
        st.xcal.log(now, make_kpi(ctx, tick, s, st.test.id, dir,
                                  st.server->kind, false));
        st.applog.log(now, mbps);

        record_common(ctx, tick, s, st.test.id, dir);
        if (dir == Direction::Downlink) {
          ctx.shard.rx_bytes += bytes;
        } else {
          ctx.shard.tx_bytes += bytes;
        }
      }
      auto joined = measure::LogSynchronizer::join(
          std::move(st.xcal).finish(), std::move(st.applog).finish());
      ctx.shard.kpis.insert(ctx.shard.kpis.end(), joined.begin(),
                            joined.end());
    });

    for (auto& ctx : contexts_) {
      close_test(states[measure::carrier_index(ctx.carrier)]->test,
                 static_cast<Millis>(ticks.size()) * kTick);
    }
    drain_pending_cities();
  }

  /// 20 s of 200 ms pings on all three phones.
  void run_rtt() {
    if (!current_) return;
    core::obs::ScopedSpan span{"campaign.rtt", "campaign"};
    struct RttState {
      TestRecord test;
      const net::Server* server = nullptr;
      measure::AppLogger applog;
      std::vector<std::pair<radio::Technology, MilesPerHour>> tick_info;
      SimMillis start = 0;
    };
    std::array<std::optional<RttState>, radio::kCarrierCount> states;

    const geo::RoutePoint start_pt = view_.at_physical(current_->km);
    const int local_offset = geo::utc_offset_minutes(current_->tz);
    for (auto& ctx : contexts_) {
      ctx.session->set_traffic(TrafficProfile::IdlePing);
      const net::Server& server =
          fleet_.select(ctx.carrier, route_, route_.at(start_pt.km));
      states[measure::carrier_index(ctx.carrier)].emplace(RttState{
          open_test(TestType::Rtt, ctx.carrier, server.kind,
                    Direction::Downlink, false),
          &server,
          measure::AppLogger{"ping", measure::TimestampPolicy::LocalTime,
                             local_offset},
          {},
          current_->t});
    }

    const std::vector<DriveSample> ticks = take_ticks(cfg_.rtt_ticks);

    parallel_carriers([&](CarrierContext& ctx) {
      RttState& st = *states[measure::carrier_index(ctx.carrier)];
      // The ping schedule is shared by the three phones (one van, one
      // clock); every worker replays the identical offsets.
      Millis next_ping = 0.0;
      for (std::size_t i = 0; i < ticks.size(); ++i) {
        const DriveSample& s = ticks[i];
        const Millis tick_start = static_cast<Millis>(i) * kTick;
        const ran::RadioTick tick = ctx.session->tick(s, kTick);
        st.tick_info.emplace_back(tick.tech, s.speed);
        record_common(ctx, tick, s, st.test.id, Direction::Downlink);

        for (Millis p = next_ping; p < tick_start + kTick; p += 200.0) {
          Millis interruption =
              tick.interruption > 0.0 && p == next_ping ? tick.interruption
                                                        : 0.0;
          // An idle radio pays the RRC idle->connected promotion on the
          // first echo (why the paper's logger pings every 200 ms).
          interruption +=
              ctx.rrc->on_traffic(st.start + static_cast<SimMillis>(p));
          const Millis rtt = ctx.rtt_process->sample(
              tick.tech, *st.server, s.pos, s.speed, 0.0, interruption);
          st.applog.log(unix_from_sim(st.start) +
                            static_cast<UnixMillis>(p),
                        rtt);
        }
        while (next_ping < tick_start + kTick) next_ping += 200.0;
      }

      const auto series = measure::LogSynchronizer::normalize_series(
          std::move(st.applog).finish());
      for (const auto& [t, value] : series) {
        const auto idx = static_cast<std::size_t>(
            std::clamp<SimMillis>((t - st.start) / static_cast<SimMillis>(kTick),
                                  0,
                                  static_cast<SimMillis>(st.tick_info.size()) - 1));
        measure::RttRecord r;
        r.test_id = st.test.id;
        r.t = t;
        r.carrier = ctx.carrier;
        r.tech = st.tick_info[idx].first;
        r.rtt = value;
        r.speed = st.tick_info[idx].second;
        r.tz = st.test.tz;
        r.server = st.test.server;
        r.is_static = false;
        ctx.shard.rtts.push_back(r);
      }
    });

    for (auto& ctx : contexts_) {
      close_test(states[measure::carrier_index(ctx.carrier)]->test,
                 static_cast<Millis>(ticks.size()) * kTick);
    }
    drain_pending_cities();
  }

  static const char* app_span_name(TestType type) {
    switch (type) {
      case TestType::ArApp:
        return "campaign.offload_ar";
      case TestType::CavApp:
        return "campaign.offload_cav";
      case TestType::Video:
        return "campaign.video";
      default:
        return "campaign.gaming";
    }
  }

  /// One app test on all three phones: a lockstep collection of each
  /// carrier's link trace, then the app session over it.
  void run_app_test(TestType type, bool compressed) {
    if (!current_) return;
    core::obs::ScopedSpan span{app_span_name(type), "campaign"};
    const int n_ticks = cfg_.app_ticks(type);
    // Offload apps upload frames; video and gaming stream down.
    const Direction dir =
        type == TestType::ArApp || type == TestType::CavApp
            ? Direction::Uplink
            : Direction::Downlink;

    std::array<const net::Server*, radio::kCarrierCount> servers{};
    std::array<TestRecord, radio::kCarrierCount> tests;
    const geo::RoutePoint pt = view_.at_physical(current_->km);
    for (auto& ctx : contexts_) {
      const std::size_t ci = measure::carrier_index(ctx.carrier);
      servers[ci] = &fleet_.select(ctx.carrier, route_, route_.at(pt.km));
      tests[ci] = open_test(type, ctx.carrier, servers[ci]->kind, dir, false);
    }

    const std::vector<DriveSample> ticks = take_ticks(n_ticks);

    parallel_carriers([&](CarrierContext& ctx) {
      const std::size_t ci = measure::carrier_index(ctx.carrier);
      const TestRecord& test = tests[ci];
      LinkTrace trace;
      ctx.session->set_traffic(TrafficProfile::Interactive);
      for (const DriveSample& s : ticks) {
        (void)ctx.rrc->on_traffic(s.t);
        const ran::RadioTick tick = ctx.session->tick(s, kTick);
        push_link_tick(ctx, tick, *servers[ci], s, test.id, trace);
        record_common(ctx, tick, s, test.id, Direction::Uplink);
      }
      push_app_session(ctx, test, trace, compressed);
    });

    for (auto& ctx : contexts_) {
      close_test(tests[measure::carrier_index(ctx.carrier)], n_ticks * kTick);
    }
    drain_pending_cities();
  }

  /// Append the link an app session sees this tick to `trace` — capacity
  /// (the phone's population share of the downlink), a fresh path-RTT
  /// sample at `s`, the tick's handovers — and record it, keyed by test, in
  /// link_ticks. The record is pure observation: it draws no randomness the
  /// app does not and perturbs no other table.
  static void push_link_tick(CarrierContext& ctx, const ran::RadioTick& tick,
                             const net::Server& server, const DriveSample& s,
                             std::uint32_t test_id, LinkTrace& trace) {
    measure::LinkTickRecord& rec = ctx.shard.link_ticks.emplace_back();
    rec.test_id = test_id;
    rec.t = s.t;
    rec.carrier = ctx.carrier;
    rec.cap_dl = tick.kpis.capacity_dl;
    if (ctx.ue_pool) {
      rec.cap_dl *= ctx.ue_pool->population_share(tick.cell_id);
    }
    rec.cap_ul = tick.kpis.capacity_ul;
    rec.rtt = ctx.rtt_process->sample(tick.tech, server, s.pos, s.speed, 0.0,
                                      0.0);
    rec.interruption = tick.interruption;
    rec.handovers = static_cast<int>(tick.handovers.size());
    rec.tech = tick.tech;
    trace.push_back(rec);
  }

  static void push_app_session(CarrierContext& ctx, const TestRecord& test,
                               const LinkTrace& trace, bool compressed) {
    const AppSession session = run_app_session(test, trace, compressed);
    ctx.shard.app_runs.push_back(session.run);
    ctx.shard.rx_bytes += session.rx_bytes;
    ctx.shard.tx_bytes += session.tx_bytes;
  }

  /// Handover records, coverage tracking, unique-cell bookkeeping shared by
  /// every active test tick. Runs on the carrier's worker: it touches only
  /// the carrier's shard, coverage tracker and the carrier's own slot of
  /// db_.active_cells.
  void record_common(CarrierContext& ctx, const ran::RadioTick& tick,
                     const DriveSample& s, std::uint32_t test_id,
                     Direction dir) {
    const std::size_t ci = measure::carrier_index(ctx.carrier);
    for (const auto& ho : tick.handovers) {
      ctx.shard.handovers.push_back({test_id, ctx.carrier, dir, ho});
    }
    ctx.active_coverage.observe(s.km / cfg_.scale, tick.tech);
    if (tick.cell_id != ctx.last_cell_id) {
      db_.active_cells[ci].insert(tick.cell_id);
      ctx.last_cell_id = tick.cell_id;
    }
    if (tick.anchor_cell_id != 0 &&
        tick.anchor_cell_id != ctx.last_anchor_id) {
      db_.active_cells[ci].insert(tick.anchor_cell_id);
      ctx.last_anchor_id = tick.anchor_cell_id;
    }
  }

  /// The per-carrier plan of one city's static battery: the session (absent
  /// when the carrier has no high-speed 5G site there, as in the paper) and
  /// the pre-opened test records in canonical per-carrier order.
  struct BatteryPlan {
    std::optional<ran::StaticSession> session;
    const net::Server* server = nullptr;
    std::vector<TestRecord> tests;
    std::vector<Millis> durations;
  };

  void run_static_battery(std::size_t city) {
    core::obs::ScopedSpan span{"campaign.static_battery", "campaign"};
    const Km city_km = view_.physical_city_km(city);
    const geo::RoutePoint city_pt = route_.at(route_.city_km(city));
    const SimMillis t0 = current_ ? current_->t : last_t_;

    std::array<BatteryPlan, radio::kCarrierCount> plans;
    for (auto& ctx : contexts_) {
      BatteryPlan& plan = plans[measure::carrier_index(ctx.carrier)];
      plan.session = ran::StaticSession::try_create(
          *ctx.deployment, city_km, 10.0, ctx.rng.fork("static", city));
      if (!plan.session.has_value()) continue;  // omitted, as in the paper
      plan.server = &fleet_.select(ctx.carrier, route_, city_pt);

      auto open_static = [&](TestType type, Direction dir, int n_ticks) {
        TestRecord t =
            open_test(type, ctx.carrier, plan.server->kind, dir, true);
        t.tz = city_pt.tz;
        t.start = t0;
        plan.tests.push_back(t);
        plan.durations.push_back(n_ticks * kTick);
      };
      open_static(TestType::DownlinkBulk, Direction::Downlink,
                  cfg_.bulk_ticks);
      open_static(TestType::UplinkBulk, Direction::Uplink, cfg_.bulk_ticks);
      open_static(TestType::Rtt, Direction::Downlink, cfg_.rtt_ticks);
      if (cfg_.run_apps) {
        open_static(TestType::ArApp, Direction::Uplink, cfg_.offload_ticks);
        open_static(TestType::ArApp, Direction::Uplink, cfg_.offload_ticks);
        open_static(TestType::CavApp, Direction::Uplink, cfg_.offload_ticks);
        open_static(TestType::CavApp, Direction::Uplink, cfg_.offload_ticks);
        open_static(TestType::Video, Direction::Downlink, cfg_.video_ticks);
        open_static(TestType::Gaming, Direction::Downlink,
                    cfg_.gaming_ticks);
      }
    }

    parallel_carriers([&](CarrierContext& ctx) {
      BatteryPlan& plan = plans[measure::carrier_index(ctx.carrier)];
      if (!plan.session.has_value()) return;
      run_static_battery_for(ctx, plan, city_pt, city, t0);
    });

    for (auto& ctx : contexts_) {
      BatteryPlan& plan = plans[measure::carrier_index(ctx.carrier)];
      for (std::size_t i = 0; i < plan.tests.size(); ++i) {
        close_test(plan.tests[i], plan.durations[i]);
      }
    }
  }

  /// One carrier's whole static battery, on that carrier's worker.
  void run_static_battery_for(CarrierContext& ctx, BatteryPlan& plan,
                              const geo::RoutePoint& city_pt,
                              std::size_t city, SimMillis t0) {
    ran::StaticSession& session = *plan.session;
    const net::Server& server = *plan.server;
    std::size_t ti = 0;  // cursor into plan.tests, in open order

    // Bulk transfers, both directions.
    for (const Direction dir :
         {Direction::Downlink, Direction::Uplink}) {
      const TestRecord& test = plan.tests[ti++];
      transport::TcpBulkFlow flow{
          net::base_rtt(ctx.carrier, session.tech(), server, city_pt.pos),
          ctx.rng.fork("static-bulk", city * 2 + (dir == Direction::Uplink))};
      for (int i = 0; i < cfg_.bulk_ticks; ++i) {
        const ran::RadioTick tick = session.tick(kTick);
        Mbps cap = tick.kpis.capacity(dir);
        if (ctx.ue_pool && dir == Direction::Downlink) {
          cap *= ctx.ue_pool->population_share(tick.cell_id);
        }
        const double bytes = flow.advance(cap, kTick);
        DriveSample fake;
        fake.t = t0 + static_cast<SimMillis>(i * kTick);
        fake.km = view_.physical_city_km(city);
        fake.pos = city_pt.pos;
        fake.speed = 0.0;
        fake.region = geo::RegionType::Urban;
        fake.tz = city_pt.tz;
        KpiRecord k = make_kpi(ctx, tick, fake, test.id, dir, server.kind,
                               true);
        k.throughput = bytes * 8.0 / 1e6 / (kTick / 1000.0);
        ctx.shard.kpis.push_back(k);
      }
    }

    // Ping test.
    {
      const TestRecord& test = plan.tests[ti++];
      for (int i = 0; i < cfg_.rtt_ticks; ++i) {
        const ran::RadioTick tick = session.tick(kTick);
        const int pings = i % 2 == 0 ? 2 : 3;
        for (int p = 0; p < pings; ++p) {
          measure::RttRecord r;
          r.test_id = test.id;
          r.t = t0 + static_cast<SimMillis>(i * kTick) + p * 200;
          r.carrier = ctx.carrier;
          r.tech = tick.tech;
          r.rtt = ctx.rtt_process->sample(tick.tech, server, city_pt.pos,
                                          0.0, 0.0, 0.0);
          r.speed = 0.0;
          r.tz = city_pt.tz;
          r.server = server.kind;
          r.is_static = true;
          ctx.shard.rtts.push_back(r);
        }
      }
    }

    if (!cfg_.run_apps) return;

    // A static app session samples the best site's link from the city.
    DriveSample at;
    at.pos = city_pt.pos;
    // The app tests in open order: AR and CAV each uncompressed, then
    // compressed; video and gaming ignore the flag.
    for (const bool compressed : {false, true, false, true, false, false}) {
      const TestRecord& test = plan.tests[ti++];
      LinkTrace trace;
      for (int i = 0; i < cfg_.app_ticks(test.type); ++i) {
        at.t = t0 + static_cast<SimMillis>(i * kTick);
        push_link_tick(ctx, session.tick(kTick), server, at, test.id, trace);
      }
      push_app_session(ctx, test, trace, compressed);
    }
  }

  void finalize() {
    drain_pending_cities();
    if (!pending_passive_.empty()) {
      // Trailing idle ticks produced samples after the last fan-out; flush
      // them to the passive loggers.
      parallel_carriers([](CarrierContext&) {});
    }
    for (auto& ctx : contexts_) {
      const std::size_t ci = measure::carrier_index(ctx.carrier);
      db_.passive[ci] = std::move(*ctx.passive).finish();
      db_.active_coverage[ci] = std::move(ctx.active_coverage).finish();
    }
    // Drain the population's per-cell aggregates in canonical carrier order
    // (cell_load() is sorted by cell id within each carrier).
    for (auto& ctx : contexts_) {
      if (!ctx.ue_pool) continue;
      for (const ran::CellLoadSummary& s : ctx.ue_pool->cell_load()) {
        measure::CellLoadRecord r;
        r.carrier = ctx.carrier;
        r.cell_id = s.cell_id;
        r.tech = s.tech;
        r.ticks = s.ticks;
        r.avg_attached = s.avg_attached;
        r.avg_active = s.avg_active;
        r.avg_demand = s.avg_demand;
        r.avg_allocated = s.avg_allocated;
        r.avg_capacity = s.avg_capacity;
        r.utilization = s.utilization;
        r.fairness = s.fairness;
        db_.cell_load.push_back(r);
      }
    }
  }

  CampaignConfig cfg_;
  Rng root_;
  geo::Route route_;
  geo::ScaledRoute view_;
  net::ServerFleet fleet_;
  geo::DriveTraceGenerator trace_gen_;
  std::array<CarrierContext, radio::kCarrierCount> contexts_;
  std::optional<DriveSample> current_;
  ConsolidatedDb db_;
  std::uint32_t next_test_id_ = 1;
  int cycle_ = 0;
  std::array<bool, 16> visited_city_{};
  /// Samples produced but not yet fed to the passive loggers.
  std::vector<DriveSample> pending_passive_;
  /// Cities reached but whose static battery has not run yet.
  std::deque<std::size_t> pending_cities_;
  SimMillis last_t_ = 0;
  core::ThreadPool pool_;
};

}  // namespace

ConsolidatedDb DriveCampaign::run() const {
  CampaignRunner runner{config_};
  return runner.run();
}

core::obs::RunManifest run_to_bundle(const CampaignConfig& cfg,
                                     const std::string& directory,
                                     bool canonical_provenance) {
  core::obs::RunManifest manifest = make_manifest(cfg);
  if (canonical_provenance) core::obs::canonicalize_provenance(manifest);
  const ConsolidatedDb db = DriveCampaign{cfg}.run();
  measure::write_dataset(db, directory, manifest);
  return manifest;
}

}  // namespace wheels::campaign
