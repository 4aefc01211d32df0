#include "replay/replay_campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/link_trace.hpp"
#include "campaign/app_session.hpp"
#include "campaign/campaign.hpp"
#include "core/env.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"
#include "geo/latlon.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/fleet.hpp"
#include "measure/shard.hpp"
#include "net/latency.hpp"
#include "radio/band_plan.hpp"

namespace wheels::replay {

using apps::LinkTrace;
using measure::ConsolidatedDb;
using measure::TestRecord;
using measure::TestType;
using radio::Carrier;
using radio::Direction;

ReplayConfig replay_config_from_env() {
  ReplayConfig cfg;
  if (const auto v = core::env_int("WHEELS_REPLAY_SEED")) {
    if (*v >= 0) {
      cfg.seed = static_cast<std::uint64_t>(*v);
    } else {
      std::fprintf(stderr,
                   "[wheels] ignoring WHEELS_REPLAY_SEED=%lld: expected >= 0\n",
                   *v);
    }
  }
  if (const char* v = std::getenv("WHEELS_REPLAY_INTERP")) {
    const std::string s{v};
    if (s == "hold") {
      cfg.policy = HoldPolicy::Hold;
    } else if (s == "linear") {
      cfg.policy = HoldPolicy::Interpolate;
    } else {
      std::fprintf(
          stderr,
          "[wheels] ignoring WHEELS_REPLAY_INTERP=%s: expected hold|linear\n",
          v);
    }
  }
  if (const char* v = std::getenv("WHEELS_REPLAY_CC")) {
    const std::string s{v};
    if (s == transport::cc_algo_name(transport::CcAlgo::Cubic)) {
      cfg.knobs.cc = transport::CcAlgo::Cubic;
    } else if (s == transport::cc_algo_name(transport::CcAlgo::Bbr)) {
      cfg.knobs.cc = transport::CcAlgo::Bbr;
    } else {
      std::fprintf(stderr,
                   "[wheels] ignoring WHEELS_REPLAY_CC=%s: expected cubic|bbr\n",
                   v);
    }
  }
  if (const char* v = std::getenv("WHEELS_REPLAY_SERVER")) {
    try {
      cfg.knobs.server = measure::names::parse_server_kind(v);
    } catch (const std::runtime_error&) {
      std::fprintf(
          stderr,
          "[wheels] ignoring WHEELS_REPLAY_SERVER=%s: expected cloud|edge\n",
          v);
    }
  }
  if (const char* v = std::getenv("WHEELS_REPLAY_MAX_TIER")) {
    try {
      cfg.knobs.max_tier = measure::names::parse_technology(v);
    } catch (const std::runtime_error&) {
      std::fprintf(stderr,
                   "[wheels] ignoring WHEELS_REPLAY_MAX_TIER=%s: expected a "
                   "technology name (LTE, 5G-mid, ...)\n",
                   v);
    }
  }
  cfg.threads = 0;
  return cfg;
}

namespace {

constexpr Millis kTick = 500.0;

/// Thread-private sink of one carrier's replayed records. Each record is
/// tagged with the index of the recorded row it re-creates, so the
/// coordinator can rebuild the recording's exact global row order (the
/// campaign interleaves carriers chronologically; a single end-of-run merge
/// in carrier order would not) — replayed tables line up row-for-row with
/// the recorded ones.
struct ReplayShard {
  std::vector<std::pair<std::size_t, measure::KpiRecord>> kpis;
  std::vector<std::pair<std::size_t, measure::RttRecord>> rtts;
  std::vector<std::pair<std::size_t, measure::HandoverRecord>> handovers;
  std::vector<std::pair<std::size_t, measure::AppRunRecord>> app_runs;
  std::vector<std::pair<std::size_t, measure::LinkTickRecord>> link_ticks;
  double rx_bytes = 0.0;
  double tx_bytes = 0.0;
};

/// Drain `shards` into `out`, restoring the recorded row order.
template <typename Record, typename Get>
void merge_ordered(std::array<ReplayShard, radio::kCarrierCount>& shards,
                   std::vector<Record>& out, Get get) {
  std::vector<std::pair<std::size_t, Record>> all;
  for (ReplayShard& shard : shards) {
    auto& rows = get(shard);
    all.insert(all.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
    rows.clear();
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  out.reserve(all.size());
  for (auto& [index, record] : all) out.push_back(std::move(record));
}

class ReplayRunner {
 public:
  ReplayRunner(const ReplayBundle& bundle, const ReplayConfig& cfg)
      : bundle_(bundle),
        cfg_(cfg),
        root_(cfg.seed),
        route_(geo::Route::cross_country()),
        fleet_(net::ServerFleet::standard(route_)),
        scale_(bundle.manifest.scale > 0.0 ? bundle.manifest.scale : 1.0) {
    const ConsolidatedDb& rec = bundle_.db;
    kpis_by_test_.reserve(rec.tests.size());
    for (const auto& k : rec.kpis) kpis_by_test_[k.test_id].push_back(&k);
    for (const auto& r : rec.rtts) rtts_by_test_[r.test_id].push_back(&r);
    for (const auto& h : rec.handovers) {
      handovers_by_test_[h.test_id].push_back(&h);
    }
    for (const auto& a : rec.app_runs) app_run_by_test_[a.test_id] = &a;
    for (const auto& l : rec.link_ticks) {
      link_ticks_by_test_[l.test_id].push_back(&l);
    }
  }

  ConsolidatedDb run() {
    core::obs::ScopedSpan span{"replay.run", "replay"};
    const ConsolidatedDb& rec = bundle_.db;

    // The radio world is fixed: geometry-derived state carries over.
    db_.driven_km = rec.driven_km;
    db_.passive = rec.passive;
    db_.active_coverage = rec.active_coverage;
    db_.active_cells = rec.active_cells;
    db_.experiment_runtime = rec.experiment_runtime;

    // Tests keep their recorded ids, order and windows; the server knob
    // rewrites which server class each test talks to.
    db_.tests = rec.tests;
    if (cfg_.knobs.server.has_value()) {
      for (auto& t : db_.tests) t.server = *cfg_.knobs.server;
    }

    // Bundles written before link_ticks.csv existed cannot replay app
    // sessions from their recorded per-tick traces; say so once, up front,
    // rather than silently degrading to the statistical timeline.
    if (rec.link_ticks.empty()) {
      for (const auto& t : rec.tests) {
        if (measure::app_kind_of(t.type).has_value()) {
          std::fprintf(stderr,
                       "[wheels] replay: bundle records no link_ticks.csv "
                       "(written before per-run traces); app sessions replay "
                       "from the statistical carrier timeline\n");
          break;
        }
      }
    }

    std::array<ReplayShard, radio::kCarrierCount> shards;
    core::run_indexed(
        std::min(core::resolve_threads(cfg_.threads), radio::kCarrierCount),
        radio::kCarrierCount, [&](std::size_t i) {
          const Carrier c = radio::kAllCarriers[i];
          replay_carrier(c, shards[measure::carrier_index(c)]);
        });
    merge_ordered(shards, db_.kpis, [](ReplayShard& s) -> auto& {
      return s.kpis;
    });
    merge_ordered(shards, db_.rtts, [](ReplayShard& s) -> auto& {
      return s.rtts;
    });
    merge_ordered(shards, db_.handovers, [](ReplayShard& s) -> auto& {
      return s.handovers;
    });
    merge_ordered(shards, db_.app_runs, [](ReplayShard& s) -> auto& {
      return s.app_runs;
    });
    merge_ordered(shards, db_.link_ticks, [](ReplayShard& s) -> auto& {
      return s.link_ticks;
    });
    // Byte counters sum in canonical carrier order — the same fixed
    // floating-point summation order for every thread count.
    for (const ReplayShard& shard : shards) {
      db_.rx_bytes += shard.rx_bytes;
      db_.tx_bytes += shard.tx_bytes;
    }
    return std::move(db_);
  }

 private:
  /// The server a test of the given class talks to at `pos`. Clouds follow
  /// the recorded timezone split; the edge counterfactual picks the nearest
  /// Wavelength city (ignoring the metro-radius gate — the "what if edge
  /// were reachable everywhere" scenario).
  const net::Server& server_for(net::ServerKind kind, geo::Timezone tz,
                                const geo::LatLon& pos) const {
    if (kind == net::ServerKind::Cloud) return fleet_.cloud_for(tz);
    const net::Server* best = nullptr;
    Km best_km = 0.0;
    for (const auto& s : fleet_.servers()) {
      if (s.kind != net::ServerKind::Edge) continue;
      const Km d = geo::haversine_km(s.pos, pos);
      if (best == nullptr || d < best_km) {
        best = &s;
        best_km = d;
      }
    }
    return best != nullptr ? *best : fleet_.cloud_for(tz);
  }

  radio::Technology effective_tech(radio::Technology tech) const {
    if (cfg_.knobs.max_tier.has_value() &&
        radio::technology_tier(tech) >
            radio::technology_tier(*cfg_.knobs.max_tier)) {
      return *cfg_.knobs.max_tier;
    }
    return tech;
  }

  /// PHY ceiling of a technology for the tier-cap counterfactual: per-CC
  /// peak rate x max aggregated carriers, bounded by the device cap.
  Mbps tier_capacity_cap(Carrier carrier, radio::Technology tech,
                         Direction dir) const {
    const radio::BandPlan plan = radio::band_plan(carrier, tech);
    const bool dl = dir == Direction::Downlink;
    const Mbps per_cc = radio::cc_peak_rate(plan, dl);
    const int cc = dl ? plan.max_cc_dl : plan.max_cc_ul;
    const Mbps device = dl ? radio::kDeviceCapDl : radio::kDeviceCapUl;
    return std::min(per_cc * static_cast<Mbps>(cc), device);
  }

  /// Recorded capacity after the tier knob: downgraded ticks are clamped to
  /// the replacement tier's ceiling; everything else replays untouched.
  Mbps capped_capacity(Mbps recorded, Carrier carrier,
                       radio::Technology recorded_tech, Direction dir) const {
    const radio::Technology tech = effective_tech(recorded_tech);
    if (tech == recorded_tech) return recorded;
    return std::min(recorded, tier_capacity_cap(carrier, tech, dir));
  }

  /// UE position of a test at time `t`: the recorded physical-km window
  /// interpolated linearly, mapped to the full route via the bundle's scale.
  geo::RoutePoint point_at(const TestRecord& test, SimMillis t) const {
    double f = 0.0;
    if (test.end > test.start) {
      f = std::clamp(static_cast<double>(t - test.start) /
                         static_cast<double>(test.end - test.start),
                     0.0, 1.0);
    }
    const Km km = test.start_km + (test.end_km - test.start_km) * f;
    return route_.at(km / scale_);
  }

  /// RTT shift a knob causes at one recorded observation: the base-RTT
  /// difference between the replayed and the recorded path. Exactly zero
  /// when neither the server class nor the technology changed.
  Millis rtt_delta(Carrier carrier, radio::Technology recorded_tech,
                   net::ServerKind recorded_kind, net::ServerKind new_kind,
                   geo::Timezone tz, const geo::LatLon& pos) const {
    const radio::Technology tech = effective_tech(recorded_tech);
    if (tech == recorded_tech && new_kind == recorded_kind) return 0.0;
    const net::Server& old_server = server_for(recorded_kind, tz, pos);
    const net::Server& new_server = server_for(new_kind, tz, pos);
    return net::base_rtt(carrier, tech, new_server, pos) -
           net::base_rtt(carrier, recorded_tech, old_server, pos);
  }

  void replay_carrier(Carrier carrier, ReplayShard& shard) {
    // App sessions recorded no KPI rows; their radio conditions come from
    // the carrier's merged bulk/RTT timeline in the matching motion regime.
    const TraceChannel moving =
        carrier_timeline(bundle_.db, carrier, false, cfg_.policy);
    const TraceChannel statics =
        carrier_timeline(bundle_.db, carrier, true, cfg_.policy);

    for (std::size_t i = 0; i < bundle_.db.tests.size(); ++i) {
      const TestRecord& recorded = bundle_.db.tests[i];
      if (recorded.carrier != carrier) continue;
      const TestRecord& replayed = db_.tests[i];
      switch (recorded.type) {
        case TestType::DownlinkBulk:
        case TestType::UplinkBulk:
          replay_bulk(recorded, replayed, shard);
          break;
        case TestType::Rtt:
          replay_rtt(recorded, replayed, shard);
          break;
        default:
          replay_app(recorded, replayed,
                     recorded.is_static && !statics.empty() ? statics : moving,
                     shard);
          break;
      }
      refire_handovers(recorded.id, shard);
      count_test();
    }
  }

  /// Recorded row index of a record, recovered from its address inside the
  /// recorded table (the by-test maps store pointers into those tables).
  template <typename Record>
  std::size_t row_index(const std::vector<Record>& table,
                        const Record* row) const {
    return static_cast<std::size_t>(row - table.data());
  }

  void refire_handovers(std::uint32_t test_id, ReplayShard& shard) {
    const auto it = handovers_by_test_.find(test_id);
    if (it == handovers_by_test_.end()) return;
    for (const measure::HandoverRecord* h : it->second) {
      shard.handovers.emplace_back(row_index(bundle_.db.handovers, h), *h);
    }
  }

  void replay_bulk(const TestRecord& recorded, const TestRecord& replayed,
                   ReplayShard& shard) {
    const auto it = kpis_by_test_.find(recorded.id);
    if (it == kpis_by_test_.end() || it->second.empty()) return;
    const auto& rows = it->second;
    const Direction dir = recorded.direction;
    const Carrier carrier = recorded.carrier;

    transport::TcpFlowConfig fc;
    fc.algo = cfg_.knobs.cc.value_or(transport::CcAlgo::Cubic);
    const geo::RoutePoint start_pt = route_.at(rows.front()->map_km);
    const net::Server& server0 =
        server_for(replayed.server, recorded.tz, start_pt.pos);
    transport::TcpBulkFlow flow{
        net::base_rtt(carrier, effective_tech(rows.front()->tech), server0,
                      start_pt.pos),
        root_.fork(radio::carrier_name(carrier)).fork("bulk", recorded.id),
        fc};

    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId ticks =
        reg.counter_id("replay.kpi_ticks");
    for (const measure::KpiRecord* k : rows) {
      const radio::Technology tech = effective_tech(k->tech);
      const Mbps cap = capped_capacity(k->throughput, carrier, k->tech, dir);
      const geo::RoutePoint pt = route_.at(k->map_km);
      flow.set_base_rtt(net::base_rtt(
          carrier, tech, server_for(replayed.server, k->tz, pt.pos), pt.pos));
      const double bytes = flow.advance(cap, kTick);

      measure::KpiRecord out = *k;
      out.tech = tech;
      out.server = replayed.server;
      out.throughput = bytes * 8.0 / 1e6 / (kTick / 1000.0);
      shard.kpis.emplace_back(row_index(bundle_.db.kpis, k), out);
      if (dir == Direction::Downlink) {
        shard.rx_bytes += bytes;
      } else {
        shard.tx_bytes += bytes;
      }
      reg.add(ticks);
    }
  }

  void replay_rtt(const TestRecord& recorded, const TestRecord& replayed,
                  ReplayShard& shard) {
    const auto it = rtts_by_test_.find(recorded.id);
    if (it == rtts_by_test_.end()) return;
    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId samples =
        reg.counter_id("replay.rtt_samples");
    for (const measure::RttRecord* r : it->second) {
      const geo::RoutePoint pt = point_at(recorded, r->t);
      const Millis delta =
          rtt_delta(recorded.carrier, r->tech, recorded.server,
                    replayed.server, r->tz, pt.pos);
      measure::RttRecord out = *r;
      out.tech = effective_tech(r->tech);
      out.server = replayed.server;
      out.rtt = delta == 0.0 ? r->rtt : std::max(1.0, r->rtt + delta);
      shard.rtts.emplace_back(row_index(bundle_.db.rtts, r), out);
      reg.add(samples);
    }
  }

  /// Apply the knobs to one recorded link tick, in place: the tier cap
  /// downgrades the technology and clamps both capacities, and a server or
  /// tier change shifts the RTT by the base-RTT delta at `pos`. Identity
  /// when no knob fires.
  void apply_knobs(apps::LinkTick& tick, const TestRecord& recorded,
                   const TestRecord& replayed, const geo::LatLon& pos) const {
    const Carrier carrier = recorded.carrier;
    const radio::Technology tech = tick.tech;
    tick.tech = effective_tech(tech);
    tick.cap_dl =
        capped_capacity(tick.cap_dl, carrier, tech, Direction::Downlink);
    tick.cap_ul = capped_capacity(tick.cap_ul, carrier, tech, Direction::Uplink);
    const Millis delta = rtt_delta(carrier, tech, recorded.server,
                                   replayed.server, recorded.tz, pos);
    if (delta != 0.0) tick.rtt = std::max(1.0, tick.rtt + delta);
  }

  void replay_app(const TestRecord& recorded, const TestRecord& replayed,
                  const TraceChannel& timeline, ReplayShard& shard) {
    if (!measure::app_kind_of(recorded.type).has_value()) return;

    // Bundles that carry link_ticks.csv replay the session from the exact
    // per-tick trace the recorded app consumed: with every knob unset the
    // replayed app_runs row is byte-identical to the recorded one. Older
    // bundles fall back to the statistical carrier timeline. Either way the
    // replayed ticks are re-emitted, so a replay's own bundle replays
    // exactly too; recorded rows keep their row indices (and bytes, when no
    // knob fires).
    const std::size_t first = shard.link_ticks.size();
    if (const auto it = link_ticks_by_test_.find(recorded.id);
        it != link_ticks_by_test_.end() && !it->second.empty()) {
      for (const measure::LinkTickRecord* r : it->second) {
        measure::LinkTickRecord tick = *r;
        apply_knobs(tick, recorded, replayed, point_at(recorded, r->t).pos);
        shard.link_ticks.emplace_back(row_index(bundle_.db.link_ticks, r),
                                      tick);
      }
    } else {
      synthesize_link_ticks(recorded, replayed, timeline, shard);
    }
    LinkTrace trace;
    trace.reserve(shard.link_ticks.size() - first);
    for (std::size_t i = first; i < shard.link_ticks.size(); ++i) {
      trace.push_back(shard.link_ticks[i].second);
    }

    // Sort key: the recorded run's row when the bundle has one, else past
    // the end (keyed by test id for a stable order among such extras).
    std::size_t index = bundle_.db.app_runs.size() + recorded.id;
    bool compressed = false;
    if (const auto it = app_run_by_test_.find(recorded.id);
        it != app_run_by_test_.end()) {
      index = row_index(bundle_.db.app_runs, it->second);
      compressed = it->second->compressed;
    }
    const campaign::AppSession session =
        campaign::run_app_session(replayed, trace, compressed);
    shard.app_runs.emplace_back(index, session.run);
    shard.rx_bytes += session.rx_bytes;
    shard.tx_bytes += session.tx_bytes;

    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId runs = reg.counter_id("replay.app_runs");
    reg.add(runs);
  }

  /// The statistical fallback: re-create an app session's link ticks from
  /// the carrier's merged timeline, with the session's own recorded
  /// handovers re-firing at their original ticks. The rows sort past the
  /// recorded link_ticks table, grouped by test.
  void synthesize_link_ticks(const TestRecord& recorded,
                             const TestRecord& replayed,
                             const TraceChannel& timeline,
                             ReplayShard& shard) const {
    // The campaign's standard budget, not the recorded window: a static
    // session's window is empty, and a moving one that straddles an
    // overnight stop spans hours.
    const int n_ticks = campaign::CampaignConfig{}.app_ticks(recorded.type);

    std::vector<const measure::HandoverRecord*> events;
    if (const auto it = handovers_by_test_.find(recorded.id);
        it != handovers_by_test_.end()) {
      events = it->second;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const measure::HandoverRecord* a,
                        const measure::HandoverRecord* b) {
                       return a->event.t < b->event.t;
                     });

    std::size_t e = 0;
    for (int i = 0; i < n_ticks; ++i) {
      measure::LinkTickRecord tick;
      tick.test_id = recorded.id;
      tick.t = recorded.start +
               static_cast<SimMillis>(i) * static_cast<SimMillis>(kTick);
      tick.carrier = recorded.carrier;
      const TraceSample s = timeline.at(tick.t);
      tick.tech = s.tech;
      tick.cap_dl = s.capacity_dl;
      tick.cap_ul = s.capacity_ul;
      tick.rtt = s.rtt;
      apply_knobs(tick, recorded, replayed, route_.at(s.map_km).pos);
      const SimMillis window_end = tick.t + static_cast<SimMillis>(kTick);
      while (e < events.size() && events[e]->event.t < window_end) {
        if (events[e]->event.t >= tick.t) {
          ++tick.handovers;
          tick.interruption =
              std::min(tick.interruption + events[e]->event.duration, kTick);
        }
        ++e;
      }
      shard.link_ticks.emplace_back(
          bundle_.db.link_ticks.size() +
              static_cast<std::size_t>(recorded.id) * 1000000 +
              static_cast<std::size_t>(i),
          tick);
    }
  }

  static void count_test() {
    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId tests = reg.counter_id("replay.tests");
    reg.add(tests);
  }

  const ReplayBundle& bundle_;
  const ReplayConfig& cfg_;
  Rng root_;
  geo::Route route_;
  net::ServerFleet fleet_;
  double scale_;
  ConsolidatedDb db_;
  std::unordered_map<std::uint32_t, std::vector<const measure::KpiRecord*>>
      kpis_by_test_;
  std::unordered_map<std::uint32_t, std::vector<const measure::RttRecord*>>
      rtts_by_test_;
  std::unordered_map<std::uint32_t,
                     std::vector<const measure::HandoverRecord*>>
      handovers_by_test_;
  std::unordered_map<std::uint32_t, const measure::AppRunRecord*>
      app_run_by_test_;
  std::unordered_map<std::uint32_t,
                     std::vector<const measure::LinkTickRecord*>>
      link_ticks_by_test_;
};

}  // namespace

ConsolidatedDb ReplayCampaign::run() const {
  ReplayRunner runner{bundle_, config_};
  return runner.run();
}

core::obs::RunManifest make_replay_manifest(
    const ReplayConfig& config, const core::obs::RunManifest& source) {
  core::obs::RunManifest m = core::obs::make_run_manifest();
  m.seed = config.seed;
  m.scale = source.scale;
  m.threads = core::resolve_threads(config.threads);
  // Canonical rendering of everything that shapes the replayed data: the
  // knob cell (cell_label's fixed axis order), the hold policy, and the
  // source bundle's identity. Mirrors campaign::make_manifest's discipline:
  // threads is recorded but excluded — it never changes a byte.
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "replay;src=%s;srcseed=%llu;srcscale=%.17g;knobs=%s;interp=%s",
                source.config_digest.c_str(),
                static_cast<unsigned long long>(source.seed), source.scale,
                cell_label(config.knobs).c_str(),
                config.policy == HoldPolicy::Hold ? "hold" : "linear");
  m.config_digest = core::obs::hex64(core::obs::fnv1a64(buf));
  return m;
}

core::obs::RunManifest replay_to_bundle(const ReplayBundle& bundle,
                                        const ReplayConfig& config,
                                        const std::string& directory,
                                        bool canonical_provenance) {
  core::obs::RunManifest manifest =
      make_replay_manifest(config, bundle.manifest);
  if (canonical_provenance) core::obs::canonicalize_provenance(manifest);
  const ConsolidatedDb db = ReplayCampaign{bundle, config}.run();
  measure::write_dataset(db, directory, manifest);
  return manifest;
}

}  // namespace wheels::replay
