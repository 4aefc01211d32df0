#include "replay/replay_campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
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
#include "net/latency.hpp"
#include "radio/band_plan.hpp"

namespace wheels::replay {

using apps::LinkTrace;
using measure::ConsolidatedDb;
using measure::TestRecord;
using measure::TestType;
using radio::Carrier;
using radio::Direction;

namespace {

/// Set `field` from the environment variable `name` through `parse`; a value
/// `parse` refuses keeps the default and is reported by core::ignore_env.
template <typename Field, typename Parse>
void env_named(const char* name, const char* expected, Parse parse,
               Field& field) {
  if (const char* v = std::getenv(name)) {
    try {
      field = parse(v);
    } catch (const std::runtime_error&) {
      core::ignore_env(name, expected);
    }
  }
}

}  // namespace

ReplayConfig replay_config_from_env() {
  ReplayConfig cfg;
  if (const auto v = core::env_int("WHEELS_REPLAY_SEED")) {
    if (*v >= 0) {
      cfg.seed = static_cast<std::uint64_t>(*v);
    } else {
      core::ignore_env("WHEELS_REPLAY_SEED", ">= 0");
    }
  }
  env_named("WHEELS_REPLAY_INTERP", "hold|linear", parse_hold_policy,
            cfg.policy);
  env_named("WHEELS_REPLAY_CC", "cubic|bbr", transport::parse_cc_algo,
            cfg.knobs.cc);
  env_named("WHEELS_REPLAY_SERVER", "cloud|edge",
            measure::names::parse_server_kind, cfg.knobs.server);
  env_named("WHEELS_REPLAY_MAX_TIER", "a technology name (LTE, 5G-mid, ...)",
            measure::names::parse_technology, cfg.knobs.max_tier);
  cfg.threads = 0;
  return cfg;
}

namespace {

constexpr Millis kTick = 500.0;

/// Test id -> the test's position in db.tests.
using TestPositions = std::unordered_map<std::uint32_t, std::uint32_t>;

/// Row numbers of one recorded table grouped by their test's position in
/// db.tests, table order kept within a group: a two-pass counting sort.
/// Groups are not ranges of the table, because tables need not be grouped
/// by test (ingest writes a DL and a UL test's KPI rows interleaved tick by
/// tick).
class RowsByTest {
 public:
  template <typename Record>
  RowsByTest(const std::vector<Record>& table, const TestPositions& position,
             std::size_t n_tests)
      : offsets_(n_tests + 1, 0), rows_(table.size()) {
    std::vector<std::uint32_t> test_of(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      const auto it = position.find(table[i].test_id);
      if (it == position.end()) {
        throw std::runtime_error{"replay: row of unknown test id " +
                                 std::to_string(table[i].test_id)};
      }
      test_of[i] = it->second;
      ++offsets_[it->second + 1];
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < table.size(); ++i) {
      rows_[next[test_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  /// The rows of the test at `position` in db.tests.
  std::span<const std::uint32_t> of(std::size_t position) const {
    return {rows_.data() + offsets_[position],
            offsets_[position + 1] - offsets_[position]};
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> rows_;
};

TestPositions test_positions(const std::vector<TestRecord>& tests) {
  TestPositions position;
  position.reserve(tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) {
    position.emplace(tests[i].id, static_cast<std::uint32_t>(i));
  }
  return position;
}

/// What one carrier job produces besides its in-place rewrites: the rows
/// the recording lacks (the fallback's link ticks, the runs of app tests
/// that recorded none) and the bytes its transfers moved.
struct CarrierOutput {
  std::vector<measure::LinkTickRecord> link_ticks;
  std::vector<measure::AppRunRecord> app_runs;
  double rx_bytes = 0.0;
  double tx_bytes = 0.0;
};

/// Append every carrier's `rows` to `table` in carrier order and sort the
/// appended tail by test id. The sort is stable, so a test's own rows keep
/// their order.
template <typename Record>
void append_by_test(std::vector<Record>& table,
                    std::array<CarrierOutput, radio::kCarrierCount>& outputs,
                    std::vector<Record> CarrierOutput::*rows) {
  const auto tail = static_cast<std::ptrdiff_t>(table.size());
  for (CarrierOutput& out : outputs) {
    table.insert(table.end(), (out.*rows).begin(), (out.*rows).end());
  }
  std::stable_sort(table.begin() + tail, table.end(),
                   [](const Record& a, const Record& b) {
                     return a.test_id < b.test_id;
                   });
}

/// A replay is a rewrite of the recording: the output tables start as
/// copies of the recorded ones, and each carrier job rewrites its own
/// tests' rows in place, so the replayed tables line up row for row with
/// the recorded ones. Jobs write disjoint rows (a row belongs to one test,
/// a test to one carrier). The recording must pass measure::validate: a
/// row whose test the rewrite never visits keeps its recorded value.
class ReplayRunner {
 public:
  ReplayRunner(const ReplayBundle& bundle, const ReplayConfig& cfg)
      : ReplayRunner(bundle, cfg, test_positions(bundle.db.tests)) {}

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
    // rewrites which server class each test talks to. Handovers replay
    // unchanged, so their copy is already the output.
    db_.tests = rec.tests;
    if (cfg_.knobs.server.has_value()) {
      for (auto& t : db_.tests) t.server = *cfg_.knobs.server;
    }
    db_.kpis = rec.kpis;
    db_.rtts = rec.rtts;
    db_.handovers = rec.handovers;
    db_.app_runs = rec.app_runs;
    db_.link_ticks = rec.link_ticks;

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

    std::array<CarrierOutput, radio::kCarrierCount> outputs;
    core::run_indexed(
        std::min(core::resolve_threads(cfg_.threads), radio::kCarrierCount),
        radio::kCarrierCount, [&](std::size_t i) {
          const Carrier c = radio::kAllCarriers[i];
          replay_carrier(c, outputs[measure::carrier_index(c)]);
        });
    append_by_test(db_.link_ticks, outputs, &CarrierOutput::link_ticks);
    append_by_test(db_.app_runs, outputs, &CarrierOutput::app_runs);
    // Byte counters sum in canonical carrier order — the same fixed
    // floating-point summation order for every thread count.
    for (const CarrierOutput& out : outputs) {
      db_.rx_bytes += out.rx_bytes;
      db_.tx_bytes += out.tx_bytes;
    }
    return std::move(db_);
  }

 private:
  ReplayRunner(const ReplayBundle& bundle, const ReplayConfig& cfg,
               const TestPositions& position)
      : bundle_(bundle),
        cfg_(cfg),
        root_(cfg.seed),
        route_(geo::Route::cross_country()),
        fleet_(net::ServerFleet::standard(route_)),
        scale_(bundle.manifest.scale > 0.0 ? bundle.manifest.scale : 1.0),
        kpis_(bundle.db.kpis, position, bundle.db.tests.size()),
        rtts_(bundle.db.rtts, position, bundle.db.tests.size()),
        handovers_(bundle.db.handovers, position, bundle.db.tests.size()),
        app_runs_(bundle.db.app_runs, position, bundle.db.tests.size()),
        link_ticks_(bundle.db.link_ticks, position, bundle.db.tests.size()) {}

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

  void replay_carrier(Carrier carrier, CarrierOutput& out) {
    for (std::size_t i = 0; i < bundle_.db.tests.size(); ++i) {
      const TestRecord& recorded = bundle_.db.tests[i];
      if (recorded.carrier != carrier) continue;
      const TestRecord& replayed = db_.tests[i];
      switch (recorded.type) {
        case TestType::DownlinkBulk:
        case TestType::UplinkBulk:
          replay_bulk(i, recorded, replayed, out);
          break;
        case TestType::Rtt:
          replay_rtt(i, recorded, replayed);
          break;
        default:
          replay_app(i, recorded, replayed, out);
          break;
      }
      count_test();
    }
  }

  void replay_bulk(std::size_t test, const TestRecord& recorded,
                   const TestRecord& replayed, CarrierOutput& out) {
    const std::span<const std::uint32_t> rows = kpis_.of(test);
    if (rows.empty()) return;
    const ConsolidatedDb& rec = bundle_.db;
    const Direction dir = recorded.direction;
    const Carrier carrier = recorded.carrier;

    transport::TcpFlowConfig fc;
    fc.algo = cfg_.knobs.cc.value_or(transport::CcAlgo::Cubic);
    const measure::KpiRecord& first = rec.kpis[rows.front()];
    const geo::RoutePoint start_pt = route_.at(first.map_km);
    const net::Server& server0 =
        server_for(replayed.server, recorded.tz, start_pt.pos);
    transport::TcpBulkFlow flow{
        net::base_rtt(carrier, effective_tech(first.tech), server0,
                      start_pt.pos),
        root_.fork(radio::carrier_name(carrier)).fork("bulk", recorded.id),
        fc};

    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId ticks =
        reg.counter_id("replay.kpi_ticks");
    for (const std::uint32_t row : rows) {
      const measure::KpiRecord& k = rec.kpis[row];
      const radio::Technology tech = effective_tech(k.tech);
      const Mbps cap = capped_capacity(k.throughput, carrier, k.tech, dir);
      const geo::RoutePoint pt = route_.at(k.map_km);
      flow.set_base_rtt(net::base_rtt(
          carrier, tech, server_for(replayed.server, k.tz, pt.pos), pt.pos));
      const double bytes = flow.advance(cap, kTick);

      measure::KpiRecord& o = db_.kpis[row];
      o.tech = tech;
      o.server = replayed.server;
      o.throughput = bytes * 8.0 / 1e6 / (kTick / 1000.0);
      if (dir == Direction::Downlink) {
        out.rx_bytes += bytes;
      } else {
        out.tx_bytes += bytes;
      }
      reg.add(ticks);
    }
  }

  void replay_rtt(std::size_t test, const TestRecord& recorded,
                  const TestRecord& replayed) {
    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId samples =
        reg.counter_id("replay.rtt_samples");
    for (const std::uint32_t row : rtts_.of(test)) {
      const measure::RttRecord& r = bundle_.db.rtts[row];
      const geo::RoutePoint pt = point_at(recorded, r.t);
      const Millis delta =
          rtt_delta(recorded.carrier, r.tech, recorded.server,
                    replayed.server, r.tz, pt.pos);
      measure::RttRecord& o = db_.rtts[row];
      o.tech = effective_tech(r.tech);
      o.server = replayed.server;
      o.rtt = delta == 0.0 ? r.rtt : std::max(1.0, r.rtt + delta);
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

  void replay_app(std::size_t test, const TestRecord& recorded,
                  const TestRecord& replayed, CarrierOutput& out) {
    if (!measure::app_kind_of(recorded.type).has_value()) return;

    // Bundles that carry link_ticks.csv replay the session from the exact
    // per-tick trace the recorded app consumed: with every knob unset the
    // replayed app_runs row is byte-identical to the recorded one. Older
    // bundles fall back to the statistical carrier timeline, whose ticks
    // follow the recorded ones, so a replay's own bundle replays exactly
    // too.
    LinkTrace trace;
    const std::span<const std::uint32_t> rows = link_ticks_.of(test);
    if (!rows.empty()) {
      trace.reserve(rows.size());
      for (const std::uint32_t row : rows) {
        measure::LinkTickRecord& tick = db_.link_ticks[row];
        apply_knobs(tick, recorded, replayed, point_at(recorded, tick.t).pos);
        trace.push_back(tick);
      }
    } else {
      const std::size_t first = out.link_ticks.size();
      synthesize_link_ticks(test, recorded, replayed, out.link_ticks);
      trace.assign(out.link_ticks.begin() +
                       static_cast<std::ptrdiff_t>(first),
                   out.link_ticks.end());
    }

    const std::span<const std::uint32_t> run = app_runs_.of(test);
    const bool compressed =
        !run.empty() && bundle_.db.app_runs[run.front()].compressed;
    const campaign::AppSession session =
        campaign::run_app_session(replayed, trace, compressed);
    if (run.empty()) {
      out.app_runs.push_back(session.run);
    } else {
      db_.app_runs[run.front()] = session.run;
    }
    out.rx_bytes += session.rx_bytes;
    out.tx_bytes += session.tx_bytes;

    auto& reg = core::obs::MetricsRegistry::global();
    static const core::obs::MetricId runs = reg.counter_id("replay.app_runs");
    reg.add(runs);
  }

  /// The statistical fallback: re-create an app session's link ticks from
  /// the carrier's merged timeline, with the session's own recorded
  /// handovers re-firing at their original ticks.
  void synthesize_link_ticks(std::size_t test, const TestRecord& recorded,
                             const TestRecord& replayed,
                             std::vector<measure::LinkTickRecord>& out) {
    const TraceChannel& timeline = fallback_timeline(recorded);
    // The campaign's standard budget, not the recorded window: a static
    // session's window is empty, and a moving one that straddles an
    // overnight stop spans hours.
    const int n_ticks = campaign::CampaignConfig{}.app_ticks(recorded.type);

    std::vector<const ran::HandoverEvent*> events;
    for (const std::uint32_t row : handovers_.of(test)) {
      events.push_back(&bundle_.db.handovers[row].event);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const ran::HandoverEvent* a,
                        const ran::HandoverEvent* b) { return a->t < b->t; });

    std::size_t e = 0;
    for (int i = 0; i < n_ticks; ++i) {
      measure::LinkTickRecord tick;
      tick.test_id = recorded.id;
      tick.t = recorded.start +
               static_cast<SimMillis>(i) * static_cast<SimMillis>(kTick);
      tick.carrier = recorded.carrier;
      const TraceSample s = timeline.at(tick.t);
      static_cast<apps::LinkTick&>(tick) = s;
      apply_knobs(tick, recorded, replayed, route_.at(s.map_km).pos);
      const SimMillis window_end = tick.t + static_cast<SimMillis>(kTick);
      while (e < events.size() && events[e]->t < window_end) {
        if (events[e]->t >= tick.t) {
          ++tick.handovers;
          tick.interruption =
              std::min(tick.interruption + events[e]->duration, kTick);
        }
        ++e;
      }
      out.push_back(tick);
    }
  }

  /// The fallback's timeline for a test: its carrier's merged timeline in
  /// the test's motion regime (the moving one when the carrier recorded no
  /// static samples). Built on first use: a bundle with link ticks never
  /// needs one. Only the test's own carrier job touches its slots.
  const TraceChannel& fallback_timeline(const TestRecord& test) {
    auto& slots = timelines_[measure::carrier_index(test.carrier)];
    const auto get = [&](bool is_static) -> const TraceChannel& {
      std::optional<TraceChannel>& slot = slots[is_static ? 1 : 0];
      if (!slot) {
        slot.emplace(carrier_timeline(bundle_.db, test.carrier, is_static,
                                      cfg_.policy));
      }
      return *slot;
    };
    return test.is_static && !get(true).empty() ? get(true) : get(false);
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
  // The recording's rows, grouped by test.
  const RowsByTest kpis_;
  const RowsByTest rtts_;
  const RowsByTest handovers_;
  const RowsByTest app_runs_;
  const RowsByTest link_ticks_;
  ConsolidatedDb db_;
  // [carrier][is_static]: the fallback's timelines, built on first use.
  std::array<std::array<std::optional<TraceChannel>, 2>, radio::kCarrierCount>
      timelines_;
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
                std::string{hold_policy_name(config.policy)}.c_str());
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
