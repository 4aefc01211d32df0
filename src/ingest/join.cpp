#include "ingest/join.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/obs/trace_export.hpp"
#include "core/thread_pool.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "measure/validate.hpp"

namespace wheels::ingest {

namespace {

measure::TestRecord make_test(std::uint32_t id, measure::TestType type,
                              radio::Carrier carrier, radio::Direction dir,
                              SimMillis start, SimMillis end, int cycle) {
  measure::TestRecord t;
  t.id = id;
  t.type = type;
  t.carrier = carrier;
  t.is_static = false;
  t.start = start;
  t.end = end;
  t.start_km = 0.0;
  t.end_km = 0.0;
  t.tz = geo::Timezone::Pacific;
  t.server = net::ServerKind::Cloud;
  t.direction = dir;
  t.cycle = cycle;
  return t;
}

void append_segment(measure::ConsolidatedDb& db, radio::Carrier carrier,
                    const TraceSegment& seg, SimMillis tick_ms, int cycle,
                    std::uint32_t& next_test_id) {
  const SimMillis start = seg.ticks.front().t;
  const SimMillis end = seg.ticks.back().t + tick_ms;
  const std::uint32_t dl_id = next_test_id++;
  const std::uint32_t ul_id = next_test_id++;
  const std::uint32_t rtt_id = next_test_id++;

  db.tests.push_back(make_test(dl_id, measure::TestType::DownlinkBulk,
                               carrier, radio::Direction::Downlink, start,
                               end, cycle));
  db.tests.push_back(make_test(ul_id, measure::TestType::UplinkBulk, carrier,
                               radio::Direction::Uplink, start, end, cycle));
  db.tests.push_back(make_test(rtt_id, measure::TestType::Rtt, carrier,
                               radio::Direction::Downlink, start, end,
                               cycle));

  for (const replay::TraceSample& p : seg.ticks) {
    for (const bool dl : {true, false}) {
      measure::KpiRecord k;
      k.test_id = dl ? dl_id : ul_id;
      k.t = p.t;
      k.carrier = carrier;
      k.tech = p.tech;
      k.cell_id = 1;
      k.rsrp = -90.0;
      k.mcs = 20;
      k.bler = 0.0;
      k.ca = 1;
      k.throughput = dl ? p.cap_dl : p.cap_ul;
      k.direction = dl ? radio::Direction::Downlink : radio::Direction::Uplink;
      db.kpis.push_back(k);
    }
    measure::RttRecord rr;
    rr.test_id = rtt_id;
    rr.t = p.t;
    rr.carrier = carrier;
    rr.tech = p.tech;
    rr.rtt = p.rtt;
    db.rtts.push_back(rr);
  }

  db.experiment_runtime[measure::carrier_index(carrier)] +=
      static_cast<Millis>(end - start) * 3.0;
}

/// Pass-through sink that throws `msg` when the stream ends empty. Sits at
/// the head of each source's chain so an empty source reports the join's
/// error, not a downstream one.
class EmptyGuard final : public PointSink {
 public:
  EmptyGuard(std::string msg, PointSink& inner)
      : msg_(std::move(msg)), inner_(inner) {}

  void push(const replay::TraceSample& p) override {
    seen_ = true;
    inner_.push(p);
  }

  void finish() override {
    if (!seen_) throw std::runtime_error{msg_};
    inner_.finish();
  }

 private:
  std::string msg_;
  PointSink& inner_;
  bool seen_ = false;
};

/// Clock-offset alignment: subtracts the stream's first timestamp from
/// every point, so the recording starts at t = 0.
class RebaseSink final : public PointSink {
 public:
  explicit RebaseSink(PointSink& inner) : inner_(inner) {}

  void push(const replay::TraceSample& p) override {
    if (!have_base_) {
      base_ = p.t;
      have_base_ = true;
    }
    replay::TraceSample q = p;
    q.t -= base_;
    inner_.push(q);
  }

  void finish() override { inner_.finish(); }

 private:
  PointSink& inner_;
  SimMillis base_ = 0;
  bool have_base_ = false;
};

/// Overlap trimming: forwards only the points inside [lo, hi]. A
/// downstream EmptyGuard reports the nothing-survived error.
class TrimSink final : public PointSink {
 public:
  TrimSink(SimMillis lo, SimMillis hi, PointSink& inner)
      : lo_(lo), hi_(hi), inner_(inner) {}

  void push(const replay::TraceSample& p) override {
    if (p.t >= lo_ && p.t <= hi_) inner_.push(p);
  }

  void finish() override { inner_.finish(); }

 private:
  SimMillis lo_;
  SimMillis hi_;
  PointSink& inner_;
};

/// Bounds pre-pass for overlap trimming: records the (aligned) first and
/// last timestamp of the stream.
class SpanSink final : public PointSink {
 public:
  void push(const replay::TraceSample& p) override {
    if (!seen_) {
      first = p.t;
      seen_ = true;
    }
    last = p.t;
  }

  SimMillis first = 0;
  SimMillis last = 0;

 private:
  bool seen_ = false;
};

}  // namespace

replay::ReplayBundle join_streams(std::vector<StreamSource> sources,
                                  const JoinOptions& join,
                                  const ResampleSpec& resample_spec,
                                  int threads) {
  const core::obs::ScopedSpan span{"ingest.join", "ingest"};
  if (sources.empty()) {
    throw std::runtime_error{"join: no input traces"};
  }
  std::sort(sources.begin(), sources.end(),
            [](const StreamSource& a, const StreamSource& b) {
              return measure::carrier_index(a.carrier) <
                     measure::carrier_index(b.carrier);
            });
  for (std::size_t i = 1; i < sources.size(); ++i) {
    if (sources[i].carrier == sources[i - 1].carrier) {
      throw std::runtime_error{
          "join: carrier " +
          std::string{measure::names::to_name(sources[i].carrier)} +
          " appears twice (" + sources[i - 1].name + ", " + sources[i].name +
          ")"};
    }
  }
  // Spec errors must not wait for the first stream to flow.
  { StreamingResampler probe{resample_spec, [](TraceSegment&&) {}}; }

  // Overlap trimming needs every source's (aligned) bounds before any
  // stream can be resampled: a bounds pre-pass over all sources.
  SimMillis trim_lo = 0;
  SimMillis trim_hi = 0;
  if (join.trim_to_overlap) {
    std::vector<SpanSink> spans(sources.size());
    core::run_indexed(threads, sources.size(), [&](std::size_t i) {
      SpanSink& span = spans[i];
      EmptyGuard guard{"join: " + sources[i].name + ": empty trace", span};
      if (join.align_clocks) {
        RebaseSink rebase{guard};
        sources[i].produce(rebase);
      } else {
        sources[i].produce(guard);
      }
    });
    trim_lo = spans.front().first;
    trim_hi = spans.front().last;
    for (const SpanSink& span : spans) {
      trim_lo = std::max(trim_lo, span.first);
      trim_hi = std::min(trim_hi, span.last);
    }
    if (trim_lo > trim_hi) {
      throw std::runtime_error{
          "join: traces share no overlapping window (re-run without "
          "trimming, or check the clock alignment)"};
    }
  }

  // Main pass: every source flows produce -> [rebase] -> [trim] -> resample
  // into its own segment list. Shards only race on disjoint slots; the
  // bundle below is assembled serially in canonical order, which is what
  // keeps the output byte-identical at any thread count.
  std::vector<std::vector<TraceSegment>> segments(sources.size());
  core::run_indexed(threads, sources.size(), [&](std::size_t i) {
    std::vector<TraceSegment>& out = segments[i];
    StreamingResampler resampler{resample_spec, [&out](TraceSegment&& seg) {
                                   out.push_back(std::move(seg));
                                 }};
    PointSink* sink = &resampler;
    std::unique_ptr<TrimSink> trim;
    std::unique_ptr<EmptyGuard> survived;
    if (join.trim_to_overlap) {
      survived = std::make_unique<EmptyGuard>(
          "join: " + sources[i].name + ": no samples inside the overlap "
          "window",
          *sink);
      trim = std::make_unique<TrimSink>(trim_lo, trim_hi, *survived);
      sink = trim.get();
    }
    EmptyGuard guard{"join: " + sources[i].name + ": empty trace", *sink};
    if (join.align_clocks) {
      RebaseSink rebase{guard};
      sources[i].produce(rebase);
    } else {
      sources[i].produce(guard);
    }
  });

  replay::ReplayBundle bundle;
  measure::ConsolidatedDb& db = bundle.db;
  for (radio::Carrier c : radio::kAllCarriers) {
    db.passive[measure::carrier_index(c)].carrier = c;
  }

  std::ostringstream digest;
  std::uint32_t next_test_id = 1;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    digest << measure::names::to_name(sources[i].carrier) << ':'
           << sources[i].name << '\n';
    int cycle = 0;
    for (const TraceSegment& seg : segments[i]) {
      append_segment(db, sources[i].carrier, seg, resample_spec.tick_ms,
                     cycle++, next_test_id);
      for (const replay::TraceSample& p : seg.ticks) {
        digest << p.t << ',' << measure::csv_double(p.cap_dl) << ','
               << measure::csv_double(p.cap_ul) << ','
               << measure::csv_double(p.rtt) << ','
               << measure::names::to_name(p.tech) << '\n';
      }
    }
  }

  bundle.manifest = core::obs::make_run_manifest();
  bundle.manifest.seed = 0;
  bundle.manifest.scale = 1.0;
  bundle.manifest.threads = 1;
  bundle.manifest.config_digest =
      core::obs::hex64(core::obs::fnv1a64(digest.str()));

  measure::validate_or_throw(db);
  return bundle;
}

}  // namespace wheels::ingest
