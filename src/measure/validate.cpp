#include "measure/validate.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "measure/enum_names.hpp"
#include "ran/handover.hpp"

namespace wheels::measure {

namespace {

// KPI rows of a static battery test carry t >= start while the test record
// keeps end == start (the battery runner does not advance the drive clock),
// so samples are only checked against the start edge, with one tick of
// slack for the synchronizer's join.
constexpr SimMillis kSampleSlackMs = 1000;

// Coverage segment endpoints are accumulated sums of tick distances; allow
// float noise when checking ordering.
constexpr double kKmEps = 1e-9;

class Collector {
 public:
  explicit Collector(std::size_t cap) : cap_(cap) {}

  bool full() const { return out_.size() >= cap_; }

  template <typename... Parts>
  void add(Parts&&... parts) {
    if (full()) return;
    std::ostringstream os;
    (os << ... << parts);
    out_.push_back(os.str());
  }

  std::vector<std::string> take() { return std::move(out_); }

 private:
  std::size_t cap_;
  std::vector<std::string> out_;
};

bool bad_fraction(double v) { return !std::isfinite(v) || v < 0.0 || v > 1.0; }

bool is_bulk(TestType type) {
  return type == TestType::DownlinkBulk || type == TestType::UplinkBulk;
}

bool is_app(TestType type) { return app_kind_of(type).has_value(); }

void check_coverage(const std::vector<CoverageSegment>& segments,
                    const char* what, radio::Carrier carrier, Collector& out) {
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& s = segments[i];
    if (!std::isfinite(s.map_km_start) || !std::isfinite(s.map_km_end) ||
        s.map_km_end < s.map_km_start - kKmEps) {
      out.add(what, " coverage[", i, "] of ", names::to_name(carrier),
              ": bad segment [", s.map_km_start, ", ", s.map_km_end, "]");
    }
    if (i > 0 && s.map_km_start < segments[i - 1].map_km_end - kKmEps) {
      out.add(what, " coverage[", i, "] of ", names::to_name(carrier),
              ": overlaps previous segment (", s.map_km_start, " < ",
              segments[i - 1].map_km_end, ")");
    }
  }
}

}  // namespace

std::vector<std::string> validate(const ConsolidatedDb& db,
                                  std::size_t max_violations) {
  Collector out{max_violations};

  std::unordered_map<std::uint32_t, const TestRecord*> by_id;
  by_id.reserve(db.tests.size());
  for (const auto& t : db.tests) {
    if (!by_id.emplace(t.id, &t).second) {
      out.add("test ", t.id, ": duplicate id");
    }
    if (t.end < t.start) {
      out.add("test ", t.id, ": end ", t.end, " before start ", t.start);
    }
    if (!std::isfinite(t.start_km) || !std::isfinite(t.end_km)) {
      out.add("test ", t.id, ": non-finite km bounds");
    }
  }

  auto resolve = [&](const char* table, std::size_t i, std::uint32_t test_id,
                     radio::Carrier carrier) -> const TestRecord* {
    const auto it = by_id.find(test_id);
    if (it == by_id.end()) {
      out.add(table, "[", i, "]: unknown test id ", test_id);
      return nullptr;
    }
    if (it->second->carrier != carrier) {
      out.add(table, "[", i, "]: carrier ", names::to_name(carrier),
              " does not match test ", test_id, "'s ",
              names::to_name(it->second->carrier));
    }
    return it->second;
  };

  for (std::size_t i = 0; i < db.kpis.size() && !out.full(); ++i) {
    const auto& k = db.kpis[i];
    const TestRecord* t = resolve("kpis", i, k.test_id, k.carrier);
    if (t != nullptr) {
      if (!is_bulk(t->type)) {
        out.add("kpis[", i, "]: test ", t->id, " (", names::to_name(t->type),
                ") is not a bulk test");
      }
      if (k.is_static != t->is_static) {
        out.add("kpis[", i, "]: is_static mismatch with test ", t->id);
      }
      if (k.t + kSampleSlackMs < t->start) {
        out.add("kpis[", i, "]: sample at ", k.t, " before test ", t->id,
                "'s start ", t->start);
      }
    }
    if (!std::isfinite(k.rsrp) || !std::isfinite(k.throughput) ||
        !std::isfinite(k.speed) || !std::isfinite(k.km) ||
        !std::isfinite(k.map_km)) {
      out.add("kpis[", i, "]: non-finite field");
    }
    if (bad_fraction(k.bler)) {
      out.add("kpis[", i, "]: bler ", k.bler, " outside [0, 1]");
    }
    if (k.throughput < 0.0) {
      out.add("kpis[", i, "]: negative throughput ", k.throughput);
    }
  }

  for (std::size_t i = 0; i < db.rtts.size() && !out.full(); ++i) {
    const auto& r = db.rtts[i];
    const TestRecord* t = resolve("rtts", i, r.test_id, r.carrier);
    if (t != nullptr) {
      if (t->type != TestType::Rtt) {
        out.add("rtts[", i, "]: test ", t->id, " (", names::to_name(t->type),
                ") is not a ping test");
      }
      if (r.is_static != t->is_static) {
        out.add("rtts[", i, "]: is_static mismatch with test ", t->id);
      }
      if (r.server != t->server) {
        out.add("rtts[", i, "]: server mismatch with test ", t->id);
      }
      if (r.t + kSampleSlackMs < t->start) {
        out.add("rtts[", i, "]: sample at ", r.t, " before test ", t->id,
                "'s start ", t->start);
      }
    }
    if (!std::isfinite(r.rtt) || r.rtt <= 0.0) {
      out.add("rtts[", i, "]: non-positive rtt ", r.rtt);
    }
  }

  for (std::size_t i = 0; i < db.handovers.size() && !out.full(); ++i) {
    const auto& h = db.handovers[i];
    resolve("handovers", i, h.test_id, h.carrier);
    if (h.event.type != ran::classify_handover(h.event.from, h.event.to)) {
      out.add("handovers[", i, "]: type ", names::to_name(h.event.type),
              " does not match ", names::to_name(h.event.from), " -> ",
              names::to_name(h.event.to));
    }
    if (!std::isfinite(h.event.duration) || h.event.duration < 0.0) {
      out.add("handovers[", i, "]: bad duration ", h.event.duration);
    }
  }

  std::unordered_set<std::uint32_t> with_run;
  for (std::size_t i = 0; i < db.app_runs.size() && !out.full(); ++i) {
    const auto& r = db.app_runs[i];
    const TestRecord* t = resolve("app_runs", i, r.test_id, r.carrier);
    if (t != nullptr) {
      if (!is_app(t->type)) {
        out.add("app_runs[", i, "]: test ", t->id, " (",
                names::to_name(t->type), ") is not an app test");
      }
      if (!with_run.insert(t->id).second) {
        out.add("app_runs[", i, "]: second app run of test ", t->id);
      }
      if (r.is_static != t->is_static) {
        out.add("app_runs[", i, "]: is_static mismatch with test ", t->id);
      }
      if (r.server != t->server) {
        out.add("app_runs[", i, "]: server mismatch with test ", t->id);
      }
    }
    if (bad_fraction(r.high_speed_5g_fraction)) {
      out.add("app_runs[", i, "]: high_speed_5g_fraction ",
              r.high_speed_5g_fraction, " outside [0, 1]");
    }
    if (bad_fraction(r.rebuffer_fraction)) {
      out.add("app_runs[", i, "]: rebuffer_fraction ", r.rebuffer_fraction,
              " outside [0, 1]");
    }
    if (!std::isfinite(r.median_e2e) || r.median_e2e < 0.0 ||
        !std::isfinite(r.offload_fps) || r.offload_fps < 0.0 ||
        !std::isfinite(r.qoe) || !std::isfinite(r.avg_bitrate) ||
        r.avg_bitrate < 0.0 || !std::isfinite(r.gaming_bitrate) ||
        r.gaming_bitrate < 0.0 || !std::isfinite(r.gaming_latency) ||
        r.gaming_latency < 0.0 || !std::isfinite(r.gaming_frame_drop) ||
        r.gaming_frame_drop < 0.0 ||
        !std::isfinite(r.gaming_max_frame_drop) ||
        r.gaming_max_frame_drop < 0.0) {
      out.add("app_runs[", i, "]: non-finite or negative metric");
    }
    if (!std::isfinite(r.map_percent) || r.map_percent < 0.0 ||
        r.map_percent > 100.0) {
      out.add("app_runs[", i, "]: map_percent ", r.map_percent,
              " outside [0, 100]");
    }
  }

  for (std::size_t i = 0; i < db.link_ticks.size() && !out.full(); ++i) {
    const auto& l = db.link_ticks[i];
    const TestRecord* t = resolve("link_ticks", i, l.test_id, l.carrier);
    if (t != nullptr && !is_app(t->type)) {
      out.add("link_ticks[", i, "]: test ", t->id, " (",
              names::to_name(t->type), ") is not an app test");
    }
    if (t != nullptr && l.t + kSampleSlackMs < t->start) {
      out.add("link_ticks[", i, "]: sample at ", l.t, " before test ", t->id,
              "'s start ", t->start);
    }
    if (!std::isfinite(l.cap_dl) || l.cap_dl < 0.0 ||
        !std::isfinite(l.cap_ul) || l.cap_ul < 0.0) {
      out.add("link_ticks[", i, "]: bad capacity dl=", l.cap_dl, " ul=",
              l.cap_ul);
    }
    if (!std::isfinite(l.rtt) || l.rtt <= 0.0) {
      out.add("link_ticks[", i, "]: non-positive rtt ", l.rtt);
    }
    if (!std::isfinite(l.interruption) || l.interruption < 0.0) {
      out.add("link_ticks[", i, "]: bad interruption ", l.interruption);
    }
    if (l.handovers < 0) {
      out.add("link_ticks[", i, "]: negative handovers ", l.handovers);
    }
  }

  for (std::size_t i = 0; i < db.cell_load.size() && !out.full(); ++i) {
    const auto& c = db.cell_load[i];
    if (c.ticks <= 0) {
      out.add("cell_load[", i, "]: non-positive ticks ", c.ticks);
    }
    if (!std::isfinite(c.avg_attached) || c.avg_attached < 0.0 ||
        !std::isfinite(c.avg_active) || c.avg_active < 0.0 ||
        !std::isfinite(c.avg_demand) || c.avg_demand < 0.0 ||
        !std::isfinite(c.avg_allocated) || c.avg_allocated < 0.0 ||
        !std::isfinite(c.avg_capacity) || c.avg_capacity < 0.0) {
      out.add("cell_load[", i, "]: non-finite or negative load field");
    }
    if (c.avg_active > c.avg_attached) {
      out.add("cell_load[", i, "]: avg_active ", c.avg_active,
              " exceeds avg_attached ", c.avg_attached);
    }
    if (bad_fraction(c.utilization)) {
      out.add("cell_load[", i, "]: utilization ", c.utilization,
              " outside [0, 1]");
    }
    if (bad_fraction(c.fairness)) {
      out.add("cell_load[", i, "]: fairness ", c.fairness, " outside [0, 1]");
    }
  }

  for (radio::Carrier c : radio::kAllCarriers) {
    if (out.full()) break;
    const std::size_t ci = carrier_index(c);
    check_coverage(db.active_coverage[ci], "active", c, out);
    check_coverage(db.passive[ci].segments, "passive", c, out);
    if (db.passive[ci].handovers < 0 || db.passive[ci].pings < 0) {
      out.add("passive log of ", names::to_name(c), ": negative counters");
    }
    if (!std::isfinite(db.experiment_runtime[ci]) ||
        db.experiment_runtime[ci] < 0.0) {
      out.add("experiment_runtime of ", names::to_name(c), ": bad value ",
              db.experiment_runtime[ci]);
    }
  }
  if (!std::isfinite(db.driven_km) || db.driven_km < 0.0) {
    out.add("driven_km: bad value ", db.driven_km);
  }
  if (!std::isfinite(db.rx_bytes) || db.rx_bytes < 0.0 ||
      !std::isfinite(db.tx_bytes) || db.tx_bytes < 0.0) {
    out.add("byte counters: bad values rx=", db.rx_bytes, " tx=",
            db.tx_bytes);
  }

  return out.take();
}

void validate_or_throw(const ConsolidatedDb& db) {
  const auto violations = validate(db);
  if (violations.empty()) return;
  std::string msg = "consolidated db failed validation:";
  for (const auto& v : violations) {
    msg += "\n  - " + v;
  }
  throw std::runtime_error{msg};
}

}  // namespace wheels::measure
