#include "replay/report.hpp"

#include <ostream>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "measure/enum_names.hpp"

namespace wheels::replay {

DbSamples collect_samples(const measure::ConsolidatedDb& db) {
  DbSamples out;
  for (radio::Carrier c : radio::kAllCarriers) {
    CarrierSamples& cs = out[measure::carrier_index(c)];
    cs.carrier = c;
    for (const auto& k : db.kpis) {
      if (k.carrier != c) continue;
      (k.direction == radio::Direction::Downlink ? cs.dl_mbps : cs.ul_mbps)
          .push_back(k.throughput);
    }
    for (const auto& r : db.rtts) {
      if (r.carrier == c) cs.rtt_ms.push_back(r.rtt);
    }
    for (const auto& a : db.app_runs) {
      if (a.carrier != c) continue;
      ++cs.app_runs;
      switch (a.app) {
        case measure::AppKind::Video:
          cs.video_qoe.push_back(a.qoe);
          break;
        case measure::AppKind::Gaming:
          cs.gaming_latency_ms.push_back(a.gaming_latency);
          break;
        default:
          cs.offload_e2e_ms.push_back(a.median_e2e);
          break;
      }
    }
    for (const auto& t : db.tests) {
      if (t.carrier == c) ++cs.tests;
    }
  }
  return out;
}

ReportSummary summarize_samples(const DbSamples& samples) {
  ReportSummary s;
  for (std::size_t ci = 0; ci < samples.size(); ++ci) {
    const CarrierSamples& in = samples[ci];
    CarrierSummary& cs = s.carriers[ci];
    cs.carrier = in.carrier;
    cs.tests = in.tests;
    cs.kpi_samples = in.dl_mbps.size() + in.ul_mbps.size();
    cs.rtt_samples = in.rtt_ms.size();
    cs.app_runs = in.app_runs;
    cs.dl_median_mbps = analysis::median_of(in.dl_mbps);
    cs.ul_median_mbps = analysis::median_of(in.ul_mbps);
    cs.rtt_median_ms = analysis::median_of(in.rtt_ms);
    cs.video_qoe = analysis::median_of(in.video_qoe);
    cs.gaming_latency_ms = analysis::median_of(in.gaming_latency_ms);
    cs.offload_e2e_ms = analysis::median_of(in.offload_e2e_ms);
  }
  return s;
}

ReportSummary summarize(const measure::ConsolidatedDb& db) {
  return summarize_samples(collect_samples(db));
}

namespace {

struct Metric {
  const char* name;
  double CarrierSummary::* field;
};

constexpr Metric kMetrics[] = {
    {"DL median (Mbps)", &CarrierSummary::dl_median_mbps},
    {"UL median (Mbps)", &CarrierSummary::ul_median_mbps},
    {"RTT median (ms)", &CarrierSummary::rtt_median_ms},
    {"video QoE", &CarrierSummary::video_qoe},
    {"gaming latency (ms)", &CarrierSummary::gaming_latency_ms},
    {"offload E2E (ms)", &CarrierSummary::offload_e2e_ms},
};

std::string fmt_change(double before, double after) {
  if (before == 0.0) return after == 0.0 ? "0%" : "-";
  return analysis::fmt_pct((after - before) / before);
}

}  // namespace

void print_summary(std::ostream& os, const std::string& title,
                   const ReportSummary& s) {
  os << title << "\n";
  analysis::Table t{{"carrier", "tests", "kpis", "rtts", "apps", "DL med",
                     "UL med", "RTT med", "QoE", "game lat", "E2E"}};
  for (const CarrierSummary& cs : s.carriers) {
    t.add_row({std::string{measure::names::to_name(cs.carrier)},
               std::to_string(cs.tests), std::to_string(cs.kpi_samples),
               std::to_string(cs.rtt_samples), std::to_string(cs.app_runs),
               analysis::fmt(cs.dl_median_mbps),
               analysis::fmt(cs.ul_median_mbps),
               analysis::fmt(cs.rtt_median_ms), analysis::fmt(cs.video_qoe),
               analysis::fmt(cs.gaming_latency_ms),
               analysis::fmt(cs.offload_e2e_ms)});
  }
  t.print(os);
}

void print_comparison(std::ostream& os, const std::string& before_title,
                      const ReportSummary& before,
                      const std::string& after_title,
                      const ReportSummary& after) {
  analysis::Table t{
      {"carrier", "metric", before_title, after_title, "change"}};
  for (std::size_t ci = 0; ci < before.carriers.size(); ++ci) {
    const CarrierSummary& b = before.carriers[ci];
    const CarrierSummary& a = after.carriers[ci];
    for (const Metric& m : kMetrics) {
      t.add_row({std::string{measure::names::to_name(b.carrier)}, m.name,
                 analysis::fmt(b.*m.field), analysis::fmt(a.*m.field),
                 fmt_change(b.*m.field, a.*m.field)});
    }
  }
  t.print(os);
}

}  // namespace wheels::replay
