// The paper's released per-table CSVs.
//
// The dataset release ships the ConsolidatedDb tables as individual CSVs
// (measure/csv_export.hpp). A complete bundle goes through
// replay::read_dataset; this adapter covers the partial-release case — a
// lone kpis.csv table — by pivoting its per-direction throughput rows into
// the canonical capacity series: per timestamp, the mean downlink and mean
// uplink app-layer throughput across that carrier's rows. Each row decodes
// through measure::parse_kpi_row, the bundle reader's own parser, so every
// field meets the bundle's rules; only the per-timestamp accumulators are
// kept (the pivot's inherent state, O(unique ticks), independent of the row
// count). RTTs live in a separate rtts.csv table;
// make_paper_rtt_overlay() overlays one when available, otherwise the
// configured fill applies.
#include <istream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"

#include "ingest/adapters.hpp"

namespace wheels::ingest {

namespace {

[[noreturn]] void header_fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error{"csv: line " + std::to_string(line) + ": " + msg};
}

class PaperTablesAdapter final : public TraceAdapter {
 public:
  std::string_view name() const override { return "paper"; }

  std::string_view description() const override {
    return "the paper's released kpis.csv table (optionally with a sibling "
           "rtts.csv overlay)";
  }

  int sniff(const SniffInput& input) const override {
    if (input.head.empty()) return 0;
    return input.head.front() == measure::kpi_header() ? 95 : 0;
  }

  void parse_stream(LineSource& lines, const IngestOptions& options,
                    PointSink& sink) const override {
    if (options.default_rtt_ms <= 0.0) {
      throw std::runtime_error{"paper tables: default rtt must be > 0"};
    }

    // The header and every row follow the bundle reader's kpis.csv rules.
    const std::string header{measure::kpi_header()};
    LineRef line;
    if (!lines.next(line)) {
      header_fail(1, "missing header, expected '" + header + "'");
    }
    if (line.text != header) {
      header_fail(line.number, "unexpected header '" + std::string{line.text} +
                                   "', expected '" + header + "'");
    }

    struct Accumulator {
      double dl_sum = 0.0;
      std::size_t dl_n = 0;
      double ul_sum = 0.0;
      std::size_t ul_n = 0;
      radio::Technology tech = radio::Technology::Lte;
    };
    std::map<SimMillis, Accumulator> by_t;
    std::size_t rows = 0;
    while (lines.next(line)) {
      const measure::KpiRecord k =
          measure::parse_kpi_row(line.text, line.number);
      if (k.carrier != options.carrier) continue;
      ++rows;
      Accumulator& acc = by_t[k.t];
      if (k.direction == radio::Direction::Downlink) {
        acc.dl_sum += k.throughput;
        ++acc.dl_n;
      } else {
        acc.ul_sum += k.throughput;
        ++acc.ul_n;
      }
      acc.tech = k.tech;
    }
    if (rows == 0) {
      throw std::runtime_error{
          "paper tables: no KPI rows for carrier " +
          std::string{measure::names::to_name(options.carrier)}};
    }

    for (const auto& [t, acc] : by_t) {
      TracePoint p;
      p.t = t;
      p.cap_dl_mbps = acc.dl_n > 0
                          ? acc.dl_sum / static_cast<double>(acc.dl_n)
                          : 0.0;
      p.cap_ul_mbps = acc.ul_n > 0
                          ? acc.ul_sum / static_cast<double>(acc.ul_n)
                          : 0.0;
      p.rtt_ms = options.default_rtt_ms;
      p.tech = acc.tech;
      sink.push(p);
    }
    finish_stream(sink, by_t.size());
  }
};

std::map<SimMillis, double> load_rtt_map(std::istream& rtts,
                                         radio::Carrier carrier) {
  const std::vector<measure::RttRecord> records = measure::read_rtts_csv(rtts);
  // (t -> rtt) for this carrier; read_rtts_csv does not require ordering,
  // the map provides it.
  std::map<SimMillis, double> by_t;
  for (const measure::RttRecord& r : records) {
    if (r.carrier == carrier) by_t[r.t] = r.rtt;
  }
  return by_t;
}

class PaperRttOverlay final : public PointSink {
 public:
  PaperRttOverlay(std::istream& rtts, radio::Carrier carrier,
                  PointSink& inner)
      : by_t_(load_rtt_map(rtts, carrier)), inner_(inner) {}

  void push(const TracePoint& p) override {
    TracePoint q = p;
    // The latest recorded RTT at or before q.t; before the first sample
    // the fill value stays.
    const auto it = by_t_.upper_bound(q.t);
    if (it != by_t_.begin()) q.rtt_ms = std::prev(it)->second;
    inner_.push(q);
  }

  void finish() override { inner_.finish(); }

 private:
  std::map<SimMillis, double> by_t_;
  PointSink& inner_;
};

}  // namespace

std::unique_ptr<TraceAdapter> make_paper_tables_adapter() {
  return std::make_unique<PaperTablesAdapter>();
}

std::unique_ptr<PointSink> make_paper_rtt_overlay(std::istream& rtts,
                                                  radio::Carrier carrier,
                                                  PointSink& inner) {
  return std::make_unique<PaperRttOverlay>(rtts, carrier, inner);
}

}  // namespace wheels::ingest
