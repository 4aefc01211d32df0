// The paper's released per-table CSVs.
//
// The dataset release ships the ConsolidatedDb tables as individual CSVs
// (measure/csv_export.hpp). A complete bundle goes through
// replay::read_dataset; this adapter covers the partial-release case — a
// lone kpis.csv table — by reading one carrier's drive the way
// replay::carrier_timeline reads its moving regime. Only moving rows count:
// a city's static battery shares its timestamps with the moving test that
// follows it. Per timestamp, each direction's rows are averaged, and each
// direction holds its last mean until its next row (0 before its first):
// a phone runs its downlink and uplink tests one after the other. Each row
// decodes through measure::parse_kpi_row, the bundle reader's own parser,
// so every field meets the bundle's rules; only the per-timestamp
// accumulators are kept (the pivot's inherent state, O(unique ticks),
// independent of the row count). RTTs live in a separate rtts.csv table;
// make_paper_rtt_overlay() overlays its moving echoes when available,
// otherwise the configured fill applies.
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
      if (k.carrier != options.carrier || k.is_static) continue;
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
          "paper tables: no moving KPI rows for carrier " +
          std::string{measure::names::to_name(options.carrier)}};
    }

    // p carries each direction's last mean to the timestamps without one.
    replay::TraceSample p;
    p.rtt = options.default_rtt_ms;
    for (const auto& [t, acc] : by_t) {
      p.t = t;
      if (acc.dl_n > 0) p.cap_dl = acc.dl_sum / static_cast<double>(acc.dl_n);
      if (acc.ul_n > 0) p.cap_ul = acc.ul_sum / static_cast<double>(acc.ul_n);
      p.tech = acc.tech;
      sink.push(p);
    }
    finish_stream(sink, by_t.size());
  }
};

std::map<SimMillis, double> load_rtt_map(std::istream& rtts,
                                         radio::Carrier carrier) {
  const std::vector<measure::RttRecord> records = measure::read_rtts_csv(rtts);
  // (t -> rtt) for this carrier's moving echoes; read_rtts_csv does not
  // require ordering, the map provides it.
  std::map<SimMillis, double> by_t;
  for (const measure::RttRecord& r : records) {
    if (r.carrier == carrier && !r.is_static) by_t[r.t] = r.rtt;
  }
  return by_t;
}

class PaperRttOverlay final : public PointSink {
 public:
  PaperRttOverlay(std::istream& rtts, radio::Carrier carrier,
                  PointSink& inner)
      : by_t_(load_rtt_map(rtts, carrier)), inner_(inner) {}

  void push(const replay::TraceSample& p) override {
    replay::TraceSample q = p;
    // The latest recorded RTT at or before q.t; before the first sample
    // the fill value stays.
    const auto it = by_t_.upper_bound(q.t);
    if (it != by_t_.begin()) q.rtt = std::prev(it)->second;
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
