// The ColumnMap-based adapters: minimal, ERRANT-style, MONROE-style.
//
// Each adapter is a ColumnMap literal plus a sniffing heuristic; the whole
// parser lives in ingest/column_map.cpp. Adding another format of this
// family is a ~20-line function here.
#include <string>

#include "ingest/adapters.hpp"

namespace wheels::ingest {

namespace {

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool header_has_column(const std::string& header, std::string_view name) {
  // Exact cell match, not substring: "rtt_ms" must not match "x_rtt_ms".
  std::string cell;
  for (std::size_t i = 0; i <= header.size(); ++i) {
    if (i == header.size() || header[i] == ',') {
      if (cell == name) return true;
      cell.clear();
    } else {
      cell.push_back(header[i]);
    }
  }
  return false;
}

class ColumnMapAdapter : public TraceAdapter {
 public:
  ColumnMapAdapter(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  void parse_stream(LineSource& lines, const IngestOptions& options,
                    PointSink& sink) const override {
    parse_with_map(lines, map(options), options.default_tech, sink);
  }

 protected:
  virtual ColumnMap map(const IngestOptions& options) const = 0;

 private:
  std::string name_;
  std::string description_;
};

// --- minimal ---------------------------------------------------------------

class MinimalAdapter final : public ColumnMapAdapter {
 public:
  MinimalAdapter()
      : ColumnMapAdapter(
            "minimal",
            "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms[,tech] per-tick CSV") {}

  int sniff(const SniffInput& input) const override {
    if (input.head.empty()) return 0;
    return starts_with(input.head.front(),
                       "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms")
               ? 95
               : 0;
  }

 protected:
  ColumnMap map(const IngestOptions&) const override {
    ColumnMap m;
    m.time_column = "t_ms";
    m.rules = {{"cap_dl_mbps", &apps::LinkTick::cap_dl, 1.0, {}},
               {"cap_ul_mbps", &apps::LinkTick::cap_ul, 1.0, {}},
               {"rtt_ms", &apps::LinkTick::rtt, 1.0, {}}};
    m.tech_column = "tech";
    return m;
  }
};

// --- ERRANT-style ----------------------------------------------------------

class ErrantAdapter final : public ColumnMapAdapter {
 public:
  ErrantAdapter()
      : ColumnMapAdapter("errant",
                         "ERRANT-style per-model KPI log (kbps columns, "
                         "RAT names; RSRP/SINR ignored)") {}

  int sniff(const SniffInput& input) const override {
    if (input.head.empty()) return 0;
    const std::string& header = input.head.front();
    return header_has_column(header, "dl_kbps") &&
                   header_has_column(header, "net_mode")
               ? 90
               : 0;
  }

 protected:
  ColumnMap map(const IngestOptions&) const override {
    ColumnMap m;
    m.time_column = "ts_ms";
    m.rules = {{"dl_kbps", &apps::LinkTick::cap_dl, 1e-3, {}},
               {"ul_kbps", &apps::LinkTick::cap_ul, 1e-3, {}},
               {"ping_ms", &apps::LinkTick::rtt, 1.0, {}}};
    m.tech_column = "net_mode";
    m.tech_aliases = {{"4G", radio::Technology::Lte},
                      {"4G+", radio::Technology::LteA},
                      {"5G", radio::Technology::NrMid}};
    m.allow_extra_columns = true;  // op, rsrp_dbm, sinr_db, ...
    return m;
  }
};

// --- MONROE-style ----------------------------------------------------------

class MonroeAdapter final : public ColumnMapAdapter {
 public:
  MonroeAdapter()
      : ColumnMapAdapter("monroe",
                         "MONROE-style metadata+throughput log (unix-second "
                         "clock, bps columns)") {}

  int sniff(const SniffInput& input) const override {
    if (input.head.empty()) return 0;
    const std::string& header = input.head.front();
    return header_has_column(header, "downlink_bps") &&
                   header_has_column(header, "nodeid")
               ? 90
               : 0;
  }

 protected:
  ColumnMap map(const IngestOptions&) const override {
    ColumnMap m;
    m.time_column = "timestamp";  // unix seconds, possibly fractional
    m.time_scale_ms = 1000.0;
    m.rebase_time = true;
    m.rules = {{"downlink_bps", &apps::LinkTick::cap_dl, 1e-6, {}},
               {"uplink_bps", &apps::LinkTick::cap_ul, 1e-6, {}},
               {"rtt_ms", &apps::LinkTick::rtt, 1.0, {}}};
    m.tech_column = "mode";
    m.tech_aliases = {{"NR-NSA", radio::Technology::NrLow},
                      {"NR-SA", radio::Technology::NrMid},
                      {"5G", radio::Technology::NrMid}};
    m.allow_extra_columns = true;  // nodeid, operator, iccid, ...
    return m;
  }
};

}  // namespace

std::unique_ptr<TraceAdapter> make_minimal_adapter() {
  return std::make_unique<MinimalAdapter>();
}

std::unique_ptr<TraceAdapter> make_errant_adapter() {
  return std::make_unique<ErrantAdapter>();
}

std::unique_ptr<TraceAdapter> make_monroe_adapter() {
  return std::make_unique<MonroeAdapter>();
}

}  // namespace wheels::ingest
