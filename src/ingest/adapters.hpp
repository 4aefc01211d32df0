// The built-in trace adapters.
//
// minimal  — the repo's own t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms[,tech] CSV.
// mahimahi — Mahimahi packet-delivery-opportunity traces (one integer ms
//            timestamp per line, one MTU per line), windowed into Mbps.
// errant   — ERRANT-style per-model KPI logs (kbps columns, RAT names).
// monroe   — MONROE-style metadata+throughput logs (unix-second clock,
//            bps columns).
// paper    — the paper's released per-table CSVs (a kpis.csv table's moving
//            rows, with an optional rtts.csv overlay).
//
// minimal, errant and monroe are pure ColumnMap instances — the proof that
// formats of that family are data, not code.
#pragma once

#include <iosfwd>
#include <memory>

#include "ingest/adapter.hpp"

namespace wheels::ingest {

std::unique_ptr<TraceAdapter> make_minimal_adapter();
std::unique_ptr<TraceAdapter> make_mahimahi_adapter();
std::unique_ptr<TraceAdapter> make_errant_adapter();
std::unique_ptr<TraceAdapter> make_monroe_adapter();
std::unique_ptr<TraceAdapter> make_paper_tables_adapter();

/// Merge a paired Mahimahi uplink trace (already windowed by the mahimahi
/// adapter at the same `tick`) into the downlink stream: a PointSink
/// wrapper that replaces each point's cap_ul by the uplink trace's windowed
/// rate and forwards the result to `inner`; the shorter side holds its last
/// windowed rate to the longer side's end, and an uplink tail continues the
/// downlink's tick grid. The uplink trace is held in memory —
/// O(duration / tick), not O(file bytes).
std::unique_ptr<PointSink> make_mahimahi_uplink_merge(CanonicalTrace up,
                                                      SimMillis tick,
                                                      PointSink& inner);

/// Overlay recorded RTT samples (a paper rtts.csv table) onto the point
/// stream: loads the table up front (paper tables are small) and rewrites
/// each point flowing through to `inner` with the latest recorded moving
/// RTT at or before its timestamp (static rows and other carriers' rows are
/// ignored; points before the first RTT sample keep their fill value).
/// Throws std::runtime_error on a malformed table.
std::unique_ptr<PointSink> make_paper_rtt_overlay(std::istream& rtts,
                                                  radio::Carrier carrier,
                                                  PointSink& inner);

}  // namespace wheels::ingest
