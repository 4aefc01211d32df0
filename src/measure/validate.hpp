// Invariant checker for a ConsolidatedDb — the ingest-side guard.
//
// A bundle written by this library always satisfies these invariants; a
// hand-edited or third-party bundle may not. replay::read_dataset runs
// validate_or_throw() after reassembly so the replay engine never operates
// on an inconsistent database.
#pragma once

#include <string>
#include <vector>

#include "measure/records.hpp"

namespace wheels::measure {

/// Checks structural invariants of `db` and returns one human-readable
/// violation string per problem (empty == valid):
///  - test ids are unique; every record's test_id resolves to a test;
///  - records agree with their test on carrier / is_static / server;
///  - each row kind belongs to its kind of test: kpis rows to a DL or UL
///    bulk test, rtts rows to a ping test, link_ticks and app_runs rows to
///    an app test, and a test has at most one app run (replay rewrites a
///    recording in place and relies on this);
///  - test windows are ordered (start <= end) and KPI/RTT samples are not
///    earlier than their test's start;
///  - doubles are finite, fractions (bler, rebuffer, ...) are in [0, 1],
///    RTTs are positive;
///  - coverage segments are ordered, non-overlapping and non-negative;
///  - every handover's type matches ran::classify_handover(from, to).
/// Reporting stops at `max_violations` (the rest would usually repeat the
/// same root cause).
std::vector<std::string> validate(const ConsolidatedDb& db,
                                  std::size_t max_violations = 32);

/// Throws std::runtime_error listing the first violations when validate()
/// finds any.
void validate_or_throw(const ConsolidatedDb& db);

}  // namespace wheels::measure
