// Round-trip verification of the Mahimahi backend against the ingest
// adapter it inverts.
//
// The quantization contract (documented in backend_mahimahi.cpp): exporting
// a timeline and re-ingesting the .down artifact recovers every covered
// tick's downlink capacity to within one 1500 B opportunity per tick —
// 12000 bits / tick, 0.024 Mbps at the default 500 ms tick. verify() runs
// that loop in-process (render -> ingest mahimahi adapter -> per-tick
// compare) so the CLI (--verify-roundtrip) and CI can prove the bound on
// any concrete export, and the property test can prove it on randomized
// timelines.
#pragma once

#include <cstddef>

#include "export/timeline.hpp"

namespace wheels::emu {

struct RoundTripReport {
  /// Largest |re-ingested − exported| downlink capacity over all ticks.
  double max_error_mbps = 0.0;
  /// The quantization bound the error must stay under: one opportunity
  /// (1500 B * 8) per tick, in Mbps.
  double bound_mbps = 0.0;
  std::size_t ticks_checked = 0;

  bool ok() const { return max_error_mbps <= bound_mbps; }
};

/// Export `timeline` through the mahimahi backend, re-ingest the .down
/// artifact with the builtin mahimahi ingest adapter at the same tick, and
/// compare per-tick downlink capacity. Ticks outside the re-ingested
/// window (leading/trailing all-zero ticks produce no opportunities to
/// anchor a window on) are compared against zero capacity. Runs inside an
/// "export.verify" span. Throws only on an invalid timeline — a violated
/// bound is reported, not thrown.
RoundTripReport verify_mahimahi_roundtrip(const EmuTimeline& timeline);

}  // namespace wheels::emu
