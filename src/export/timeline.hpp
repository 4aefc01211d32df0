// Emulation timelines: the neutral per-tick link schedule every export
// backend renders.
//
// An EmuTimeline is the lowest common denominator of the three emulator
// families this subsystem targets (Mahimahi delivery-opportunity traces,
// tc-netem/HTB shaping schedules, CloudEmu-style JSON schedules): a uniform
// tick grid of apps::LinkTick, the per-tick link state the campaign records
// and the apps run over. A tick's handover interruption becomes a loss
// fraction only where a backend renders one (tick_loss). Builders lift every
// timeline source the simulator knows into it — a recorded campaign
// bundle's per-run link_ticks, a bundle's statistical carrier timeline, an
// ingested CanonicalTrace, and (via the bundle path) a synthesized drive
// cycle — so each backend renders one representation and inherits every
// source for free.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/link_trace.hpp"
#include "core/sim_time.hpp"
#include "ingest/column_map.hpp"
#include "measure/records.hpp"

namespace wheels::emu {

struct EmuTimeline {
  /// Tick duration; every backend renders one schedule entry per tick.
  SimMillis tick_ms = 500;
  /// Simulator time of ticks[0] — provenance only; backends emit schedules
  /// rebased to zero.
  SimMillis start_ms = 0;
  /// The link state an emulator should impose, one entry per tick_ms of
  /// emulated time (a bundle timeline leaves out the drive's long silences).
  apps::LinkTrace ticks;
};

/// The packet-loss fraction a tick renders as: the share of its tick_ms
/// that the handover interruption blanked, clamped to [0, 1].
double tick_loss(const apps::LinkTick& tick, SimMillis tick_ms);

/// Throw std::runtime_error on an unrenderable timeline: non-positive tick,
/// no ticks, non-finite or negative capacity, non-positive RTT, non-finite
/// or negative interruption. Every backend validates before rendering.
void validate_timeline(const EmuTimeline& timeline);

/// Lift recorded per-app-session link ticks (one test's rows from
/// link_ticks.csv, in recorded order) onto a timeline. Throws on empty
/// `rows`.
EmuTimeline timeline_from_link_ticks(
    const std::vector<measure::LinkTickRecord>& rows, SimMillis tick_ms = 500);

/// The exact trace one recorded app session consumed: `test_id`'s rows of
/// db.link_ticks. Throws when the bundle records none for that test (an
/// appless test, or a bundle written before per-run traces existed).
EmuTimeline timeline_from_bundle_test(const measure::ConsolidatedDb& db,
                                      std::uint32_t test_id);

/// One carrier's statistical timeline (replay::carrier_timeline) sampled
/// onto the tick grid, with the recorded handovers of each tick as its
/// interruption. Rows sharing a timestamp are one sample. Where two sample
/// times lie more than ingest's gap split (ResampleSpec{}.max_gap_ms, 10 s)
/// apart — an overnight stop, the days between two cities — the held ticks
/// between them are dropped and the grid resumes at the later sample, as
/// ingest_trace --format paper splits the same kpis.csv. Throws when the
/// bundle has no samples for the carrier/regime.
EmuTimeline timeline_from_bundle(const measure::ConsolidatedDb& db,
                                 radio::Carrier carrier,
                                 bool is_static = false);

/// An ingested trace (strictly increasing in t, as every adapter emits it)
/// hold-sampled onto the tick grid anchored at its first point: the
/// resampler under HoldPolicy::Hold with no gap split. Throws on an empty
/// trace, std::invalid_argument on a non-positive tick.
EmuTimeline timeline_from_canonical(const ingest::CanonicalTrace& trace,
                                    SimMillis tick_ms = 500);

}  // namespace wheels::emu
