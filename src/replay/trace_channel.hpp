// TraceChannel: a recorded radio timeline standing in for the stochastic
// channel model.
//
// Trace-driven emulation (ERRANT's approach for cellular, Mahimahi's for
// fixed links) replaces the channel's random processes with a recorded
// per-tick timeline: the per-500 ms application-layer throughput the drive
// actually achieved becomes the replayed link's capacity, and the recorded
// handover events are re-fired at their original times. The transport and
// app layers above then run live, so counterfactuals (a different congestion
// control, another server) react to the *same* radio conditions the drive
// recorded.
#pragma once

#include <string_view>
#include <vector>

#include "apps/link_trace.hpp"
#include "core/sim_time.hpp"
#include "core/units.hpp"
#include "measure/records.hpp"
#include "ran/handover.hpp"

namespace wheels::replay {

/// Behaviour between two recorded 500 ms samples. XCAL rows are snapshots,
/// so Hold (previous sample applies until the next one) is the faithful
/// default; Interpolate linearly blends the continuous fields (capacities,
/// rtt, position) for smoother app input. tech always holds. Ingest's
/// resampler fills between a trace's source samples the same two ways.
enum class HoldPolicy { Hold, Interpolate };

/// "hold" or "linear": the policy's name in knobs, digests and CLIs.
std::string_view hold_policy_name(HoldPolicy p);
/// Exact reverse of hold_policy_name. Throws std::runtime_error
/// "unknown interpolation 'x' (expected hold|linear)" on any other text.
HoldPolicy parse_hold_policy(std::string_view text);

/// One recorded timeline point: a tick's link state at time `t` and route
/// position `map_km`, the way measure::LinkTickRecord is a LinkTick plus its
/// key.
struct TraceSample : apps::LinkTick {
  SimMillis t = 0;
  Km map_km = 0.0;
};

/// `a` with its continuous fields (capacities, rtt, map_km) moved the
/// fraction `f` of the way to `b`'s; t, tech and the handover fields stay
/// `a`'s. TraceChannel::at and ingest's resampler both interpolate with it.
TraceSample interpolate(const TraceSample& a, const TraceSample& b, double f);

/// Recorded handover activity inside one replay window.
struct TraceEvents {
  int handovers = 0;
  Millis interruption = 0.0;
};

class TraceChannel {
 public:
  /// `samples` must be sorted by t (carrier_timeline guarantees it);
  /// `handovers` are the events to re-fire, by recorded time.
  TraceChannel(std::vector<TraceSample> samples,
               std::vector<ran::HandoverEvent> handovers,
               HoldPolicy policy = HoldPolicy::Hold);

  bool empty() const { return samples_.empty(); }
  SimMillis start() const { return samples_.empty() ? 0 : samples_.front().t; }
  SimMillis end() const { return samples_.empty() ? 0 : samples_.back().t; }

  /// The sample governing time t under the channel's policy (clamped to the
  /// recorded range). Hold: the last sample at or before t. Interpolate:
  /// continuous fields lerped towards the next sample.
  TraceSample at(SimMillis t) const;

  /// Recorded handovers re-fired in [t, t + dt); the interruption is capped
  /// at dt (an interruption longer than the window blanks the whole window).
  TraceEvents events_in(SimMillis t, Millis dt) const;

  /// The recorded samples, sorted by t.
  const std::vector<TraceSample>& samples() const { return samples_; }
  const std::vector<ran::HandoverEvent>& handovers() const {
    return handovers_;
  }

 private:
  /// Index of the last sample with samples_[i].t <= t (0 when t precedes the
  /// trace). Requires !empty().
  std::size_t index_at(SimMillis t) const;

  std::vector<TraceSample> samples_;
  std::vector<ran::HandoverEvent> handovers_;
  HoldPolicy policy_;
};

/// Whole-carrier timeline for one carrier and one motion regime: every KPI
/// row with matching is_static merged in time order, holding the last seen
/// capacity per direction across test boundaries, with the carrier's RTT
/// observations folded in (last echo at or before each sample). The
/// replay's statistical fallback and emu::timeline_from_bundle read this —
/// app tests record no KPI rows of their own, so without recorded link
/// ticks their radio conditions come from the bulk tests bracketing them.
TraceChannel carrier_timeline(const measure::ConsolidatedDb& db,
                              radio::Carrier carrier, bool is_static,
                              HoldPolicy policy = HoldPolicy::Hold);

}  // namespace wheels::replay
