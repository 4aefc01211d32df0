// Fluid-model TCP bulk flow over a time-varying bottleneck.
//
// This is the nuttcp equivalent: a single backlogged CUBIC connection whose
// bottleneck is the radio link capacity produced by the channel model. The
// flow is advanced in 50 ms fluid steps inside each 500 ms radio tick; the
// caller reads back delivered bytes per tick, i.e. exactly the 500 ms
// application-layer throughput samples XCAL logs.
//
// The model captures what shapes the paper's throughput CDFs:
//  - slow-start ramp at test start (tests last only 30 s);
//  - cellular bufferbloat: a deep drop-tail buffer (several BDPs) whose
//    occupancy adds queueing delay — the source of multi-second loaded RTTs;
//  - loss → CUBIC multiplicative decrease → sawtooth;
//  - capacity dips (outages, handovers) drain into the queue first, then
//    starve the link.
#pragma once

#include <deque>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "transport/cubic.hpp"

namespace wheels::transport {

/// Congestion-control algorithm for a bulk flow. The paper's nuttcp tests
/// ran Linux's default CUBIC; the BBR variant exists for the ablation_cc
/// experiment (model-based pacing keeps cellular queues short instead of
/// filling them — the bufferbloat alternative).
enum class CcAlgo { Cubic, Bbr };

std::string_view cc_algo_name(CcAlgo a);
/// Exact reverse of cc_algo_name. Throws std::runtime_error
/// "unknown cc algorithm 'x' (expected cubic|bbr)" on any other text.
CcAlgo parse_cc_algo(std::string_view text);

struct TcpFlowConfig {
  CcAlgo algo = CcAlgo::Cubic;
  Millis fluid_step = 50.0;
  /// Bottleneck buffer in multiples of the instantaneous BDP.
  double buffer_bdp_factor = 4.0;
  /// Minimum buffer (bytes) — cellular schedulers buffer deeply even on
  /// slow bearers.
  double min_buffer_bytes = 256.0 * 1024.0;
  /// Residual random loss probability per fluid step (post-HARQ).
  double random_loss_p = 2e-4;
};

class TcpBulkFlow {
 public:
  TcpBulkFlow(Millis base_rtt, Rng rng, TcpFlowConfig config = {});

  /// Advance the flow by `dt` with the given bottleneck capacity; returns
  /// the bytes delivered to the application during `dt`.
  double advance(Mbps capacity, Millis dt);

  /// Queueing delay currently added by the bottleneck buffer.
  Millis queue_delay() const { return queue_delay_; }
  /// Smoothed RTT the sender currently observes.
  Millis srtt() const { return base_rtt_ + queue_delay_; }
  double cwnd_segments() const { return cubic_.cwnd_segments(); }
  double total_delivered_bytes() const { return total_delivered_; }
  /// BBR's current bottleneck-bandwidth estimate (Mbps); 0 under CUBIC.
  Mbps btl_bw_estimate() const { return btl_bw_ * 8.0 / 1e6; }

  /// Update the path RTT (e.g. when the serving server changes).
  void set_base_rtt(Millis rtt) { base_rtt_ = rtt; }

 private:
  double bbr_send_rate_bps();
  void bbr_on_delivered(double bytes, Millis step);

  Cubic cubic_;
  TcpFlowConfig config_;
  Millis base_rtt_;
  Rng rng_;
  Millis now_ = 0.0;
  double queue_bytes_ = 0.0;
  Millis queue_delay_ = 0.0;
  double total_delivered_ = 0.0;

  // --- BBR state (used when config_.algo == CcAlgo::Bbr) ---
  /// Windowed max-filter of delivered rate samples (time, bytes/s).
  std::deque<std::pair<Millis, double>> bw_samples_;
  double btl_bw_ = 0.0;  // bytes/s
  bool startup_done_ = false;
  double startup_prev_bw_ = 0.0;
  int startup_stall_rounds_ = 0;
  Millis last_startup_check_ = 0.0;
};

}  // namespace wheels::transport
