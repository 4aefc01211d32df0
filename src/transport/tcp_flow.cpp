#include "transport/tcp_flow.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/obs/metrics.hpp"

namespace wheels::transport {

namespace {

// Loss events are driven by the seeded Rng and the deterministic fluid
// model, so these counters belong in the deterministic snapshot.
core::obs::MetricId retransmits_id() {
  static const core::obs::MetricId id =
      core::obs::MetricsRegistry::global().counter_id("transport.retransmits");
  return id;
}

const core::obs::MetricsRegistry::HistogramHandle& srtt_hist() {
  static const core::obs::MetricsRegistry::HistogramHandle h =
      core::obs::MetricsRegistry::global().histogram("transport.srtt_ms");
  return h;
}

}  // namespace

std::string_view cc_algo_name(CcAlgo a) {
  return a == CcAlgo::Cubic ? "cubic" : "bbr";
}

CcAlgo parse_cc_algo(std::string_view text) {
  for (const CcAlgo a : {CcAlgo::Cubic, CcAlgo::Bbr}) {
    if (text == cc_algo_name(a)) return a;
  }
  throw std::runtime_error{"unknown cc algorithm '" + std::string{text} +
                           "' (expected cubic|bbr)"};
}

TcpBulkFlow::TcpBulkFlow(Millis base_rtt, Rng rng, TcpFlowConfig config)
    : config_(config), base_rtt_(base_rtt), rng_(std::move(rng)) {}

void TcpBulkFlow::bbr_on_delivered(double bytes, Millis step) {
  const double rate = bytes / (step / 1000.0);  // bytes/s
  bw_samples_.emplace_back(now_, rate);
  // Max filter over ~2.5 s: stale samples expire so the estimate tracks
  // capacity drops (outages) within a couple of seconds.
  while (!bw_samples_.empty() && now_ - bw_samples_.front().first > 2'500.0) {
    bw_samples_.pop_front();
  }
  btl_bw_ = 0.0;
  for (const auto& [t, r] : bw_samples_) btl_bw_ = std::max(btl_bw_, r);

  // Startup exits when the bandwidth estimate plateaus (<5% growth across
  // three consecutive RTT-ish checks).
  if (!startup_done_ && now_ - last_startup_check_ >= base_rtt_) {
    last_startup_check_ = now_;
    if (btl_bw_ < startup_prev_bw_ * 1.05) {
      if (++startup_stall_rounds_ >= 3) startup_done_ = true;
    } else {
      startup_stall_rounds_ = 0;
    }
    startup_prev_bw_ = btl_bw_;
  }
}

double TcpBulkFlow::bbr_send_rate_bps() {
  // Initial rate: 10 segments per RTT.
  const double floor_rate =
      10.0 * Cubic::kMssBytes / (base_rtt_ / 1000.0);  // bytes/s
  const double bw = std::max(btl_bw_, floor_rate);

  double gain;
  if (!startup_done_) {
    gain = 2.0;  // startup: doubling per round (2/ln2 in real BBR)
  } else {
    // ProbeBW gain cycle, one phase per RTT.
    static constexpr double kGains[8] = {1.25, 0.75, 1.0, 1.0,
                                         1.0,  1.0,  1.0, 1.0};
    const auto phase = static_cast<std::size_t>(
                           now_ / std::max(base_rtt_, 10.0)) %
                       8;
    gain = kGains[phase];
  }

  // Inflight cap at 2xBDP: once the standing queue reaches ~1 BDP, pacing
  // backs off regardless of the gain — this is what keeps BBR's queues
  // short where CUBIC fills the buffer.
  const double bdp_bytes = bw * (base_rtt_ / 1000.0);
  if (queue_bytes_ > bdp_bytes) gain = std::min(gain, 0.5);

  return bw * gain * 8.0;  // bits/s
}

double TcpBulkFlow::advance(Mbps capacity, Millis dt) {
  double delivered_bytes = 0.0;
  Millis remaining = dt;

  while (remaining > 1e-9) {
    const Millis step = std::min(config_.fluid_step, remaining);
    remaining -= step;
    now_ += step;

    const Millis srtt_now = base_rtt_ + queue_delay_;
    const double send_rate_bps =
        config_.algo == CcAlgo::Bbr
            ? bbr_send_rate_bps()
            : cubic_.cwnd_segments() * Cubic::kMssBytes * 8.0 /
                  (srtt_now / 1000.0);
    const double arrivals = send_rate_bps / 8.0 * (step / 1000.0);  // bytes
    const double service = capacity * 1e6 / 8.0 * (step / 1000.0);  // bytes

    const double backlog = queue_bytes_ + arrivals;
    const double out = std::min(backlog, service);
    queue_bytes_ = backlog - out;
    delivered_bytes += out;

    // Buffer sizing tracks the instantaneous BDP, floored for slow bearers.
    const double bdp_bytes = capacity * 1e6 / 8.0 * (base_rtt_ / 1000.0);
    const double buffer =
        std::max(config_.min_buffer_bytes,
                 bdp_bytes * config_.buffer_bdp_factor);

    bool loss = false;
    if (queue_bytes_ > buffer) {
      queue_bytes_ = buffer;
      loss = true;
    }
    if (!loss && rng_.bernoulli(config_.random_loss_p)) loss = true;
    if (loss) core::obs::MetricsRegistry::global().add(retransmits_id());

    if (config_.algo == CcAlgo::Bbr) {
      // BBR v1 is loss-agnostic: it paces off the bandwidth model.
      bbr_on_delivered(out, step);
    } else if (loss) {
      cubic_.on_loss(now_);
    } else if (out > 0.0) {
      cubic_.on_ack(out / Cubic::kMssBytes, srtt_now, now_);
    }

    // Queue delay as seen by new arrivals.
    queue_delay_ = capacity > 1e-3
                       ? queue_bytes_ * 8.0 / (capacity * 1e6) * 1000.0
                       : std::min(queue_delay_ + step, 4'000.0);
  }

  // One sample per advance() call, not per fluid step, to keep the
  // instrumentation off the inner-loop hot path.
  core::obs::MetricsRegistry::global().observe(srtt_hist(),
                                               base_rtt_ + queue_delay_);

  total_delivered_ += delivered_bytes;
  return delivered_bytes;
}

}  // namespace wheels::transport
