#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels {
namespace {

transport::TcpFlowConfig bbr_config() {
  transport::TcpFlowConfig cfg;
  cfg.algo = transport::CcAlgo::Bbr;
  return cfg;
}

TEST(Bbr, SaturatesStableLink) {
  transport::TcpBulkFlow flow{50.0, Rng{1}, bbr_config()};
  for (int i = 0; i < 20; ++i) flow.advance(100.0, 500.0);
  double sum = 0.0;
  constexpr int n = 40;
  for (int i = 0; i < n; ++i) sum += flow.advance(100.0, 500.0);
  const Mbps rate = sum * 8.0 / 1e6 / (n * 0.5);
  EXPECT_GT(rate, 85.0);
  EXPECT_LE(rate, 101.0);
}

TEST(Bbr, KeepsQueueNearOneBdpWhereCubicFillsBuffer) {
  transport::TcpBulkFlow bbr{60.0, Rng{2}, bbr_config()};
  transport::TcpBulkFlow cubic{60.0, Rng{2}};
  for (int i = 0; i < 60; ++i) {
    bbr.advance(50.0, 500.0);
    cubic.advance(50.0, 500.0);
  }
  // BDP at 50 Mbps x 60 ms = 375 KB -> ~60 ms of queue at most for BBR.
  EXPECT_LT(bbr.queue_delay(), 90.0);
  EXPECT_GT(cubic.queue_delay(), 1.8 * bbr.queue_delay());
}

TEST(Bbr, TracksCapacityDrop) {
  transport::TcpBulkFlow flow{40.0, Rng{3}, bbr_config()};
  for (int i = 0; i < 30; ++i) flow.advance(80.0, 500.0);
  EXPECT_GT(flow.btl_bw_estimate(), 50.0);
  // Capacity collapses; the max filter expires within ~2.5 s.
  for (int i = 0; i < 12; ++i) flow.advance(3.0, 500.0);
  EXPECT_LT(flow.btl_bw_estimate(), 10.0);
  // And recovers.
  double sum = 0.0;
  for (int i = 0; i < 40; ++i) sum += flow.advance(80.0, 500.0);
  EXPECT_GT(sum * 8.0 / 1e6 / 20.0, 50.0);
}

TEST(Bbr, LossAgnostic) {
  transport::TcpFlowConfig cfg = bbr_config();
  cfg.random_loss_p = 0.05;  // 5% per fluid step would cripple CUBIC
  transport::TcpBulkFlow bbr{50.0, Rng{4}, cfg};
  transport::TcpFlowConfig ccfg;
  ccfg.random_loss_p = 0.05;
  transport::TcpBulkFlow cubic{50.0, Rng{4}, ccfg};
  double b = 0.0, c = 0.0;
  for (int i = 0; i < 60; ++i) {
    b += bbr.advance(100.0, 500.0);
    c += cubic.advance(100.0, 500.0);
  }
  EXPECT_GT(b, 2.0 * c);
}

TEST(Bbr, Deterministic) {
  transport::TcpBulkFlow a{50.0, Rng{5}, bbr_config()};
  transport::TcpBulkFlow b{50.0, Rng{5}, bbr_config()};
  for (int i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(a.advance(70.0, 500.0), b.advance(70.0, 500.0));
  }
}

TEST(Bbr, CcAlgoNames) {
  EXPECT_EQ(transport::cc_algo_name(transport::CcAlgo::Cubic), "cubic");
  EXPECT_EQ(transport::cc_algo_name(transport::CcAlgo::Bbr), "bbr");
}

}  // namespace
}  // namespace wheels
