// Property-based sweeps across the full (carrier × technology × direction ×
// speed) grid: invariants that must hold for every configuration, not just
// the calibrated ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "geo/route.hpp"
#include "geo/scaled_route.hpp"
#include "net/latency.hpp"
#include "net/server.hpp"
#include "radio/band_plan.hpp"
#include "radio/channel.hpp"
#include "radio/deployment.hpp"
#include "ran/handover.hpp"
#include "ran/service_policy.hpp"
#include "replay/trace_channel.hpp"

namespace wheels {
namespace {

using radio::Carrier;
using radio::Direction;
using radio::Technology;

// ---------------------------------------------------------------------------
// Band plans.

class BandPlanGrid
    : public ::testing::TestWithParam<std::tuple<Carrier, Technology>> {};

TEST_P(BandPlanGrid, PlanIsPhysicallySane) {
  const auto [carrier, tech] = GetParam();
  const radio::BandPlan p = radio::band_plan(carrier, tech);
  EXPECT_GT(p.freq_ghz, 0.3);
  EXPECT_LT(p.freq_ghz, 60.0);
  EXPECT_GT(p.cc_bandwidth_mhz, 1.0);
  EXPECT_LE(p.cc_bandwidth_mhz, 400.0);
  EXPECT_GE(p.max_cc_dl, 1);
  EXPECT_LE(p.max_cc_dl, 8);
  EXPECT_GE(p.max_cc_ul, 1);
  EXPECT_LE(p.max_cc_ul, p.max_cc_dl);
  EXPECT_GE(p.layers_dl, p.layers_ul);
  EXPECT_GT(p.ul_duty, 0.0);
  EXPECT_LE(p.ul_duty, 1.0);
  EXPECT_GT(radio::cc_peak_rate(p, true), radio::cc_peak_rate(p, false) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, BandPlanGrid,
    ::testing::Combine(::testing::ValuesIn(radio::kAllCarriers),
                       ::testing::ValuesIn(radio::kAllTechnologies)));

// ---------------------------------------------------------------------------
// Channel model.

class ChannelGrid
    : public ::testing::TestWithParam<
          std::tuple<Carrier, Technology, double /*speed*/>> {};

TEST_P(ChannelGrid, SamplesAlwaysWithinPhysicalBounds) {
  const auto [carrier, tech, speed] = GetParam();
  radio::CellSite cell;
  cell.id = 1;
  cell.carrier = carrier;
  cell.tech = tech;
  cell.center_km = 50.0;
  cell.radius_km = radio::tech_geometry(tech).cell_spacing_km * 0.65;

  radio::ChannelModel ch{carrier, Rng{stable_hash("grid", 1234)}};
  ch.attach(cell);
  Km km = cell.center_km - cell.radius_km;
  const radio::BandPlan plan = radio::band_plan(carrier, tech);
  for (int i = 0; i < 1500; ++i) {
    km += km_per_ms_from_mph(speed) * 500.0;
    if (km > cell.center_km + cell.radius_km) {
      km = cell.center_km - cell.radius_km;
    }
    const radio::LinkKpis k = ch.sample(cell, km, speed, 500.0);
    EXPECT_GE(k.capacity_dl, 0.0);
    EXPECT_LE(k.capacity_dl, radio::kDeviceCapDl + 1e-9);
    EXPECT_GE(k.capacity_ul, 0.0);
    EXPECT_LE(k.capacity_ul, radio::kDeviceCapUl + 1e-9);
    EXPECT_GE(k.mcs_dl, 0);
    EXPECT_LE(k.mcs_dl, 28);
    EXPECT_GE(k.mcs_ul, 0);
    EXPECT_LE(k.mcs_ul, 28);
    EXPECT_GE(k.cc_dl, 1);
    EXPECT_LE(k.cc_dl, plan.max_cc_dl);
    EXPECT_GE(k.cc_ul, 1);
    EXPECT_LE(k.cc_ul, plan.max_cc_ul);
    EXPECT_GE(k.bler_dl, 0.0);
    EXPECT_LE(k.bler_dl, 1.0);
    EXPECT_TRUE(std::isfinite(k.rsrp));
    EXPECT_LT(k.rsrp, -20.0);
  }
}

TEST_P(ChannelGrid, StaticBeatsDrivingOnAverage) {
  const auto [carrier, tech, speed] = GetParam();
  if (speed < 25.0) GTEST_SKIP() << "only meaningful at speed";
  radio::CellSite cell;
  cell.id = 1;
  cell.carrier = carrier;
  cell.tech = tech;
  cell.center_km = 50.0;
  cell.radius_km = radio::tech_geometry(tech).cell_spacing_km * 0.65;

  radio::ChannelModel stat{carrier, Rng{1}};
  radio::ChannelModel drive{carrier, Rng{1}};
  stat.attach(cell);
  drive.attach(cell);
  double s = 0.0, d = 0.0;
  Km km = cell.center_km - cell.radius_km;
  constexpr int n = 3000;
  for (int i = 0; i < n; ++i) {
    s += stat.sample_static_best(cell, 500.0).capacity_dl;
    km += km_per_ms_from_mph(speed) * 500.0;
    if (km > cell.center_km + cell.radius_km) {
      km = cell.center_km - cell.radius_km;
    }
    d += drive.sample(cell, km, speed, 500.0).capacity_dl;
  }
  EXPECT_GT(s / n, d / n);
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, ChannelGrid,
    ::testing::Combine(::testing::ValuesIn(radio::kAllCarriers),
                       ::testing::ValuesIn(radio::kAllTechnologies),
                       ::testing::Values(5.0, 40.0, 70.0)));

// ---------------------------------------------------------------------------
// Service policy.

class PolicyGrid : public ::testing::TestWithParam<
                       std::tuple<Carrier, ran::TrafficProfile, int>> {};

TEST_P(PolicyGrid, ProbabilitiesValidAndSelectionClosed) {
  const auto [carrier, traffic, tz_i] = GetParam();
  const auto tz = static_cast<geo::Timezone>(tz_i);
  for (Technology t : radio::kAllTechnologies) {
    const double p = ran::upgrade_probability(carrier, t, traffic, tz);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Selection always returns something from the available set.
  Rng rng{99};
  const std::vector<Technology> avail{Technology::Lte, Technology::NrMid};
  for (int i = 0; i < 200; ++i) {
    const Technology got =
        ran::select_technology(carrier, avail, traffic, tz, rng);
    EXPECT_TRUE(got == Technology::Lte || got == Technology::NrMid);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyGrid,
    ::testing::Combine(
        ::testing::ValuesIn(radio::kAllCarriers),
        ::testing::Values(ran::TrafficProfile::IdlePing,
                          ran::TrafficProfile::BackloggedDownlink,
                          ran::TrafficProfile::BackloggedUplink,
                          ran::TrafficProfile::Interactive),
        ::testing::Range(0, geo::kTimezoneCount)));

// ---------------------------------------------------------------------------
// Handover durations.

class HandoverGrid
    : public ::testing::TestWithParam<std::tuple<Carrier, int, bool>> {};

TEST_P(HandoverGrid, DurationsPositiveAndBounded) {
  const auto [carrier, dir_i, vertical] = GetParam();
  const auto dir = static_cast<Direction>(dir_i);
  Rng rng{7};
  for (int i = 0; i < 2000; ++i) {
    const Millis d = ran::sample_handover_duration(carrier, dir, vertical, rng);
    EXPECT_GT(d, 5.0);
    EXPECT_LT(d, 2'000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHandovers, HandoverGrid,
    ::testing::Combine(::testing::ValuesIn(radio::kAllCarriers),
                       ::testing::Range(0, 2), ::testing::Bool()));

// ---------------------------------------------------------------------------
// RTT model.

class RttGrid : public ::testing::TestWithParam<
                    std::tuple<Carrier, Technology, double>> {};

TEST_P(RttGrid, SamplesPositiveFiniteCapped) {
  const auto [carrier, tech, speed] = GetParam();
  const geo::Route route = geo::Route::cross_country();
  const net::ServerFleet fleet = net::ServerFleet::standard(route);
  const auto pt = route.at(2'000.0);
  const net::Server& server = fleet.cloud_for(pt.tz);
  net::RttProcess proc{carrier, Rng{11}};
  const Millis base = net::base_rtt(carrier, tech, server, pt.pos);
  EXPECT_GT(base, 5.0);
  EXPECT_LT(base, 200.0);
  for (int i = 0; i < 2000; ++i) {
    const Millis r = proc.sample(tech, server, pt.pos, speed, 0.0, 0.0);
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 3'000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRtts, RttGrid,
    ::testing::Combine(::testing::ValuesIn(radio::kAllCarriers),
                       ::testing::ValuesIn(radio::kAllTechnologies),
                       ::testing::Values(0.0, 65.0)));

// ---------------------------------------------------------------------------
// Deployment scale invariance.

class DeploymentScaleGrid : public ::testing::TestWithParam<double> {};

TEST_P(DeploymentScaleGrid, CoverageShareScaleInvariant) {
  // The fraction of physical km with midband coverage should not depend on
  // the map scale (it's the whole point of ScaledRoute).
  const double scale = GetParam();
  const geo::Route route = geo::Route::cross_country();

  auto midband_share = [&](double s, std::uint64_t seed) {
    const geo::ScaledRoute view{route, s};
    radio::Deployment dep{view, Carrier::TMobile, Rng{seed}};
    int covered = 0, total = 0;
    for (Km km = 0.0; km < view.total_physical_km(); km += 0.7) {
      covered += dep.has(Technology::NrMid, km);
      ++total;
    }
    return static_cast<double>(covered) / total;
  };

  // Average over seeds to tame zone-level randomness at small scales.
  double at_scale = 0.0, at_full = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    at_scale += midband_share(scale, seed) / 4.0;
    at_full += midband_share(1.0, seed) / 4.0;
  }
  EXPECT_NEAR(at_scale, at_full, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Scales, DeploymentScaleGrid,
                         ::testing::Values(0.05, 0.1, 0.3, 0.6));

// ---------------------------------------------------------------------------
// Propagation grid.

class PropagationGrid
    : public ::testing::TestWithParam<std::tuple<Carrier, Technology>> {};

TEST_P(PropagationGrid, SnrMapsIntoModemRange) {
  const auto [carrier, tech] = GetParam();
  for (Km d = 0.05; d < 10.0; d *= 1.5) {
    const Dbm rsrp = radio::mean_rsrp(carrier, tech, d);
    const Db snr = radio::snr_from_rsrp(tech, rsrp);
    EXPECT_GE(snr, -10.0);
    EXPECT_LE(snr, 32.0);
  }
  // Close to the site, every technology should be usable (positive SNR).
  EXPECT_GT(radio::snr_from_rsrp(tech, radio::mean_rsrp(carrier, tech, 0.1)),
            10.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPropagation, PropagationGrid,
    ::testing::Combine(::testing::ValuesIn(radio::kAllCarriers),
                       ::testing::ValuesIn(radio::kAllTechnologies)));

// ---------------------------------------------------------------------------
// TraceChannel (replay): invariants over random recorded timelines.

/// A random strictly-increasing timeline of `n` samples starting near t0.
std::vector<replay::TraceSample> random_timeline(Rng& rng, int n) {
  std::vector<replay::TraceSample> samples;
  SimMillis t = static_cast<SimMillis>(rng.uniform_int(0, 2000));
  for (int i = 0; i < n; ++i) {
    replay::TraceSample s;
    s.t = t;
    s.cap_dl = rng.uniform(0.0, 300.0);
    s.cap_ul = rng.uniform(0.0, 60.0);
    s.rtt = rng.uniform(5.0, 300.0);
    // Former rsrp and speed draws: kept so the timelines stay the same.
    (void)rng.uniform(-125.0, -70.0);
    (void)rng.uniform(0.0, 80.0);
    s.tech = radio::kAllTechnologies[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(radio::kAllTechnologies.size()) -
                               1))];
    samples.push_back(s);
    t += static_cast<SimMillis>(rng.uniform_int(1, 1500));
  }
  return samples;
}

class TraceChannelProperty : public ::testing::TestWithParam<int> {};

TEST_P(TraceChannelProperty, InterpolationStaysWithinBracketingSamples) {
  Rng rng = Rng{stable_hash("trace-prop", 99)}.fork(
      "lerp", static_cast<std::uint64_t>(GetParam()));
  const std::vector<replay::TraceSample> samples = random_timeline(rng, 24);
  const replay::TraceChannel ch{samples, {}, replay::HoldPolicy::Interpolate};
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const replay::TraceSample& a = samples[i];
    const replay::TraceSample& b = samples[i + 1];
    for (int k = 0; k < 5; ++k) {
      const SimMillis t =
          a.t + static_cast<SimMillis>(
                    rng.uniform(0.0, static_cast<double>(b.t - a.t)));
      const replay::TraceSample mid = ch.at(t);
      EXPECT_GE(mid.cap_dl, std::min(a.cap_dl, b.cap_dl));
      EXPECT_LE(mid.cap_dl, std::max(a.cap_dl, b.cap_dl));
      EXPECT_GE(mid.cap_ul, std::min(a.cap_ul, b.cap_ul));
      EXPECT_LE(mid.cap_ul, std::max(a.cap_ul, b.cap_ul));
      EXPECT_GE(mid.rtt, std::min(a.rtt, b.rtt));
      EXPECT_LE(mid.rtt, std::max(a.rtt, b.rtt));
      // Discrete fields never blend: the held value is the left sample's.
      EXPECT_EQ(mid.tech, a.tech);
    }
  }
  // Outside the recorded range the channel clamps to the end samples.
  EXPECT_EQ(ch.at(samples.front().t - 1).cap_dl,
            samples.front().cap_dl);
  EXPECT_EQ(ch.at(samples.back().t + 1).cap_dl,
            samples.back().cap_dl);
}

TEST_P(TraceChannelProperty, HoldIsPiecewiseConstant) {
  Rng rng = Rng{stable_hash("trace-prop", 99)}.fork(
      "hold", static_cast<std::uint64_t>(GetParam()));
  const std::vector<replay::TraceSample> samples = random_timeline(rng, 24);
  const replay::TraceChannel ch{samples, {}, replay::HoldPolicy::Hold};
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const replay::TraceSample& a = samples[i];
    for (int k = 0; k < 5; ++k) {
      // Every instant of [a.t, next.t) reports exactly sample a.
      const SimMillis t =
          a.t + static_cast<SimMillis>(rng.uniform(
                    0.0, static_cast<double>(samples[i + 1].t - a.t - 1)));
      const replay::TraceSample held = ch.at(t);
      EXPECT_EQ(held.cap_dl, a.cap_dl);
      EXPECT_EQ(held.cap_ul, a.cap_ul);
      EXPECT_EQ(held.rtt, a.rtt);
      EXPECT_EQ(held.tech, a.tech);
    }
  }
}

TEST_P(TraceChannelProperty, HandoversRefireInNondecreasingOrderOnce) {
  Rng rng = Rng{stable_hash("trace-prop", 99)}.fork(
      "ho", static_cast<std::uint64_t>(GetParam()));
  const std::vector<replay::TraceSample> samples = random_timeline(rng, 12);
  // Hand the constructor a shuffled event list: recorded order on disk is
  // not guaranteed, the channel must normalize it.
  std::vector<ran::HandoverEvent> events;
  for (int i = 0; i < 30; ++i) {
    ran::HandoverEvent h;
    h.t = static_cast<SimMillis>(rng.uniform_int(
        static_cast<int>(samples.front().t),
        static_cast<int>(samples.back().t)));
    h.duration = rng.uniform(10.0, 800.0);
    events.push_back(h);
  }
  const replay::TraceChannel ch{samples, events, replay::HoldPolicy::Hold};
  SimMillis prev = 0;
  for (const ran::HandoverEvent& h : ch.handovers()) {
    EXPECT_GE(h.t, prev);
    prev = h.t;
  }
  // Sweeping consecutive windows over the whole trace re-fires every event
  // exactly once, and never blanks more than the window.
  const Millis dt = 500.0;
  int refired = 0;
  for (SimMillis t = samples.front().t - 1000;
       t <= samples.back().t + 1000; t += static_cast<SimMillis>(dt)) {
    const replay::TraceEvents in = ch.events_in(t, dt);
    EXPECT_GE(in.handovers, 0);
    EXPECT_GE(in.interruption, 0.0);
    EXPECT_LE(in.interruption, dt);
    refired += in.handovers;
  }
  EXPECT_EQ(refired, 30);
}

INSTANTIATE_TEST_SUITE_P(RandomTimelines, TraceChannelProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace wheels
