#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/correlations.hpp"
#include "analysis/handover_impact.hpp"
#include "analysis/pairing.hpp"
#include "analysis/queries.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "core/rng.hpp"

namespace wheels::analysis {
namespace {

TEST(Stats, SummaryKnownValues) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEmptyAndSingle) {
  EXPECT_EQ(summarize({}).n, 0u);
  const std::vector<double> one{7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
}

TEST(Stats, CdfQuantilesInterpolate) {
  Cdf cdf{{10.0, 20.0, 30.0, 40.0, 50.0}};
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.125), 15.0);  // interpolated
}

TEST(Stats, CdfFractionBelow) {
  Cdf cdf{{1.0, 2.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
}

TEST(Stats, CdfHandlesUnsortedInput) {
  Cdf cdf{{5.0, 1.0, 3.0}};
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
}

TEST(Stats, PearsonPerfectAndInverse) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  const std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateCases) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> constant{5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
  const std::vector<double> one{1.0};
  EXPECT_DOUBLE_EQ(pearson(one, one), 0.0);
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng{99};
  std::vector<double> x(20'000), y(20'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal(0, 1);
    y[i] = rng.normal(0, 1);
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Stats, MedianOfEvenOdd) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

/// 1.0, 2.0, ..., n: x(i) = i, so an interval's ends are its 1-based ranks.
std::vector<double> ranks_1_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(MedianCi, HandComputedRanks) {
  // n = 8: floor(4 - z·√8/2) = 1, so [x(1), x(8)].
  const ConfidenceInterval small = median_ci(ranks_1_to(8));
  EXPECT_EQ(small.lo, 1.0);
  EXPECT_EQ(small.hi, 8.0);
  EXPECT_EQ(small.point, 4.5);
  // n = 100: floor(50 - z·10/2) = 40, u = 101 - 40 = 61.
  const ConfidenceInterval big = median_ci(ranks_1_to(100));
  EXPECT_EQ(big.lo, 40.0);
  EXPECT_EQ(big.hi, 61.0);
  EXPECT_EQ(big.point, 50.5);
}

TEST(MedianCi, SingleSampleHasZeroWidth) {
  const std::vector<double> a{7.0};
  const std::vector<double> b{3.0};
  const ConfidenceInterval ci = median_ci(a);
  EXPECT_EQ(ci.lo, 7.0);
  EXPECT_EQ(ci.hi, 7.0);
  EXPECT_EQ(ci.point, 7.0);
  const ConfidenceInterval delta = median_delta_ci(a, b);
  EXPECT_EQ(delta.point, 4.0);
  EXPECT_EQ(delta.lo, 4.0);
  EXPECT_EQ(delta.hi, 4.0);
}

TEST(MedianCi, HandComputedDelta) {
  // Each side: l = 40, u = 61, se = (61 - 40)·√100 / (2·21) = 5.
  const std::vector<double> a = ranks_1_to(100);
  std::vector<double> b = a;
  for (double& x : b) x += 10.0;
  const ConfidenceInterval delta = median_delta_ci(a, b);
  const double half = 1.959963984540054 * std::sqrt(50.0);
  EXPECT_EQ(delta.point, -10.0);
  EXPECT_DOUBLE_EQ(delta.lo, -10.0 - half);
  EXPECT_DOUBLE_EQ(delta.hi, -10.0 + half);
}

TEST(MedianCi, RejectsEmptyInput) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW((void)median_ci({}), std::invalid_argument);
  EXPECT_THROW((void)median_delta_ci({}, xs), std::invalid_argument);
  EXPECT_THROW((void)median_delta_ci(xs, {}), std::invalid_argument);
}

/// Over 2,000 replications at n = 500 and 1000, median_ci must cover the
/// true median `truth`, and median_delta_ci against a second sample of
/// n + n/3 draws shifted by +5 must cover -5, 93-97% of the time.
template <typename Draw>
void expect_coverage(std::string_view dist, double truth, Draw draw) {
  constexpr int kReps = 2000;
  for (const std::size_t n : {std::size_t{500}, std::size_t{1000}}) {
    Rng rng = Rng{1}.fork(dist, n);
    std::vector<double> a(n);
    std::vector<double> b(n + n / 3);
    int median_hits = 0;
    int delta_hits = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (double& x : a) x = draw(rng);
      for (double& x : b) x = draw(rng) + 5.0;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      median_hits += median_ci(a).contains(truth) ? 1 : 0;
      delta_hits += median_delta_ci(a, b).contains(-5.0) ? 1 : 0;
    }
    const double median_cover = median_hits / static_cast<double>(kReps);
    const double delta_cover = delta_hits / static_cast<double>(kReps);
    EXPECT_GE(median_cover, 0.93) << dist << " n=" << n;
    EXPECT_LE(median_cover, 0.97) << dist << " n=" << n;
    EXPECT_GE(delta_cover, 0.93) << dist << " n=" << n;
    EXPECT_LE(delta_cover, 0.97) << dist << " n=" << n;
  }
}

TEST(MedianCi, CoverageNormal) {
  expect_coverage("normal", 50.0,
                  [](Rng& r) { return r.normal(50.0, 10.0); });
}

TEST(MedianCi, CoverageLognormal) {
  expect_coverage("lognormal", std::exp(3.0),
                  [](Rng& r) { return r.lognormal(3.0, 1.0); });
}

TEST(MedianCi, CoverageExponential) {
  // Mean 10: rate 0.1, median 10·ln 2.
  expect_coverage("exponential", 10.0 * std::log(2.0),
                  [](Rng& r) { return r.exponential(0.1); });
}

TEST(MedianCi, CoverageUniform) {
  expect_coverage("uniform", 50.0,
                  [](Rng& r) { return r.uniform(0.0, 100.0); });
}

TEST(Stats, KsDistanceIdenticalAndDisjoint) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ks_distance(a, a), 0.0);
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(ks_distance(b, a), 1.0);
}

TEST(Stats, KsDistanceHandComputed) {
  // CDFs diverge most after x = 2: F_a = 1/2, F_b = 0 -> D = 1/2, and the
  // shared values 3 and 4 must advance both CDFs together (tie handling).
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{3.0, 4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.5);
  // Unequal sizes: after x = 1, F_a = 1/2 vs F_b = 0.
  const std::vector<double> c{1.0, 3.0};
  const std::vector<double> d{2.0};
  EXPECT_DOUBLE_EQ(ks_distance(c, d), 0.5);
  // Duplicates inside both samples: after the 1s, F_a = 2/3 vs F_b = 1/3.
  const std::vector<double> e{1.0, 1.0, 2.0};
  const std::vector<double> f{1.0, 2.0, 2.0};
  EXPECT_NEAR(ks_distance(e, f), 1.0 / 3.0, 1e-15);
}

TEST(Stats, KsDistanceIgnoresInputOrder) {
  const std::vector<double> a{5.0, 1.0, 3.0, 2.0, 4.0};
  const std::vector<double> a_sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> b{2.5, 4.5, 0.5};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), ks_distance(a_sorted, b));
}

TEST(Stats, KsDistanceRejectsEmptySamples) {
  const std::vector<double> a{1.0};
  EXPECT_THROW((void)ks_distance({}, a), std::invalid_argument);
  EXPECT_THROW((void)ks_distance(a, {}), std::invalid_argument);
}

TEST(Coverage, SegmentsShareSumToOne) {
  std::vector<measure::CoverageSegment> segs{
      {0.0, 30.0, radio::Technology::Lte},
      {30.0, 50.0, radio::Technology::NrMid},
      {50.0, 100.0, radio::Technology::LteA},
  };
  const TechShares s = coverage_from_segments(segs);
  EXPECT_NEAR(share_of(s, radio::Technology::Lte), 0.30, 1e-12);
  EXPECT_NEAR(share_of(s, radio::Technology::NrMid), 0.20, 1e-12);
  EXPECT_NEAR(share_of(s, radio::Technology::LteA), 0.50, 1e-12);
  EXPECT_NEAR(five_g_share(s), 0.20, 1e-12);
  EXPECT_NEAR(high_speed_share(s), 0.20, 1e-12);
  double total = 0.0;
  for (double v : s) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Coverage, EmptySegments) {
  const TechShares s = coverage_from_segments({});
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Coverage, KpiCoverageIsDistanceWeighted) {
  measure::ConsolidatedDb db;
  // One fast LTE tick and one slow NrMid tick: LTE should get more miles.
  measure::KpiRecord fast;
  fast.tech = radio::Technology::Lte;
  fast.speed = 60.0;
  measure::KpiRecord slow;
  slow.tech = radio::Technology::NrMid;
  slow.speed = 20.0;
  db.kpis = {fast, slow};
  const TechShares s =
      coverage_from_kpis(db, [](const measure::KpiRecord&) { return true; });
  EXPECT_NEAR(share_of(s, radio::Technology::Lte), 0.75, 1e-9);
  EXPECT_NEAR(share_of(s, radio::Technology::NrMid), 0.25, 1e-9);
}

TEST(Coverage, StripGlyphsAndTierPriority) {
  std::vector<measure::CoverageSegment> segs{
      {0.0, 100.0, radio::Technology::Lte},
      {40.0, 60.0, radio::Technology::NrMmWave},
  };
  const std::string strip = coverage_strip(segs, 100.0, 10);
  EXPECT_EQ(strip.size(), 10u);
  EXPECT_EQ(strip[0], '.');
  EXPECT_EQ(strip[5], 'W');  // mmWave wins the overlapping bin
}

TEST(Queries, KpiFilterMatchesAllWhenUnset) {
  measure::KpiRecord k;
  EXPECT_TRUE(KpiFilter{}.matches(k));
}

TEST(Queries, KpiFilterFields) {
  measure::KpiRecord k;
  k.carrier = radio::Carrier::TMobile;
  k.direction = radio::Direction::Uplink;
  k.tech = radio::Technology::NrMid;
  k.speed = 65.0;
  k.is_static = false;

  KpiFilter f;
  f.carrier = radio::Carrier::TMobile;
  f.speed_bin = geo::SpeedBin::High;
  EXPECT_TRUE(f.matches(k));
  f.carrier = radio::Carrier::Att;
  EXPECT_FALSE(f.matches(k));
  f.carrier = radio::Carrier::TMobile;
  f.speed_bin = geo::SpeedBin::Low;
  EXPECT_FALSE(f.matches(k));
  f.speed_bin.reset();
  f.is_static = true;
  EXPECT_FALSE(f.matches(k));
}

measure::ConsolidatedDb tiny_db() {
  measure::ConsolidatedDb db;
  measure::TestRecord t;
  t.id = 1;
  t.type = measure::TestType::DownlinkBulk;
  t.carrier = radio::Carrier::Verizon;
  t.direction = radio::Direction::Downlink;
  t.start_km = 0.0;
  t.end_km = 1.609344;  // exactly one mile
  db.tests.push_back(t);

  for (int i = 0; i < 8; ++i) {
    measure::KpiRecord k;
    k.test_id = 1;
    k.t = i * 500;
    k.carrier = radio::Carrier::Verizon;
    k.direction = radio::Direction::Downlink;
    k.tech = i < 4 ? radio::Technology::LteA : radio::Technology::NrMid;
    k.throughput = 10.0 + i;
    k.handovers = i == 4 ? 1 : 0;
    db.kpis.push_back(k);
  }
  measure::HandoverRecord ho;
  ho.test_id = 1;
  ho.carrier = radio::Carrier::Verizon;
  ho.direction = radio::Direction::Downlink;
  ho.event.t = 4 * 500;
  ho.event.duration = 60.0;
  ho.event.type = ran::HandoverType::FourToFive;
  db.handovers.push_back(ho);
  return db;
}

TEST(Queries, PerTestThroughputAggregates) {
  const auto db = tiny_db();
  const auto stats =
      per_test_throughput(db, radio::Carrier::Verizon,
                          radio::Direction::Downlink);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NEAR(stats[0].mean, 13.5, 1e-12);
  EXPECT_NEAR(stats[0].high_speed_5g_fraction, 0.5, 1e-12);
  EXPECT_EQ(stats[0].handovers, 1);
  EXPECT_NEAR(stats[0].distance_km, 1.609344, 1e-9);
}

TEST(HandoverImpact, PerMileNormalization) {
  const auto db = tiny_db();
  const auto rates = handovers_per_mile(db, radio::Carrier::Verizon,
                                        radio::Direction::Downlink);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0], 1.0, 1e-9);  // 1 HO over exactly 1 mile
}

TEST(HandoverImpact, DurationsExtracted) {
  const auto db = tiny_db();
  const auto durations = handover_durations(db, radio::Carrier::Verizon,
                                            radio::Direction::Downlink);
  ASSERT_EQ(durations.size(), 1u);
  EXPECT_DOUBLE_EQ(durations[0], 60.0);
}

TEST(HandoverImpact, DeltasMatchHandComputation) {
  const auto db = tiny_db();
  // Throughputs are 10,11,12,13,14,15,16,17; HO during interval 4 (value 14).
  const auto deltas = handover_deltas(db, radio::Carrier::Verizon,
                                      radio::Direction::Downlink);
  ASSERT_EQ(deltas.size(), 1u);
  // ΔT1 = T4 − (T3+T5)/2 = 14 − 14 = 0
  EXPECT_NEAR(deltas[0].dt1, 0.0, 1e-12);
  // ΔT2 = (T5+T6)/2 − (T2+T3)/2 = 15.5 − 12.5 = 3
  EXPECT_NEAR(deltas[0].dt2, 3.0, 1e-12);
  EXPECT_EQ(deltas[0].type, ran::HandoverType::FourToFive);
}

TEST(HandoverImpact, DeltasRequireContext) {
  auto db = tiny_db();
  // Move the HO to the first interval: no 2-interval pre-context.
  db.handovers[0].event.t = 0;
  const auto deltas = handover_deltas(db, radio::Carrier::Verizon,
                                      radio::Direction::Downlink);
  EXPECT_TRUE(deltas.empty());
}

TEST(HandoverImpact, DeltaValueFilters) {
  std::vector<HandoverDelta> deltas{
      {-1.0, 2.0, ran::HandoverType::FourToFour},
      {-3.0, -2.0, ran::HandoverType::FiveToFour},
  };
  EXPECT_EQ(delta_values(deltas, true).size(), 2u);
  EXPECT_EQ(delta_values(deltas, false, ran::HandoverType::FiveToFour).size(),
            1u);
  EXPECT_DOUBLE_EQ(
      delta_values(deltas, false, ran::HandoverType::FiveToFour)[0], -2.0);
}

TEST(Pairing, ConcurrentSamplesPairByTimestamp) {
  measure::ConsolidatedDb db;
  for (int i = 0; i < 4; ++i) {
    measure::KpiRecord v;
    v.t = i * 500;
    v.carrier = radio::Carrier::Verizon;
    v.direction = radio::Direction::Downlink;
    v.tech = radio::Technology::NrMmWave;
    v.throughput = 100.0;
    db.kpis.push_back(v);

    measure::KpiRecord t;
    t.t = i * 500;
    t.carrier = radio::Carrier::TMobile;
    t.direction = radio::Direction::Downlink;
    t.tech = i % 2 == 0 ? radio::Technology::NrMid : radio::Technology::Lte;
    t.throughput = 40.0;
    db.kpis.push_back(t);
  }
  const auto pa = pair_operators(db, radio::Carrier::Verizon,
                                 radio::Carrier::TMobile,
                                 radio::Direction::Downlink);
  ASSERT_EQ(pa.samples.size(), 4u);
  for (const auto& s : pa.samples) EXPECT_DOUBLE_EQ(s.diff, 60.0);
  const auto shares = pa.class_shares();
  EXPECT_DOUBLE_EQ(shares[static_cast<int>(TechClassPair::HtHt)], 0.5);
  EXPECT_DOUBLE_EQ(shares[static_cast<int>(TechClassPair::HtLt)], 0.5);
}

TEST(Pairing, StaticAndWrongDirectionExcluded) {
  measure::ConsolidatedDb db;
  measure::KpiRecord a;
  a.t = 0;
  a.carrier = radio::Carrier::Verizon;
  a.direction = radio::Direction::Uplink;
  db.kpis.push_back(a);
  measure::KpiRecord b = a;
  b.carrier = radio::Carrier::TMobile;
  db.kpis.push_back(b);
  measure::KpiRecord c = a;
  c.direction = radio::Direction::Downlink;
  c.is_static = true;
  db.kpis.push_back(c);

  EXPECT_EQ(pair_operators(db, radio::Carrier::Verizon,
                           radio::Carrier::TMobile,
                           radio::Direction::Downlink)
                .samples.size(),
            0u);
  EXPECT_EQ(pair_operators(db, radio::Carrier::Verizon,
                           radio::Carrier::TMobile, radio::Direction::Uplink)
                .samples.size(),
            1u);
}

TEST(Pairing, CanonicalPairsCoverAllCarriers) {
  const auto pairs = canonical_pairs();
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(Correlations, TableComputesFromDb) {
  const auto db = tiny_db();
  // Throughput rises 10..17; handovers spike once -> near zero correlation;
  // MCS is 0 everywhere -> exactly 0.
  EXPECT_DOUBLE_EQ(
      throughput_correlation(db, radio::Carrier::Verizon,
                             radio::Direction::Downlink, KpiFactor::Mcs),
      0.0);
  const double ho_corr =
      throughput_correlation(db, radio::Carrier::Verizon,
                             radio::Direction::Downlink,
                             KpiFactor::Handovers);
  EXPECT_LT(std::abs(ho_corr), 0.5);
}

TEST(Report, TableFormatsWithoutCrashing) {
  Table t({"a", "b"});
  t.add_row({"x", "y"});
  t.add_row({"longer-cell"});  // short row padded
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, Formatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_pct(0.125), "12.5%");
}

TEST(Report, CdfRowEmpty) {
  EXPECT_EQ(cdf_row(Cdf{{}}), "(no samples)");
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, QuantileMonotoneAndBounded) {
  Rng rng{123};
  std::vector<double> xs(999);
  for (auto& x : xs) x = rng.lognormal(2.0, 1.0);
  const Cdf cdf{xs};
  const double q = GetParam();
  const double v = cdf.quantile(q);
  EXPECT_GE(v, cdf.min());
  EXPECT_LE(v, cdf.max());
  if (q > 0.05) {
    EXPECT_GE(v, cdf.quantile(q - 0.05));
  }
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.99, 1.0));

}  // namespace
}  // namespace wheels::analysis
