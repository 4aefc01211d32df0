#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace wheels {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedDifferentStream) {
  Rng a{42}, b{43};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, SequentialSeedsDecorrelated) {
  // splitmix finalisation should make seed 1 and seed 2 unrelated.
  Rng a{1}, b{2};
  double mean_a = 0.0, mean_b = 0.0;
  constexpr int n = 10'000;
  for (int i = 0; i < n; ++i) {
    mean_a += a.uniform();
    mean_b += b.uniform();
  }
  EXPECT_NEAR(mean_a / n, 0.5, 0.02);
  EXPECT_NEAR(mean_b / n, 0.5, 0.02);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root{7};
  Rng a = root.fork("radio");
  Rng b = root.fork("radio");
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng r1{7}, r2{7};
  (void)r2.next_u64();  // burn parent entropy — must not affect children
  (void)r2.next_u64();
  Rng a = r1.fork("x");
  Rng b = r2.fork("x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkLabelsDistinct) {
  Rng root{7};
  EXPECT_NE(root.fork("a").next_u64(), root.fork("b").next_u64());
}

TEST(Rng, IndexedForksDistinct) {
  Rng root{7};
  Rng a = root.fork("cell", 0);
  Rng b = root.fork("cell", 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  Rng r{9};
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r{9};
  std::array<int, 4> seen{};
  for (int i = 0; i < 4'000; ++i) seen[static_cast<std::size_t>(r.uniform_int(0, 3))]++;
  for (int count : seen) EXPECT_GT(count, 700);
}

TEST(Rng, NormalMoments) {
  Rng r{11};
  constexpr int n = 50'000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng r{12};
  std::vector<double> xs(20'001);
  for (auto& x : xs) x = r.lognormal(std::log(60.0), 0.5);
  std::nth_element(xs.begin(), xs.begin() + 10'000, xs.end());
  EXPECT_NEAR(xs[10'000], 60.0, 3.0);
}

TEST(Rng, BernoulliEdges) {
  Rng r{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r{14};
  int hits = 0;
  constexpr int n = 20'000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r{15};
  const std::array<double, 3> w{1.0, 0.0, 3.0};
  std::array<int, 3> seen{};
  constexpr int n = 40'000;
  for (int i = 0; i < n; ++i) seen[r.weighted_index(w)]++;
  EXPECT_EQ(seen[1], 0);
  EXPECT_NEAR(static_cast<double>(seen[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(seen[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexIgnoresNegative) {
  Rng r{16};
  const std::array<double, 3> w{-5.0, 2.0, -1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.weighted_index(w), 1u);
}

TEST(Rng, WeightedIndexThrowsOnAllZero) {
  Rng r{17};
  const std::array<double, 2> w{0.0, -1.0};
  EXPECT_THROW((void)r.weighted_index(w), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng r{18};
  constexpr int n = 50'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += r.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

/// The first four draws of every distribution from one generator, each
/// distribution from a fresh copy of it.
struct PinnedDraws {
  std::array<std::uint64_t, 4> next_u64;
  std::array<double, 4> uniform;
  std::array<double, 4> uniform_2_5;
  std::array<int, 4> uniform_int_0_9;
  std::array<double, 4> normal_1_2;
  std::array<double, 4> lognormal_0_half;
  std::array<double, 4> exponential_quarter;
  std::array<bool, 4> bernoulli_03;
  std::array<std::size_t, 4> weighted_123;
};

void expect_pinned(const Rng& fresh, const PinnedDraws& want,
                   const char* which) {
  const auto draws = [&](auto draw) {
    Rng r = fresh;
    std::array<decltype(draw(r)), 4> got{};
    for (auto& v : got) v = draw(r);
    return got;
  };
  const std::array<double, 3> weights{1.0, 2.0, 3.0};
  EXPECT_EQ(draws([](Rng& r) { return r.next_u64(); }), want.next_u64)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.uniform(); }), want.uniform)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.uniform(2.0, 5.0); }),
            want.uniform_2_5)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.uniform_int(0, 9); }),
            want.uniform_int_0_9)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.normal(1.0, 2.0); }),
            want.normal_1_2)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.lognormal(0.0, 0.5); }),
            want.lognormal_0_half)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.exponential(0.25); }),
            want.exponential_quarter)
      << which;
  EXPECT_EQ(draws([](Rng& r) { return r.bernoulli(0.3); }), want.bernoulli_03)
      << which;
  EXPECT_EQ(draws([&](Rng& r) { return r.weighted_index(weights); }),
            want.weighted_123)
      << which;
}

TEST(Rng, FirstDrawsArePinned) {
  // Exact values: the golden bundle and every cache key assume these
  // streams, and a drifted distribution (another standard library, an
  // edit to rng.cpp) fails here by name rather than as a wall of table
  // digests.
  const Rng root{20220808};
  expect_pinned(
      root,
      {{5649653763905676047u, 6452688682848919777u, 15482380487846977136u,
        3773178350494710839u},
       {0x1.399e68a9162f9p-2, 0x1.663238ad4d928p-2, 0x1.adb8ee0c8f1dcp-1,
        0x1.a2e82dbfbb73ep-3},
       {0x1.759b673f6851ep+1, 0x1.8652d540fd16fp+1, 0x1.21255944b5ab2p+2,
        0x1.4e8b8893f325cp+1},
       {3, 3, 8, 2},
       {-0x1.11b6f76b84acap+0, 0x1.2c267ddd93cap-3, 0x1.493f11a274d36p-1,
        -0x1.c615c7b996cfp-1},
       {0x1.3137b75a505efp-1, 0x1.9da074bf046f1p-1, 0x1.d44a7142a022ap-1,
        0x1.3f736a387cf91p-1},
       {0x1.767236158e36fp+0, 0x1.b8cee4eeab63ap+0, 0x1.d406965b82f64p+2,
        0x1.d4aa3361193e1p-1},
       {false, false, false, true},
       {1, 1, 2, 1}},
      "root");
  expect_pinned(
      root.fork("pin"),
      {{5929399721805504630u, 11188682791334709708u, 2387820800414066819u,
        1299450355373211058u},
       {0x1.4925d686d6118p-2, 0x1.368c5f6fe4101p-1, 0x1.0919f2ef1fc14p-3,
        0x1.2089336a3467ep-4},
       {0x1.7b6e307290469p+1, 0x1.e8e94793eb0c1p+1, 0x1.31b4dd8cd5f44p+1,
        0x1.1b0cdcd1f4e9cp+1},
       {3, 6, 1, 0},
       {0x1.75b9b76074498p+1, 0x1.c90f3e3d64c41p+0, 0x1.91d8e2b870808p+2,
        0x1.7a053a46b0013p+0},
       {0x1.9dafe7ff282c2p+0, 0x1.3789fe6ec4093p+0, 0x1.df058ef96192dp+1,
        0x1.2065a1f27a2d9p+0},
       {0x1.8d14461d68f67p+0, 0x1.dd94b3a9b780ap+1, 0x1.1be67d97d199bp-1,
        0x1.2b33e0bbd8396p-2},
       {false, false, true, true},
       {1, 2, 0, 0}},
      "fork(\"pin\")");
  expect_pinned(
      root.fork("pin", 3),
      {{18426867059346389091u, 4869152495558167199u, 7340551528259242051u,
        17738374080557864620u},
       {0x1.ff72c3ebe7607p-1, 0x1.0e4ad1965bce3p-2, 0x1.977b82e4655f2p-2,
        0x1.ec56ba7d194bbp-1},
       {0x1.3fcb097876c42p+2, 0x1.655c0e98626d5p+1, 0x1.98ce5115a603bp+1,
        0x1.38a085eee97c6p+2},
       {9, 2, 3, 9},
       {0x1.ecb2f65ba0039p+0, 0x1.f9100c7ccb03p-3, -0x1.27fcc9d48ac78p-2,
        -0x1.7e1c7eaf47b5p-4},
       {0x1.4292a3bf9519cp+0, 0x1.a81a86196cb76p-1, 0x1.72f2b44df8ca5p-1,
        0x1.858dd08fa9533p-1},
       {0x1.b5512b3a42f72p+4, 0x1.39d284b13219p+0, 0x1.03c7f8e588c1ap+1,
        0x1.a13d15537c74ep+3},
       {false, true, false, false},
       {2, 1, 1, 2}},
      "fork(\"pin\", 3)");
}

TEST(StableHash, DependsOnBasisAndText) {
  EXPECT_NE(stable_hash("a", 1), stable_hash("a", 2));
  EXPECT_NE(stable_hash("a", 1), stable_hash("b", 1));
  EXPECT_EQ(stable_hash("route", 99), stable_hash("route", 99));
}

}  // namespace
}  // namespace wheels
