#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wheels::analysis {

namespace {

/// The two-sided 95% normal quantile behind median_ci and median_delta_ci.
constexpr double kZ95 = 1.959963984540054;

/// median_ci's 1-based lower rank l; the upper rank is n + 1 - l.
std::size_t lower_rank(std::size_t n) {
  const double nd = static_cast<double>(n);
  const double l = std::floor(nd / 2.0 - kZ95 * std::sqrt(nd) / 2.0);
  return l < 1.0 ? 1 : static_cast<std::size_t>(l);
}

/// Price & Bonett's standard error of the median of `sorted`.
double median_se(std::span<const double> sorted) {
  const std::size_t n = sorted.size();
  const std::size_t l = lower_rank(n);
  const std::size_t u = n + 1 - l;
  if (u == l) return 0.0;  // n == 1
  return (sorted[u - 1] - sorted[l - 1]) *
         std::sqrt(static_cast<double>(n)) / (2.0 * static_cast<double>(u - l));
}

}  // namespace

double interpolated_quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());

  double sum = 0.0;
  for (double x : sorted) sum += x;
  s.mean = sum / static_cast<double>(s.n);

  double var = 0.0;
  for (double x : sorted) var += (x - s.mean) * (x - s.mean);
  s.stddev = s.n > 1 ? std::sqrt(var / static_cast<double>(s.n - 1)) : 0.0;

  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = interpolated_quantile(sorted, 0.25);
  s.median = interpolated_quantile(sorted, 0.50);
  s.p75 = interpolated_quantile(sorted, 0.75);
  s.p90 = interpolated_quantile(sorted, 0.90);
  return s;
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::quantile(double q) const {
  return interpolated_quantile(sorted_, q);
}

double Cdf::fraction_below(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::min() const { return sorted_.empty() ? 0.0 : sorted_.front(); }
double Cdf::max() const { return sorted_.empty() ? 0.0 : sorted_.back(); }

double pearson(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double ks_distance(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument{"ks_distance: empty sample"};
  }
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  std::size_t ia = 0, ib = 0;
  double ks = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    // Consume every observation tied at the smaller head value from *both*
    // sides, then compare the CDFs just past it: the exact statistic, with
    // no dependence on which side a tie was drained from first.
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] == x) ++ia;
    while (ib < sb.size() && sb[ib] == x) ++ib;
    ks = std::max(ks, std::abs(static_cast<double>(ia) / na -
                               static_cast<double>(ib) / nb));
  }
  // The tail of the longer sample only narrows the gap back to 0.
  return ks;
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  double m = *mid;
  if (xs.size() % 2 == 0) {
    const auto lower = std::max_element(xs.begin(), mid);
    m = (m + *lower) / 2.0;
  }
  return m;
}

ConfidenceInterval median_ci(std::span<const double> sorted) {
  if (sorted.empty()) {
    throw std::invalid_argument{"median_ci: empty sample"};
  }
  const std::size_t n = sorted.size();
  const std::size_t l = lower_rank(n);
  ConfidenceInterval ci;
  ci.lo = sorted[l - 1];
  ci.hi = sorted[n - l];  // x(u), u = n + 1 - l
  // median_of's arithmetic, so the point has its bits.
  ci.point = n % 2 == 1 ? sorted[n / 2]
                        : (sorted[n / 2] + sorted[n / 2 - 1]) / 2.0;
  return ci;
}

ConfidenceInterval median_delta_ci(std::span<const double> sorted_a,
                                   std::span<const double> sorted_b) {
  if (sorted_a.empty() || sorted_b.empty()) {
    throw std::invalid_argument{"median_delta_ci: empty sample"};
  }
  const double se_a = median_se(sorted_a);
  const double se_b = median_se(sorted_b);
  const double half = kZ95 * std::sqrt(se_a * se_a + se_b * se_b);
  ConfidenceInterval ci;
  ci.point = median_ci(sorted_a).point - median_ci(sorted_b).point;
  ci.lo = ci.point - half;
  ci.hi = ci.point + half;
  return ci;
}

}  // namespace wheels::analysis
