// Statistics primitives used by every experiment.
#pragma once

#include <span>
#include <vector>

namespace wheels::analysis {

/// Summary statistics of a sample set.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
};

Summary summarize(std::span<const double> xs);

/// Value at quantile q of an ascending series, interpolated linearly
/// between the two bracketing ranks (q clamped to [0, 1]). SENTINEL: 0.0 on
/// empty, with Cdf::quantile's caveat.
double interpolated_quantile(std::span<const double> sorted, double q);

/// Empirical CDF over a sample set.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// Value at quantile q in [0, 1] (linear interpolation).
  ///
  /// SENTINEL: returns 0.0 when the CDF is empty. 0.0 is also a legitimate
  /// sample value (an RTT floor, a zero throughput), so callers that may see
  /// empty series must check empty() first and render the absence explicitly
  /// (analysis::fmt_quantile does this; report.cpp's cdf_row prints
  /// "(no samples)") rather than reporting a fake 0.
  double quantile(double q) const;
  /// Fraction of samples <= x. SENTINEL: 0.0 on empty, same caveat as
  /// quantile().
  double fraction_below(double x) const;
  /// SENTINEL: 0.0 on empty, same caveat as quantile().
  double min() const;
  /// SENTINEL: 0.0 on empty, same caveat as quantile().
  double max() const;

  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// Pearson correlation coefficient; returns 0 when either side is constant
/// or the series are shorter than 2.
double pearson(std::span<const double> x, std::span<const double> y);

/// Exact two-sample Kolmogorov-Smirnov statistic: sup_x |F_a(x) - F_b(x)|
/// over the empirical CDFs of the two samples. Ties — within one sample and
/// across the two — are handled exactly: all observations equal to a value
/// are consumed on both sides before the CDF gap at that value is taken, so
/// the result is independent of input order (and of any sort tie-breaking).
/// Throws std::invalid_argument when either sample is empty.
double ks_distance(std::span<const double> a, std::span<const double> b);

/// Median convenience. SENTINEL: returns 0.0 for an empty input — check
/// xs.empty() before calling when 0 is a plausible median.
double median_of(std::vector<double> xs);

/// A two-sided confidence interval [lo, hi] around a point estimate.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double point = 0.0;

  bool contains(double v) const { return v >= lo && v <= hi; }
  double width() const { return hi - lo; }
};

/// 95% CI of the median of `sorted`, which must be sorted ascending: the
/// binomial order-statistic interval [x(l), x(u)] (Conover, Practical
/// Nonparametric Statistics, §3.2) with 1-based ranks
/// l = max(1, floor(n/2 - z·√n/2)) and u = n + 1 - l, z = 1.959963984540054.
/// The ranks round outward, so the interval is conservative. `point` is the
/// median as median_of computes it. Built from + - × ÷, floor and sqrt only,
/// so the result has the same bits under every standard library. Throws
/// std::invalid_argument on an empty input.
ConfidenceInterval median_ci(std::span<const double> sorted);

/// 95% CI of median(a) - median(b), both inputs sorted ascending: Price &
/// Bonett's interval (J. Stat. Comput. Simul. 72, 2002), d ± z·√(se_a² +
/// se_b²). Each side's standard error is its median_ci width divided by
/// twice the normal quantile its rank span covers, with continuity
/// correction: se = (x(u) - x(l))·√n / (2(u - l)), and 0 when n = 1. Throws
/// std::invalid_argument when either input is empty.
ConfidenceInterval median_delta_ci(std::span<const double> sorted_a,
                                   std::span<const double> sorted_b);

}  // namespace wheels::analysis
