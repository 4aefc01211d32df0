// Bootstrap confidence intervals.
//
// The paper reports point estimates; when comparing our simulated medians
// against them it matters whether a gap is real or sampling noise. This is a
// standard percentile bootstrap over resampled datasets.
#pragma once

#include <functional>
#include <span>

#include "core/rng.hpp"

namespace wheels::analysis {

struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double point = 0.0;

  bool contains(double v) const { return v >= lo && v <= hi; }
  double width() const { return hi - lo; }
};

/// Percentile-bootstrap CI for `statistic` over `samples`.
/// `level` is the two-sided confidence level (e.g. 0.95).
///
/// Each resample draws from its own child stream forked off `rng`
/// (`fork("resample", it)`), and the stats are sorted before the quantiles
/// are read. Callers that want parallelism fan out over whole CIs (see
/// replay::ReplayFleet), each on its own forked `rng`.
ConfidenceInterval bootstrap_ci(
    std::span<const double> samples,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    double level = 0.95, int iterations = 1000);

/// Convenience: CI of the median.
ConfidenceInterval bootstrap_median_ci(std::span<const double> samples,
                                       Rng& rng, double level = 0.95,
                                       int iterations = 1000);

}  // namespace wheels::analysis
