#include "analysis/bootstrap.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/stats.hpp"

namespace wheels::analysis {

ConfidenceInterval bootstrap_ci(
    std::span<const double> samples,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    double level, int iterations) {
  if (samples.empty()) {
    throw std::invalid_argument{"bootstrap_ci: empty sample set"};
  }
  if (level <= 0.0 || level >= 1.0) {
    throw std::invalid_argument{"bootstrap_ci: level must be in (0,1)"};
  }

  ConfidenceInterval ci;
  ci.point = statistic(samples);

  const auto n = samples.size();
  std::vector<double> stats(static_cast<std::size_t>(iterations));
  // One child stream per iteration: stats[it] depends only on (base, it).
  const Rng base{rng.next_u64()};
  std::vector<double> resample(n);
  for (int it = 0; it < iterations; ++it) {
    Rng r = base.fork("resample", static_cast<std::uint64_t>(it));
    for (std::size_t i = 0; i < n; ++i) {
      resample[i] = samples[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<int>(n) - 1))];
    }
    stats[static_cast<std::size_t>(it)] = statistic(resample);
  }
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - level) / 2.0;
  const auto idx = [&](double q) {
    return stats[static_cast<std::size_t>(
        std::clamp(q * static_cast<double>(stats.size() - 1), 0.0,
                   static_cast<double>(stats.size() - 1)))];
  };
  ci.lo = idx(alpha);
  ci.hi = idx(1.0 - alpha);
  return ci;
}

ConfidenceInterval bootstrap_median_ci(std::span<const double> samples,
                                       Rng& rng, double level,
                                       int iterations) {
  return bootstrap_ci(
      samples,
      [](std::span<const double> xs) {
        return median_of({xs.begin(), xs.end()});
      },
      rng, level, iterations);
}

}  // namespace wheels::analysis
