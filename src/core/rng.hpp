// Deterministic, splittable random number generation.
//
// Every stochastic subsystem receives its own `Rng` forked from the campaign
// root by a string label. Forking hashes (root seed, label) so the stream a
// subsystem sees is independent of how many draws any *other* subsystem has
// made — this is what makes whole-campaign simulations reproducible even as
// modules evolve.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string_view>

namespace wheels {

/// splitmix64 finaliser. Rng runs seeds through it before they reach the
/// mt19937_64 state, and it is the counter-based draw of ran::UePool and
/// synth sampling: mixing a seed with a slot counter gives an independent
/// draw per slot, with no generator state to share across threads.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
inline double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Child generator with an independent stream derived from (seed, label).
  [[nodiscard]] Rng fork(std::string_view label) const;
  /// Child generator derived from (seed, label, index) — for per-item streams.
  [[nodiscard]] Rng fork(std::string_view label, std::uint64_t index) const;

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Inclusive integer range.
  int uniform_int(int lo, int hi);
  double normal(double mean, double stddev);
  /// Lognormal parameterised by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  double exponential(double rate);
  bool bernoulli(double p);

  /// Pick an index in [0, weights.size()) with probability proportional to
  /// the weights (which need not be normalised; non-positive weights are
  /// treated as zero). Requires at least one positive weight.
  std::size_t weighted_index(std::span<const double> weights);

  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<int>(items.size()) - 1))];
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// Stable 64-bit hash (FNV-1a) used for seed derivation.
std::uint64_t stable_hash(std::string_view text, std::uint64_t basis);

}  // namespace wheels
