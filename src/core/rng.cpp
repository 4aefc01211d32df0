#include "core/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace wheels {

std::uint64_t stable_hash(std::string_view text, std::uint64_t basis) {
  std::uint64_t h = basis ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(mix64(seed)) {}

Rng Rng::fork(std::string_view label) const {
  return Rng{stable_hash(label, seed_)};
}

Rng Rng::fork(std::string_view label, std::uint64_t index) const {
  return Rng{mix64(stable_hash(label, seed_) +
                   0x9e3779b97f4a7c15ULL * (index + 1))};
}

std::uint64_t Rng::next_u64() { return engine_(); }

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(engine_);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) {
    throw std::invalid_argument{"weighted_index: no positive weight"};
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric edge: land on last positive bucket
}

}  // namespace wheels
