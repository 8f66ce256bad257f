#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace lyra {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits => uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  LYRA_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  LYRA_CHECK_LE(lo, hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = NextU64();
  while (v >= limit) {
    v = NextU64();
  }
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::NextExponential(double rate) {
  LYRA_CHECK_GT(rate, 0.0);
  double u = NextDouble();
  while (u <= 0.0) {
    u = NextDouble();
  }
  return -std::log(u) / rate;
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

double Rng::WeightTotal(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    LYRA_CHECK_GE(w, 0.0);
    total += w;
  }
  LYRA_CHECK_GT(total, 0.0);
  return total;
}

std::size_t Rng::SampleIndex(const std::vector<double>& weights, double total) {
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace lyra
