// Deterministic random number generator. All stochastic behaviour in the
// simulator (trace synthesis, traffic noise, baseline policies) draws from a
// seeded Rng so every experiment is exactly reproducible.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace lyra {

// xoshiro256** with a splitmix64 seeding sequence. Small, fast, and good
// statistical quality for simulation workloads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  // Uniform 64-bit value.
  std::uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Exponential with the given rate (events per unit time). rate > 0.
  double NextExponential(double rate);

  // Log-normal: exp(N(mu, sigma^2)).
  double NextLogNormal(double mu, double sigma);

  // Bernoulli trial with success probability p.
  bool NextBernoulli(double p);

  // Samples an index according to the (unnormalized, non-negative) weights.
  // Requires at least one strictly positive weight.
  std::size_t SampleIndex(const std::vector<double>& weights) {
    return SampleIndex(weights, WeightTotal(weights));
  }

  // Checks the weights as SampleIndex does and returns their sum, so a caller
  // drawing many times from one weight vector sums it once.
  static double WeightTotal(const std::vector<double>& weights);

  // SampleIndex with `total == WeightTotal(weights)`: the same draw.
  std::size_t SampleIndex(const std::vector<double>& weights, double total);

  // Derives an independent child generator; used to give each subsystem its
  // own stream so adding draws to one subsystem does not perturb another.
  Rng Fork();

 private:
  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace lyra

#endif  // SRC_COMMON_RNG_H_
