#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lyra {

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size());
}

namespace {

// Percentile of samples already sorted ascending (see Percentile).
double SortedPercentile(const std::vector<double>& sorted, double pct) {
  LYRA_CHECK_GE(pct, 0.0);
  LYRA_CHECK_LE(pct, 100.0);
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) {
    return sorted[lo];
  }
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return SortedPercentile(samples, pct);
}

double StdDev(const std::vector<double>& samples) {
  if (samples.size() < 2) {
    return 0.0;
  }
  const double mu = Mean(samples);
  double acc = 0.0;
  for (double s : samples) {
    acc += (s - mu) * (s - mu);
  }
  return std::sqrt(acc / static_cast<double>(samples.size()));
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  s.mean = Mean(samples);
  s.min = *std::min_element(samples.begin(), samples.end());
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p25 = SortedPercentile(sorted, 25.0);
  s.p50 = SortedPercentile(sorted, 50.0);
  s.p75 = SortedPercentile(sorted, 75.0);
  s.p95 = SortedPercentile(sorted, 95.0);
  s.p99 = SortedPercentile(sorted, 99.0);
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

void TimeWeightedMean::Advance(double now, double value) {
  if (started_) {
    LYRA_CHECK_GE(now, last_time_);
    const double dt = now - last_time_;
    weighted_sum_ += value * dt;
    total_time_ += dt;
  }
  started_ = true;
  last_time_ = now;
}

double TimeWeightedMean::mean() const {
  return total_time_ > 0.0 ? weighted_sum_ / total_time_ : 0.0;
}

}  // namespace lyra
