#include "src/sim/inference_cluster.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/cluster/gpu.h"
#include "src/common/check.h"
#include "src/obs/obs.h"

namespace lyra {

DiurnalTrafficModel::DiurnalTrafficModel(const DiurnalTrafficOptions& options)
    : options_(options) {
  LYRA_CHECK_LT(options.trough, options.peak);
  Rng rng(options.seed);
  const auto count =
      static_cast<std::size_t>(std::ceil(options.duration / kTrafficSampleInterval)) + 1;
  samples_.reserve(count);

  double noise = 0.0;
  double burst = 0.0;
  TimeSec burst_until = -1.0;
  const double burst_prob_per_sample =
      options.bursts_per_day * kTrafficSampleInterval / kDay;

  for (std::size_t i = 0; i < count; ++i) {
    const TimeSec t = static_cast<double>(i) * kTrafficSampleInterval;
    // Diurnal base: a cosine peaking at peak_time, sharpened so the nightly
    // peak lasts about four hours.
    const double phase = 2.0 * M_PI * (std::fmod(t, kDay) - options.peak_time) / kDay;
    const double shape = std::pow((1.0 + std::cos(phase)) / 2.0, options.peak_sharpness);
    double value = options_.trough + (options_.peak - options_.trough) * shape;

    // Weekend dip.
    const int day_of_week = static_cast<int>(t / kDay) % 7;
    if (day_of_week >= 5) {
      value *= 1.0 - options_.weekend_dip;
    }

    // AR(1) noise.
    noise = kTrafficNoiseRho * noise +
            options_.noise_sigma * std::sqrt(1.0 - kTrafficNoiseRho * kTrafficNoiseRho) *
                rng.NextGaussian();
    // Short traffic bursts: the events the headroom + predictor must absorb.
    if (t > burst_until && rng.NextBernoulli(burst_prob_per_sample)) {
      burst = kTrafficBurstMagnitude * rng.Uniform(0.5, 1.5);
      burst_until = t + kTrafficBurstDuration * rng.Uniform(0.5, 2.0);
    }
    if (t > burst_until) {
      burst = 0.0;
    }

    samples_.push_back(std::clamp(value + noise + burst, 0.0, 1.0));
  }
}

double DiurnalTrafficModel::ServingFractionAt(TimeSec t) const {
  LYRA_CHECK_GE(t, 0.0);
  auto index = static_cast<std::size_t>(t / kTrafficSampleInterval);
  index = std::min(index, samples_.size() - 1);
  return samples_[index];
}

InferenceCluster::InferenceCluster(const InferenceClusterOptions& options,
                                   DiurnalTrafficModel traffic,
                                   std::unique_ptr<UsagePredictor> predictor)
    : options_(options), traffic_(std::move(traffic)), predictor_(std::move(predictor)) {
  LYRA_CHECK_GT(options.num_servers, 0);
}

double InferenceCluster::BusyGpusAt(TimeSec t) const {
  return ServingFractionAt(t) * kComputePerServing *
         static_cast<double>(options_.num_servers * kGpusPerServer);
}

int InferenceCluster::TargetLoanedServers(TimeSec now) {
  const double current = ServingFractionAt(now);
  double usage = current;
  if (predictor_ != nullptr) {
    predictor_->Observe(current);
    // Reclaim ahead of predicted traffic increases (§6); loaning out on a
    // predicted dip alone would be risky, so take the max.
    usage = std::max(usage, predictor_->PredictNext());
  }
  const int n = options_.num_servers;
  const double busy_fraction = std::min(1.0, usage * options_.server_packing_spread);
  const int needed = static_cast<int>(std::ceil(busy_fraction * n));
  const int headroom = static_cast<int>(std::ceil(options_.headroom_fraction * n));
  const int target = std::max(0, n - needed - headroom);
  obs::AddCounter("inference.target_calls");
  obs::SetGauge("inference.serving_fraction", current);
  obs::SetGauge("inference.predicted_usage", usage);
  obs::SetGauge("inference.target_loaned", target);
  return target;
}

std::unique_ptr<InferenceCluster> MakeInferenceCluster(
    int servers, TimeSec trace_duration, std::uint64_t seed,
    std::unique_ptr<UsagePredictor> predictor) {
  DiurnalTrafficOptions traffic;
  traffic.duration = trace_duration + 8 * kDay;
  traffic.seed = seed ^ 0x7aff1c;
  InferenceClusterOptions options;
  options.num_servers = servers;
  return std::make_unique<InferenceCluster>(options, DiurnalTrafficModel(traffic),
                                            std::move(predictor));
}

}  // namespace lyra
