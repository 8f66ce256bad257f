// Inference-cluster model: diurnal traffic and loaning instructions (§2.1, §4).
//
// The paper's assumption is that the inference scheduler autonomously decides
// when and how much to lend/reclaim based on its traffic, and informs Lyra's
// orchestrator. DiurnalTrafficModel synthesizes the serving-fraction series
// of Fig 1 (peak ~95% at night, trough ~42% before dawn, average ~65%,
// peak-to-trough ~2.2, plus autocorrelated noise and short bursts).
// InferenceCluster converts it into the number of servers available for
// loaning, keeping the 2% headroom of §7.1 and optionally consulting a usage
// predictor so reclaiming starts before traffic actually rises (§6).
#ifndef SRC_SIM_INFERENCE_CLUSTER_H_
#define SRC_SIM_INFERENCE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/predict/predictor.h"

namespace lyra {

// Spacing of the precomputed serving-fraction samples (Fig 1: 5-minute samples).
inline constexpr TimeSec kTrafficSampleInterval = 5 * kMinute;
// AR(1) autocorrelation of the traffic noise, per sample.
inline constexpr double kTrafficNoiseRho = 0.6;
// Size of a short traffic burst (scaled by U(0.5, 1.5)) and its length
// (scaled by U(0.5, 2.0)).
inline constexpr double kTrafficBurstMagnitude = 0.15;
inline constexpr TimeSec kTrafficBurstDuration = 30 * kMinute;

struct DiurnalTrafficOptions {
  TimeSec duration = 22 * kDay;  // cover the trace plus drain time
  double trough = 0.42;
  double peak = 0.95;
  // Hour-of-day (seconds) at which traffic peaks; the peak lasts ~4 hours.
  TimeSec peak_time = 21 * kHour;
  // Sharpens the diurnal curve so the peak is narrow and the evening ramp
  // steep (cos^sharpness shaping).
  double peak_sharpness = 3.0;
  // Calibrated so the median 5-minute serving-fraction move is ~2% of the
  // cluster (§7.1: the observed median intra-interval burst, which sets the
  // 2% headroom).
  double noise_sigma = 0.03;
  double bursts_per_day = 6.0;
  // Weekend traffic dip (fractional reduction applied on days 5 and 6).
  double weekend_dip = 0.05;
  std::uint64_t seed = 1;
};

// Precomputed serving-fraction series. Deterministic given its options.
class DiurnalTrafficModel {
 public:
  explicit DiurnalTrafficModel(const DiurnalTrafficOptions& options);

  // Serving fraction in [0, 1] at time t (held constant within a sample).
  double ServingFractionAt(TimeSec t) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  DiurnalTrafficOptions options_;
  std::vector<double> samples_;
};

struct InferenceClusterOptions {
  int num_servers = 520;  // 4,160 T4 GPUs in 8-GPU servers
  // Never-loaned reserve to absorb intra-interval bursts (§7.1: 2%).
  double headroom_fraction = 0.02;
  // The loaning unit is a whole server (§3), but the traffic series measures
  // the fraction of GPUs serving (Fig 1). Even with container consolidation,
  // serving GPUs spread over more servers than perfect packing would use;
  // busy-server fraction = min(1, serving_fraction * server_packing_spread).
  double server_packing_spread = 1.3;
};

// Average compute occupancy of a serving GPU; calibrates the "overall GPU
// usage" metric (a GPU counted as serving is not 100% busy).
inline constexpr double kComputePerServing = 0.54;

class InferenceCluster {
 public:
  // The predictor may be null, in which case the current serving fraction is
  // used directly (purely reactive loaning).
  InferenceCluster(const InferenceClusterOptions& options, DiurnalTrafficModel traffic,
                   std::unique_ptr<UsagePredictor> predictor);

  const InferenceClusterOptions& options() const { return options_; }
  const DiurnalTrafficModel& traffic() const { return traffic_; }

  double ServingFractionAt(TimeSec t) const { return traffic_.ServingFractionAt(t); }

  // GPUs busy with inference work at time t, for the overall-usage metric.
  double BusyGpusAt(TimeSec t) const;

  // Called once per orchestrator interval: feeds the predictor and returns
  // the number of servers the inference scheduler allows on loan right now.
  int TargetLoanedServers(TimeSec now);

  const UsagePredictor* predictor() const { return predictor_.get(); }

 private:
  InferenceClusterOptions options_;
  DiurnalTrafficModel traffic_;
  std::unique_ptr<UsagePredictor> predictor_;
};

// The inference side of one simulation, wired the same way for every driver
// (bench harness, lyra_sim, the daemon's engines): `servers` default-option
// servers whose diurnal traffic spans the trace plus eight days (one past the
// simulator's 7-day drain) and is seeded from the simulation seed with a
// fixed salt. `predictor` may be null (purely reactive loaning).
//
// Server counts stay the caller's. The bench harness rounds `443 * scale` to
// the nearest integer; BuildEngine and lyra_sim truncate, because persisted
// EngineConfig snapshots and replayed daemon runs rebuild their engines that
// way. At scale 0.25 that is 111 vs 110 training servers.
std::unique_ptr<InferenceCluster> MakeInferenceCluster(
    int servers, TimeSec trace_duration, std::uint64_t seed,
    std::unique_ptr<UsagePredictor> predictor);

}  // namespace lyra

#endif  // SRC_SIM_INFERENCE_CLUSTER_H_
