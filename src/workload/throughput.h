// Throughput models.
//
// ThroughputModel computes the effective progress rate of a placed job in
// worker-equivalents per second. The paper's default assumption is linear
// scaling within the job's range (§5); the model exposes the knobs used by
// the evaluation: marginal per-added-worker efficiency loss (§7.2 "imperfect
// scaling"), the heterogeneous-training penalty (§7.1 Advanced scenario), and
// the hyperparameter-tuning boost used by Lyra+TunedJobs (§7.4).
//
// ModelScalingCurve generates the throughput-vs-workers curves of Fig 3 for
// the four model families via a communication-bound saturation model.
#ifndef SRC_WORKLOAD_THROUGHPUT_H_
#define SRC_WORKLOAD_THROUGHPUT_H_

#include "src/workload/job.h"

namespace lyra {

// How a running job's GPUs are spread across hardware, as relevant to
// throughput: total workers, the average compute factor of the GPUs backing
// them, and whether the job currently spans both GPU types.
struct PlacementProfile {
  int workers = 0;
  // Mean GpuComputeFactor over all GPUs the job occupies (1.0 if all V100).
  double mean_gpu_factor = 1.0;
  // True if the job simultaneously occupies training and inference GPUs.
  bool spans_heterogeneous = false;
  // GPU counts by type, for the heterogeneous load-balancing model.
  int training_gpus = 0;
  int inference_gpus = 0;
};

struct ThroughputOptions {
  // Throughput contribution of each worker beyond the base demand, relative
  // to a base worker. 1.0 = the paper's linear-scaling assumption; 0.8 = the
  // §7.2 imperfect-scaling study ("20% loss to the throughput brought by this
  // worker").
  double marginal_efficiency = 1.0;
  // Cap on throughput when a job runs on mixed GPU types. 0.7 = the Advanced
  // scenario's "at most 70% of the ideal results"; 1.0 = Ideal scenario.
  double heterogeneous_efficiency = 0.7;
  // Compute the heterogeneous efficiency from the worker mix with the
  // semi-dynamic load balancer (src/hetero) instead of the flat cap above.
  bool computed_heterogeneous = false;
};

// Multiplier applied to jobs whose hyperparameters are re-tuned on every
// allocation change (Lyra+TunedJobs). Tuning restores linear scaling and
// recovers a small amount of statistical efficiency.
inline constexpr double kTunedBoost = 1.05;

class ThroughputModel {
 public:
  ThroughputModel() = default;
  explicit ThroughputModel(ThroughputOptions options) : options_(options) {}

  const ThroughputOptions& options() const { return options_; }

  // Progress rate in worker-seconds of work per wall-clock second.
  // `tuned` selects the Lyra+TunedJobs behaviour for this job.
  double Rate(const JobSpec& spec, const PlacementProfile& profile,
              bool tuned = false) const;

  // Effective worker count after marginal-efficiency discounting, in nominal
  // (training-GPU-equivalent) units. Exposed for the allocation math and tests.
  double EffectiveWorkers(const JobSpec& spec, double nominal_workers,
                          bool tuned = false) const;

 private:
  ThroughputOptions options_;
};

// Analytic throughput-vs-workers curve for one model family (Fig 3). Uses an
// Amdahl-style communication saturation: samples/sec at w workers =
//   per_worker_throughput * w / (1 + comm_overhead * (w - 1)).
struct ModelScalingCurve {
  ModelFamily family = ModelFamily::kResNet;
  double per_worker_throughput = 1.0;  // samples/sec for one 2-GPU worker
  double comm_overhead = 0.0;          // per-extra-worker synchronization drag

  double ThroughputAt(int workers) const;
};

// The four curves of Fig 3 (ResNet-50, VGG16, BERT, GNMT-16), calibrated so
// the 1->16 worker scaling matches the near-linear shapes the paper measures.
ModelScalingCurve CurveFor(ModelFamily family);

}  // namespace lyra

#endif  // SRC_WORKLOAD_THROUGHPUT_H_
