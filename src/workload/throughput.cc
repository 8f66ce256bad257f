#include "src/workload/throughput.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/cluster/gpu.h"
#include "src/hetero/load_balancer.h"

namespace lyra {

double ThroughputModel::EffectiveWorkers(const JobSpec& spec, double nominal_workers,
                                         bool tuned) const {
  LYRA_CHECK_GE(nominal_workers, 0.0);
  if (nominal_workers <= 0.0) {
    return 0.0;
  }
  const double base = std::min(nominal_workers, static_cast<double>(spec.min_workers));
  const double extra = nominal_workers - base;
  // Tuned jobs re-fit batch size and learning rate on every allocation change
  // (Adascale-style), which restores full marginal efficiency.
  const double eff = tuned ? 1.0 : options_.marginal_efficiency;
  return base + eff * extra;
}

double ThroughputModel::Rate(const JobSpec& spec, const PlacementProfile& profile,
                             bool tuned) const {
  if (profile.workers <= 0) {
    return 0.0;
  }
  // Nominal worker count: physical workers weighted by their GPUs' compute
  // factor. A fungible job on inference GPUs runs proportionally more,
  // smaller workers for the same global batch (§2.1), which is exactly this
  // normalization.
  const double nominal = profile.workers * profile.mean_gpu_factor;
  double rate = EffectiveWorkers(spec, nominal, tuned);
  if (profile.spans_heterogeneous) {
    // Mixed-GPU execution pays a synchronization penalty: workers progress at
    // different paces and the global batch must be re-balanced (§2.1, §7.1).
    if (options_.computed_heterogeneous && spec.gpus_per_worker > 0) {
      const std::vector<WorkerGroup> mix = {
          {profile.training_gpus / spec.gpus_per_worker, 1.0},
          {profile.inference_gpus / spec.gpus_per_worker, kInferenceGpuFactor},
      };
      rate *= BalanceLoad(mix).efficiency;
    } else {
      rate *= options_.heterogeneous_efficiency;
    }
  }
  if (tuned) {
    rate *= kTunedBoost;
  }
  return rate;
}

double ModelScalingCurve::ThroughputAt(int workers) const {
  LYRA_CHECK_GE(workers, 0);
  if (workers == 0) {
    return 0.0;
  }
  const double w = static_cast<double>(workers);
  return per_worker_throughput * w / (1.0 + comm_overhead * (w - 1.0));
}

ModelScalingCurve CurveFor(ModelFamily family) {
  // per_worker_throughput: measured single-worker (2x V100) rates in the
  // units of Fig 3 (10^3 img/s for vision models, 10^3 sequence/s for the
  // language models). comm_overhead controls the mild sub-linearity visible
  // at 16 workers.
  switch (family) {
    case ModelFamily::kResNet:
      return {ModelFamily::kResNet, 1.45, 0.012};
    case ModelFamily::kVgg:
      return {ModelFamily::kVgg, 0.55, 0.025};
    case ModelFamily::kBert:
      return {ModelFamily::kBert, 0.95, 0.015};
    case ModelFamily::kGnmt:
      return {ModelFamily::kGnmt, 1.75, 0.018};
    case ModelFamily::kOther:
      return {ModelFamily::kOther, 1.0, 0.05};
  }
  return {ModelFamily::kOther, 1.0, 0.05};
}

const char* ModelFamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kResNet:
      return "ResNet-50";
    case ModelFamily::kVgg:
      return "VGG16";
    case ModelFamily::kBert:
      return "BERT";
    case ModelFamily::kGnmt:
      return "GNMT-16";
    case ModelFamily::kOther:
      return "other";
  }
  return "?";
}

}  // namespace lyra
