// GPU hardware types and cross-type normalization.
//
// The paper's production environment uses Tesla V100 in the training cluster
// and T4 in the inference cluster (§2.1). On-loan inference GPUs are
// normalized relative to training GPUs when computing resource capacity
// (§5.2); the testbed observes that three loaned T4 servers are roughly
// equivalent to one V100 server in computational capability (§7.5), so the
// default normalization factor for a T4 is 1/3.
#ifndef SRC_CLUSTER_GPU_H_
#define SRC_CLUSTER_GPU_H_

namespace lyra {

enum class GpuType {
  kTrainingV100,
  kInferenceT4,
};

// Compute capability relative to a training GPU (V100 == 1.0).
inline constexpr double kInferenceGpuFactor = 1.0 / 3.0;

// GPUs per server in both clusters (the testbed's 8-GPU V100 and T4
// servers; 520 inference servers hold 4,160 T4s).
inline constexpr int kGpusPerServer = 8;

constexpr double GpuComputeFactor(GpuType type) {
  switch (type) {
    case GpuType::kTrainingV100:
      return 1.0;
    case GpuType::kInferenceT4:
      return kInferenceGpuFactor;
  }
  return 1.0;
}

constexpr const char* GpuTypeName(GpuType type) {
  switch (type) {
    case GpuType::kTrainingV100:
      return "V100";
    case GpuType::kInferenceT4:
      return "T4";
  }
  return "?";
}

}  // namespace lyra

#endif  // SRC_CLUSTER_GPU_H_
