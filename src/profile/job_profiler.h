// Job profiler (§3, §5.2).
//
// Lyra's job scheduler relies on running-time information, "which can be
// predicted with profiling and ML methods". The simulator can either hand the
// scheduler ground truth (the oracle default), inject synthetic errors
// (Table 9), or — with this module — estimate it the way the paper's profiler
// would: by learning from completed jobs.
//
// The estimator maintains, per (model family, demand bucket), a running
// geometric mean of observed normalized work, with shrinkage toward the
// global mean while a bucket has few observations. Jobs are estimated at
// submission; the estimate improves as similar jobs complete, and the
// scheduler's SJF / knapsack decisions degrade gracefully exactly as in the
// paper's sensitivity study.
#ifndef SRC_PROFILE_JOB_PROFILER_H_
#define SRC_PROFILE_JOB_PROFILER_H_

#include <array>
#include <cstddef>

#include "src/workload/job.h"

namespace lyra {

// Pseudo-observations of the global prior each bucket starts with; higher
// values shrink small buckets harder toward the global mean.
inline constexpr double kProfilerPriorStrength = 4.0;
// Floor for any estimate, in worker-seconds.
inline constexpr double kProfilerMinEstimate = 60.0;

class JobProfiler {
 public:
  // Estimated total work (worker-seconds at reference GPUs) for a job about
  // to be enqueued. Before any observation the estimate is the global prior
  // (a one-hour single-worker job scaled by the requested demand).
  double EstimateTotalWork(const JobSpec& spec) const;

  // Records a completed job's ground-truth work so future estimates improve.
  void ObserveCompletion(const JobSpec& spec);

  // Mean absolute relative error over everything observed so far, measured
  // at observation time (i.e. against the estimate the scheduler actually
  // used). Diagnostic for the profiler benches.
  double mean_relative_error() const;

  std::size_t observations() const { return observations_; }

 private:
  // Buckets: 5 model families x 4 demand sizes.
  static constexpr std::size_t kFamilies = 5;
  static constexpr std::size_t kSizes = 4;

  struct Cell {
    double log_sum = 0.0;
    double count = 0.0;
  };

  static std::size_t SizeBucket(const JobSpec& spec);
  const Cell& CellFor(const JobSpec& spec) const;
  Cell& CellFor(const JobSpec& spec);

  std::array<Cell, kFamilies * kSizes> cells_{};
  Cell global_{};
  std::size_t observations_ = 0;
  double abs_error_sum_ = 0.0;
};

}  // namespace lyra

#endif  // SRC_PROFILE_JOB_PROFILER_H_
