#include "src/profile/job_profiler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lyra {
namespace {

// The profiler models the job's running time at its requested demand (work
// divided by requested workers); this normalizes across job sizes.
double NormalizedDuration(const JobSpec& spec) {
  return spec.total_work / spec.RequestedWorkers();
}

// Global prior: a one-hour run at the requested demand.
constexpr double kPriorLogDuration = 8.188689;  // ln(3600)

}  // namespace

std::size_t JobProfiler::SizeBucket(const JobSpec& spec) {
  const int gpus = spec.RequestedWorkers() * spec.gpus_per_worker;
  if (gpus <= 2) {
    return 0;
  }
  if (gpus <= 8) {
    return 1;
  }
  if (gpus <= 16) {
    return 2;
  }
  return 3;
}

const JobProfiler::Cell& JobProfiler::CellFor(const JobSpec& spec) const {
  const auto family = static_cast<std::size_t>(spec.model);
  LYRA_CHECK_LT(family, kFamilies);
  return cells_[family * kSizes + SizeBucket(spec)];
}

JobProfiler::Cell& JobProfiler::CellFor(const JobSpec& spec) {
  return const_cast<Cell&>(static_cast<const JobProfiler*>(this)->CellFor(spec));
}

double JobProfiler::EstimateTotalWork(const JobSpec& spec) const {
  const Cell& cell = CellFor(spec);
  // Global mean (itself shrunk toward the fixed prior while data is scarce),
  // then the bucket mean shrunk toward the global mean.
  const double global_log =
      (global_.log_sum + kPriorLogDuration * kProfilerPriorStrength) /
      (global_.count + kProfilerPriorStrength);
  const double bucket_log =
      (cell.log_sum + global_log * kProfilerPriorStrength) /
      (cell.count + kProfilerPriorStrength);
  const double duration = std::exp(bucket_log);
  return std::max(kProfilerMinEstimate, duration * spec.RequestedWorkers());
}

void JobProfiler::ObserveCompletion(const JobSpec& spec) {
  LYRA_CHECK_GT(spec.total_work, 0.0);
  const double estimate = EstimateTotalWork(spec);
  abs_error_sum_ += std::abs(estimate - spec.total_work) / spec.total_work;
  ++observations_;

  const double log_duration = std::log(NormalizedDuration(spec));
  Cell& cell = CellFor(spec);
  cell.log_sum += log_duration;
  cell.count += 1.0;
  global_.log_sum += log_duration;
  global_.count += 1.0;
}

double JobProfiler::mean_relative_error() const {
  return observations_ == 0 ? 0.0
                            : abs_error_sum_ / static_cast<double>(observations_);
}

}  // namespace lyra
