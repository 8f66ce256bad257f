// Tests for the learning job profiler (§3) and its simulator integration.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/profile/job_profiler.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

JobSpec Spec(ModelFamily model, int workers, int gpw, double duration) {
  JobSpec spec;
  spec.model = model;
  spec.min_workers = workers;
  spec.max_workers = workers;
  spec.gpus_per_worker = gpw;
  spec.total_work = duration * workers;
  return spec;
}

TEST(JobProfiler, ColdStartUsesGlobalPrior) {
  JobProfiler profiler;
  const JobSpec job = Spec(ModelFamily::kOther, 2, 1, 500.0);
  // One-hour prior at the requested demand of 2 workers.
  EXPECT_NEAR(profiler.EstimateTotalWork(job), 3600.0 * 2, 1.0);
  EXPECT_EQ(profiler.observations(), 0u);
}

TEST(JobProfiler, ConvergesToObservedDurations) {
  JobProfiler profiler;
  const JobSpec job = Spec(ModelFamily::kResNet, 4, 2, 900.0);
  for (int i = 0; i < 200; ++i) {
    profiler.ObserveCompletion(job);
  }
  EXPECT_NEAR(profiler.EstimateTotalWork(job), 900.0 * 4, 900.0 * 4 * 0.05);
}

TEST(JobProfiler, BucketsByModelFamily) {
  JobProfiler profiler;
  const JobSpec fast = Spec(ModelFamily::kResNet, 2, 2, 100.0);
  const JobSpec slow = Spec(ModelFamily::kVgg, 2, 2, 10000.0);
  for (int i = 0; i < 100; ++i) {
    profiler.ObserveCompletion(fast);
    profiler.ObserveCompletion(slow);
  }
  EXPECT_LT(profiler.EstimateTotalWork(fast), profiler.EstimateTotalWork(slow) / 10.0);
}

TEST(JobProfiler, BucketsByDemandSize) {
  JobProfiler profiler;
  const JobSpec small = Spec(ModelFamily::kOther, 1, 1, 120.0);    // 1 GPU
  const JobSpec large = Spec(ModelFamily::kOther, 4, 8, 40000.0);  // 32 GPUs
  for (int i = 0; i < 100; ++i) {
    profiler.ObserveCompletion(small);
    profiler.ObserveCompletion(large);
  }
  // Same family, different size buckets: estimates diverge strongly.
  EXPECT_LT(profiler.EstimateTotalWork(small) * 20.0,
            profiler.EstimateTotalWork(large));
}

TEST(JobProfiler, ShrinkageKeepsSparseBucketsNearGlobalMean) {
  JobProfiler profiler;
  // Many medium observations in one bucket set the global mean.
  const JobSpec common = Spec(ModelFamily::kOther, 2, 2, 1000.0);
  for (int i = 0; i < 200; ++i) {
    profiler.ObserveCompletion(common);
  }
  // A single extreme observation in a fresh bucket must not dominate it.
  const JobSpec rare = Spec(ModelFamily::kBert, 2, 2, 100000.0);
  profiler.ObserveCompletion(rare);
  const double estimate = profiler.EstimateTotalWork(rare);
  EXPECT_LT(estimate, 100000.0 * 2 * 0.6);  // pulled well below the outlier
  EXPECT_GT(estimate, 1000.0 * 2);          // but above the global mean
}

TEST(JobProfiler, ErrorMetricDropsAsItLearns) {
  JobProfiler profiler;
  Rng rng(5);
  double early_error = 0.0;
  double late_error = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double duration = rng.NextLogNormal(std::log(2000.0), 0.3);
    profiler.ObserveCompletion(Spec(ModelFamily::kGnmt, 2, 2, duration));
    if (i == 19) {
      early_error = profiler.mean_relative_error();
    }
  }
  late_error = profiler.mean_relative_error();
  EXPECT_LT(late_error, early_error);
}

TEST(JobProfiler, MinEstimateFloorApplies) {
  JobProfiler profiler;
  const JobSpec tiny = Spec(ModelFamily::kOther, 1, 1, 1.0);
  for (int i = 0; i < 100; ++i) {
    profiler.ObserveCompletion(tiny);
  }
  // The learned estimate is about one second; the floor lifts it.
  EXPECT_DOUBLE_EQ(profiler.EstimateTotalWork(tiny), kProfilerMinEstimate);
}

TEST(ProfilerIntegration, SimulationWithProfilerCompletesAndLearns) {
  SyntheticTraceOptions trace_options;
  trace_options.duration = 1 * kDay;
  trace_options.training_gpus = 20 * 8;
  trace_options.target_utilization = 0.9;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();

  SimulatorOptions options;
  options.training_servers = 20;
  options.enable_loaning = false;
  options.use_profiler = true;
  LyraScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &scheduler, &reclaim, nullptr);
  const SimulationResult result = sim.Run();
  EXPECT_EQ(result.finished_jobs, result.total_jobs);
  EXPECT_GT(result.profiler_error, 0.0);
  // Log-normal durations with sigma 1.3 put the naive relative error in the
  // hundreds of percent; the profiler should do much better on average.
  EXPECT_LT(result.profiler_error, 2.5);
}

TEST(ProfilerIntegration, OracleRunsReportZeroProfilerError) {
  Trace trace;
  JobSpec spec;
  spec.id = JobId(0);
  spec.total_work = 100.0;
  trace.jobs.push_back(spec);
  trace.duration = kHour;
  SimulatorOptions options;
  options.training_servers = 1;
  options.enable_loaning = false;
  LyraScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &scheduler, &reclaim, nullptr);
  EXPECT_EQ(sim.Run().profiler_error, 0.0);
}

}  // namespace
}  // namespace lyra
