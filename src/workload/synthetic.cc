#include "src/workload/synthetic.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lyra {
namespace {

// Inelastic job GPU-demand mix: dominated by small jobs with a heavy tail of
// multi-server jobs, mean ~7.3 GPUs. Mirrors the shape of published
// production traces (Philly, PAI) and the paper's observation that demanding
// an entire 8-GPU server is common.
struct DemandBucket {
  int total_gpus;
  double weight;
};

constexpr DemandBucket kInelasticDemand[] = {
    {1, 0.28}, {2, 0.18}, {4, 0.16}, {8, 0.22},
    {16, 0.08}, {24, 0.03}, {32, 0.03}, {64, 0.02},
};

// Elastic jobs use 2-GPU worker containers (Fig 3 setup); maximum worker
// counts give a mean demand of ~11 GPUs so that elastic jobs end up as ~5% of
// submissions while holding ~36% of resources.
struct WorkerBucket {
  int max_workers;
  double weight;
};

constexpr WorkerBucket kElasticWorkers[] = {
    {2, 0.15}, {4, 0.30}, {6, 0.25}, {8, 0.20}, {12, 0.07}, {16, 0.03},
};

constexpr ModelFamily kElasticFamilies[] = {
    ModelFamily::kResNet,
    ModelFamily::kVgg,
    ModelFamily::kBert,
    ModelFamily::kGnmt,
};

int SampleBucketedDemand(Rng& rng) {
  std::vector<double> weights;
  for (const auto& b : kInelasticDemand) {
    weights.push_back(b.weight);
  }
  return kInelasticDemand[rng.SampleIndex(weights)].total_gpus;
}

int SampleElasticMaxWorkers(Rng& rng) {
  std::vector<double> weights;
  for (const auto& b : kElasticWorkers) {
    weights.push_back(b.weight);
  }
  return kElasticWorkers[rng.SampleIndex(weights)].max_workers;
}

}  // namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(SyntheticTraceOptions options)
    : options_(options) {
  LYRA_CHECK_GT(options_.duration, 0.0);
  LYRA_CHECK_GT(options_.training_gpus, 0);
  LYRA_CHECK_GT(options_.target_utilization, 0.0);
}

JobSpec SyntheticTraceGenerator::MakeInelasticJob(Rng& rng) const {
  JobSpec job;
  const int total_gpus = SampleBucketedDemand(rng);
  // Multi-server jobs use 8-GPU workers (one per server); small jobs use one
  // worker holding all their GPUs.
  if (total_gpus > 8) {
    job.gpus_per_worker = 8;
    job.min_workers = total_gpus / 8;
  } else {
    job.gpus_per_worker = total_gpus;
    job.min_workers = 1;
  }
  job.max_workers = job.min_workers;
  // Median ~50 min, sigma 1.3 => mean ~1.9 h, range clamped to [2 min, 3 d].
  const double duration =
      std::clamp(rng.NextLogNormal(std::log(3000.0), 1.3), 120.0, 3.0 * kDay);
  job.total_work = duration * job.max_workers;
  job.model = ModelFamily::kOther;
  return job;
}

JobSpec SyntheticTraceGenerator::MakeElasticJob(Rng& rng) const {
  JobSpec job;
  // Worker containers mostly hold 2 GPUs (the Fig 3 setup), with smaller and
  // larger containers in the tails; the spread is what gives the phase-2
  // knapsack different item weights to trade off.
  const std::int64_t gpw_draw = rng.UniformInt(0, 3);
  job.gpus_per_worker = gpw_draw == 0 ? 1 : (gpw_draw == 3 ? 4 : 2);
  // Limited elasticity (§2.2): the requested demand is the base; the scaling
  // range extends to twice that (the Ideal-scenario convention of §7.1).
  job.min_workers = SampleElasticMaxWorkers(rng);
  if (job.min_workers * job.gpus_per_worker > 32) {
    job.gpus_per_worker = 2;  // cap the largest containers
  }
  job.requested_workers = job.min_workers;
  job.max_workers = job.min_workers * 2;
  // Running time at the requested demand: mean ~14.2 h (§2.2).
  const double duration =
      std::clamp(rng.NextLogNormal(std::log(40000.0), 0.7), 1.0 * kHour, 4.0 * kDay);
  job.total_work = duration * job.min_workers;
  job.model = kElasticFamilies[rng.UniformInt(0, 3)];
  return job;
}

void SyntheticTraceGenerator::AssignArrivalTimes(Trace& trace, Rng& rng) const {
  // Non-homogeneous arrivals: each hour gets a lognormal weight, producing
  // the bursty, pattern-free demand of Fig 2.
  const int hours = static_cast<int>(std::ceil(options_.duration / kHour));
  std::vector<double> weights(static_cast<std::size_t>(hours));
  for (double& w : weights) {
    w = rng.NextLogNormal(0.0, kArrivalBurstiness);
  }
  const double total = Rng::WeightTotal(weights);
  for (JobSpec& job : trace.jobs) {
    const std::size_t hour = rng.SampleIndex(weights, total);
    const double offset = rng.NextDouble() * kHour;
    job.submit_time = std::min(options_.duration - 1.0,
                               static_cast<double>(hour) * kHour + offset);
  }
}

Trace SyntheticTraceGenerator::Generate() {
  Rng rng(options_.seed);
  Trace trace;
  trace.duration = options_.duration;

  const double budget_gpu_seconds = options_.target_utilization *
                                    static_cast<double>(options_.training_gpus) *
                                    options_.duration;
  const double elastic_budget = budget_gpu_seconds * options_.elastic_work_fraction;
  const double inelastic_budget = budget_gpu_seconds - elastic_budget;

  double elastic_acc = 0.0;
  while (elastic_acc < elastic_budget) {
    JobSpec job = MakeElasticJob(rng);
    elastic_acc += job.total_work * job.gpus_per_worker;
    trace.jobs.push_back(job);
  }
  double inelastic_acc = 0.0;
  while (inelastic_acc < inelastic_budget) {
    JobSpec job = MakeInelasticJob(rng);
    inelastic_acc += job.total_work * job.gpus_per_worker;
    trace.jobs.push_back(job);
  }

  // Fungibility: ~21% of jobs can run on either GPU type across runs (§2.1).
  // Small, short jobs are far more often GPU-agnostic than large or long
  // distributed runs (which pin GPU types for interconnect, memory, and
  // reproducibility reasons). The probabilities are calibrated to the
  // population target: ~84% of jobs are <=8 GPUs, of which ~75% run under
  // two hours, so 0.84 * (0.28 * 0.75 + 0.12 * 0.25) + 0.16 * 0.05 ~= 0.21.
  const double calib = options_.fungible_job_fraction / 0.21;
  const double small_short_p = std::min(1.0, 0.28 * calib);
  const double small_long_p = std::min(1.0, 0.12 * calib);
  const double large_p = std::min(1.0, 0.05 * calib);
  for (JobSpec& job : trace.jobs) {
    const int requested_gpus = job.RequestedWorkers() * job.gpus_per_worker;
    const double duration = job.total_work / job.RequestedWorkers();
    double p = large_p;
    if (requested_gpus <= 8) {
      p = duration < 2 * kHour ? small_short_p : small_long_p;
    }
    job.fungible = rng.NextBernoulli(p);
  }

  AssignArrivalTimes(trace, rng);
  trace.Normalize();

  if (options_.heterogeneous_job_fraction > 0.0) {
    ApplyHeterogeneousFraction(trace, options_.heterogeneous_job_fraction, rng);
  }
  if (options_.checkpointing_fraction > 0.0) {
    ApplyCheckpointingFraction(trace, options_.checkpointing_fraction, rng);
  }
  return trace;
}

Trace MakeTestbedTrace(const TestbedTraceOptions& options) {
  Rng rng(options.seed);
  Trace trace;
  trace.duration = options.submission_window + 6 * kHour;

  for (int i = 0; i < options.num_jobs; ++i) {
    JobSpec job;
    const bool elastic = i < options.num_elastic_jobs;
    if (elastic) {
      job.gpus_per_worker = 2;
      job.min_workers =
          static_cast<int>(rng.UniformInt(1, options.max_demand_gpus / 4));
      job.requested_workers = job.min_workers;
      job.max_workers = job.min_workers * 2;
      job.model = kElasticFamilies[rng.UniformInt(0, 3)];
      job.fungible = true;
    } else {
      int total_gpus = SampleBucketedDemand(rng);
      total_gpus = std::min(total_gpus, options.max_demand_gpus);
      if (total_gpus > 8) {
        job.gpus_per_worker = 8;
        job.min_workers = total_gpus / 8;
      } else {
        job.gpus_per_worker = total_gpus;
        job.min_workers = 1;
      }
      job.max_workers = job.min_workers;
      job.fungible = rng.NextBernoulli(0.21);
    }
    const double duration = std::clamp(rng.NextLogNormal(std::log(900.0), 1.0),
                                       kTestbedMinDuration, options.max_duration);
    job.total_work = duration * job.RequestedWorkers();
    job.submit_time = rng.NextDouble() * options.submission_window;
    trace.jobs.push_back(job);
  }
  trace.Normalize();
  return trace;
}

void ApplyIdealScenario(Trace& trace) {
  for (JobSpec& job : trace.jobs) {
    if (!job.elastic()) {
      // Requested demand becomes the base; the scaling range is twice that
      // (extra workers purely accelerate).
      job.min_workers = job.max_workers;
      job.requested_workers = job.min_workers;
      job.max_workers = job.min_workers * 2;
    }
    job.fungible = true;
    job.heterogeneous = true;
  }
}

void ApplyHeterogeneousFraction(Trace& trace, double fraction, Rng& rng) {
  for (JobSpec& job : trace.jobs) {
    job.heterogeneous = rng.NextBernoulli(fraction);
  }
}

void ApplyCheckpointingFraction(Trace& trace, double fraction, Rng& rng) {
  for (JobSpec& job : trace.jobs) {
    job.checkpointing = rng.NextBernoulli(fraction);
  }
}

void ApplyElasticFraction(Trace& trace, double fraction, Rng& rng) {
  std::size_t elastic_now = 0;
  for (const JobSpec& job : trace.jobs) {
    if (job.elastic()) {
      ++elastic_now;
    }
  }
  const auto target = static_cast<std::size_t>(
      fraction * static_cast<double>(trace.jobs.size()));
  if (elastic_now >= target) {
    return;
  }
  // Visit inelastic jobs in a random order so conversions spread over time.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    if (!trace.jobs[i].elastic()) {
      order.push_back(i);
    }
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (std::size_t idx : order) {
    if (elastic_now >= target) {
      break;
    }
    JobSpec& job = trace.jobs[idx];
    job.min_workers = job.max_workers;
    job.requested_workers = job.min_workers;
    job.max_workers *= 2;
    job.fungible = true;
    ++elastic_now;
  }
}

void ClearFungibleFlags(Trace& trace) {
  for (JobSpec& job : trace.jobs) {
    job.fungible = false;
  }
}

}  // namespace lyra
