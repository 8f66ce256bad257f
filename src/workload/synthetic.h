// Synthetic production-trace generator.
//
// Substitutes for the paper's proprietary 15-day trace (50,390 jobs, 3,544
// training GPUs). The generator is calibrated so the aggregates the paper
// reports hold: ~5% of jobs are elastic and account for ~36% of training
// resources with ~14.2 h average running time (§2.2), ~21% of jobs are
// fungible (§2.1), offered load ≈ 82% of training capacity (§2.1), runtimes
// span minutes to days, and arrivals are bursty without a clean diurnal
// pattern (§2.1). Everything is driven by a seeded Rng for reproducibility.
#ifndef SRC_WORKLOAD_SYNTHETIC_H_
#define SRC_WORKLOAD_SYNTHETIC_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/workload/trace.h"

namespace lyra {

struct SyntheticTraceOptions {
  TimeSec duration = 15 * kDay;
  // Capacity the offered load is calibrated against (the training cluster).
  int training_gpus = 3544;
  // Offered load as a fraction of training capacity. The paper's cluster
  // runs at 82% *achieved* utilization with persistent queuing, which an
  // open-loop replay reproduces at an offered load slightly below 1.
  double target_utilization = 0.95;
  // Fraction of total GPU-work contributed by elastic jobs.
  double elastic_work_fraction = 0.36;
  // Fraction of all jobs that are fungible across GPU types.
  double fungible_job_fraction = 0.21;
  // Fraction of all jobs flagged heterogeneous-capable (0 in Basic).
  double heterogeneous_job_fraction = 0.0;
  // Fraction of jobs that checkpoint (the paper's conservative default: 0).
  double checkpointing_fraction = 0.0;
  std::uint64_t seed = 42;
};

// Burstiness of hourly arrival rates (sigma of the lognormal hour weights).
inline constexpr double kArrivalBurstiness = 0.45;

class SyntheticTraceGenerator {
 public:
  explicit SyntheticTraceGenerator(SyntheticTraceOptions options);

  // Generates a normalized trace (jobs sorted by arrival, dense ids).
  Trace Generate();

 private:
  JobSpec MakeInelasticJob(Rng& rng) const;
  JobSpec MakeElasticJob(Rng& rng) const;
  void AssignArrivalTimes(Trace& trace, Rng& rng) const;

  SyntheticTraceOptions options_;
};

// Shortest training time of a testbed job (§7.5).
inline constexpr TimeSec kTestbedMinDuration = 2 * kMinute;

// The scaled-down testbed workload of §7.5: 180 jobs (10 elastic), maximum
// demand capped at 16 GPUs (half the 32-GPU training side), submissions over
// 8 hours, training times between 2 minutes and 2 hours.
struct TestbedTraceOptions {
  int num_jobs = 180;
  int num_elastic_jobs = 10;
  int max_demand_gpus = 16;
  TimeSec submission_window = 8 * kHour;
  TimeSec max_duration = 2 * kHour;
  std::uint64_t seed = 7;
};

Trace MakeTestbedTrace(const TestbedTraceOptions& options);

// --- Scenario transforms (§7.1) ---------------------------------------------

// Ideal scenario: every job supports scaling and heterogeneous training with
// ideal performance. Jobs without a pre-defined range get base = requested
// demand and a range twice that.
void ApplyIdealScenario(Trace& trace);

// Flags a random `fraction` of jobs heterogeneous-capable, spread evenly
// across the trace (Advanced / Heterogeneous scenarios, Fig 11).
void ApplyHeterogeneousFraction(Trace& trace, double fraction, Rng& rng);

// Enables checkpointing for a random `fraction` of jobs (Fig 13).
void ApplyCheckpointingFraction(Trace& trace, double fraction, Rng& rng);

// Grows the elastic share of the population to `fraction` by converting
// inelastic jobs (range becomes [w, 2w]) in random order (Figs 14-16).
void ApplyElasticFraction(Trace& trace, double fraction, Rng& rng);

// Disables fungibility on all jobs (the Heterogeneous scenario drops the 21%
// fungible load and studies heterogeneous training alone).
void ClearFungibleFlags(Trace& trace);

}  // namespace lyra

#endif  // SRC_WORKLOAD_SYNTHETIC_H_
