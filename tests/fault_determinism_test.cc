// Determinism contract of the fault subsystem: the same seed must reproduce
// the same simulation — result statistics, fault counters, and the full
// fault-event log (checked both record-by-record and via the rolling FNV-1a
// hash) — across repeated direct Simulator runs and through the parallel
// bench harness.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

// Field-by-field bit-identical comparison (wall-clock fields excluded),
// extended with the fault outputs.
void ExpectIdentical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.total_jobs, b.total_jobs);
  EXPECT_EQ(a.finished_jobs, b.finished_jobs);
  EXPECT_EQ(a.events_processed, b.events_processed);

  EXPECT_EQ(a.queuing.count, b.queuing.count);
  EXPECT_EQ(a.queuing.mean, b.queuing.mean);
  EXPECT_EQ(a.queuing.p50, b.queuing.p50);
  EXPECT_EQ(a.queuing.p95, b.queuing.p95);
  EXPECT_EQ(a.queuing.p99, b.queuing.p99);
  EXPECT_EQ(a.queuing.max, b.queuing.max);
  EXPECT_EQ(a.jct.mean, b.jct.mean);
  EXPECT_EQ(a.jct.p95, b.jct.p95);

  EXPECT_EQ(a.queuing_samples, b.queuing_samples);
  EXPECT_EQ(a.jct_samples, b.jct_samples);
  EXPECT_EQ(a.queued_flags, b.queued_flags);

  EXPECT_EQ(a.training_usage, b.training_usage);
  EXPECT_EQ(a.overall_usage, b.overall_usage);
  EXPECT_EQ(a.onloan_usage, b.onloan_usage);

  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.collateral_damage, b.collateral_damage);
  EXPECT_EQ(a.scaling_operations, b.scaling_operations);

  EXPECT_EQ(a.orchestrator.loan_operations, b.orchestrator.loan_operations);
  EXPECT_EQ(a.orchestrator.servers_loaned, b.orchestrator.servers_loaned);
  EXPECT_EQ(a.orchestrator.servers_returned, b.orchestrator.servers_returned);
  EXPECT_EQ(a.orchestrator.jobs_preempted, b.orchestrator.jobs_preempted);

  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.fault_log_hash, b.fault_log_hash);
}

SimulatorOptions AllFaultsOptions(std::uint64_t seed) {
  SimulatorOptions options;
  options.training_servers = 6;
  options.enable_loaning = true;
  options.faults.enabled = true;
  options.faults.seed = seed;
  options.faults.server_mtbf = 4 * kHour;
  options.faults.server_mttr = kHour;
  options.faults.worker_mtbf = kHour;
  options.faults.worker_restart_delay = 5 * kMinute;
  options.faults.storm_mtbf = 3 * kHour;
  options.faults.storm_fraction = 0.5;
  options.faults.straggler_mtbf = 2 * kHour;
  options.faults.straggler_factor = 0.6;
  options.faults.straggler_duration = kHour;
  return options;
}

std::unique_ptr<InferenceCluster> SmallInference() {
  DiurnalTrafficOptions traffic;
  traffic.duration = 2 * kDay;
  traffic.trough = 0.3;
  traffic.peak = 0.6;
  traffic.noise_sigma = 0.0;
  traffic.bursts_per_day = 0.0;
  traffic.weekend_dip = 0.0;
  InferenceClusterOptions options;
  options.num_servers = 4;
  options.server_packing_spread = 1.0;
  return std::make_unique<InferenceCluster>(options,
                                            DiurnalTrafficModel(traffic), nullptr);
}

TEST(FaultDeterminism, SameSeedSameFaultsSameResult) {
  TestbedTraceOptions trace_options;
  trace_options.num_jobs = 40;
  trace_options.num_elastic_jobs = 8;
  trace_options.max_demand_gpus = 16;
  trace_options.submission_window = 6 * kHour;
  trace_options.max_duration = kHour;
  trace_options.seed = 9;
  const Trace trace = MakeTestbedTrace(trace_options);

  auto run = [&](std::uint64_t seed) {
    LyraScheduler scheduler;
    LyraReclaimPolicy reclaim;
    Simulator simulator(AllFaultsOptions(seed), trace, &scheduler, &reclaim,
                        SmallInference());
    SimulationResult result = simulator.Run();
    struct Out {
      SimulationResult result;
      std::vector<FaultRecord> log;
    };
    return Out{std::move(result), simulator.fault_injector()->log()};
  };

  const auto a = run(29);
  const auto b = run(29);
  ExpectIdentical(a.result, b.result);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i], b.log[i]) << "fault record " << i << " diverged";
  }

  // Every fault class actually fired, so the identity above is meaningful.
  EXPECT_GT(a.result.faults.server_crashes, 0);
  EXPECT_GT(a.result.faults.worker_failures, 0);
  EXPECT_GT(a.result.faults.revocation_storms, 0);
  EXPECT_GT(a.result.faults.stragglers, 0);

  // A different fault seed produces a different fault history.
  const auto c = run(31);
  EXPECT_NE(a.result.fault_log_hash, c.result.fault_log_hash);
}

TEST(FaultDeterminism, ParallelHarnessPreservesFaultDeterminism) {
  ExperimentConfig config;
  config.scale = 0.04;
  config.days = 0.6;

  RunSpec spec;
  spec.scheduler = "lyra";
  spec.reclaim = "lyra";
  spec.loaning = true;
  spec.faults.enabled = true;
  spec.faults.seed = 43;
  spec.faults.server_mtbf = 12 * kHour;
  spec.faults.server_mttr = kHour;
  spec.faults.storm_mtbf = 6 * kHour;

  // Four identical fault-enabled runs through the thread pool must all be
  // bit-identical to a sequential reference run.
  const SimulationResult reference = RunExperiment(config, spec);
  EXPECT_GT(reference.faults.server_crashes +
                reference.faults.revocation_storms,
            0);

  const std::vector<SimulationResult> batch =
      RunExperiments(config, {spec, spec, spec, spec});
  ASSERT_EQ(batch.size(), 4u);
  for (const SimulationResult& result : batch) {
    ExpectIdentical(reference, result);
  }
}

}  // namespace
}  // namespace lyra
