// Cross-module integration tests: full simulations on contended synthetic
// traces, checking the paper's qualitative claims end-to-end.
#include <gtest/gtest.h>

#include <memory>

#include "src/lyra/lyra_scheduler.h"
#include "src/predict/predictor.h"
#include "src/sched/fifo.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

Trace ContendedTrace(std::uint64_t seed = 21) {
  SyntheticTraceOptions options;
  options.duration = 2 * kDay;
  options.training_gpus = 40 * 8;
  options.target_utilization = 1.0;
  options.seed = seed;
  return SyntheticTraceGenerator(options).Generate();
}

std::unique_ptr<InferenceCluster> MakeInference(std::uint64_t seed = 4) {
  DiurnalTrafficOptions traffic;
  traffic.duration = 9 * kDay;
  traffic.seed = seed;
  InferenceClusterOptions options;
  options.num_servers = 47;
  return std::make_unique<InferenceCluster>(
      options, DiurnalTrafficModel(traffic),
      std::make_unique<SeasonalNaivePredictor>());
}

SimulationResult RunSim(const Trace& trace, JobScheduler* scheduler,
                     ReclaimPolicy* reclaim, bool loaning) {
  SimulatorOptions options;
  options.training_servers = 40;
  options.enable_loaning = loaning;
  Simulator sim(options, trace, scheduler, reclaim, MakeInference());
  return sim.Run();
}

TEST(Integration, LyraBeatsFifoOnQueuingUnderContention) {
  const Trace trace = ContendedTrace();
  FifoScheduler fifo;
  LyraScheduler lyra;
  LyraReclaimPolicy reclaim;
  const SimulationResult baseline = RunSim(trace, &fifo, &reclaim, false);
  const SimulationResult with_lyra = RunSim(trace, &lyra, &reclaim, true);
  ASSERT_EQ(baseline.finished_jobs, baseline.total_jobs);
  ASSERT_EQ(with_lyra.finished_jobs, with_lyra.total_jobs);
  EXPECT_LT(with_lyra.queuing.mean, baseline.queuing.mean);
  EXPECT_LT(with_lyra.jct.mean, baseline.jct.mean);
}

TEST(Integration, CapacityLoaningAloneHelps) {
  const Trace trace = ContendedTrace();
  LyraSchedulerOptions no_elastic;
  no_elastic.disable_elastic_scaling = true;
  LyraScheduler without_loan(no_elastic);
  LyraScheduler with_loan(no_elastic);
  LyraReclaimPolicy reclaim;
  const SimulationResult off = RunSim(trace, &without_loan, &reclaim, false);
  const SimulationResult on = RunSim(trace, &with_loan, &reclaim, true);
  EXPECT_LT(on.queuing.mean, off.queuing.mean);
  EXPECT_GT(on.overall_usage, off.overall_usage);
  EXPECT_GT(on.orchestrator.servers_loaned, 0);
}

TEST(Integration, ElasticScalingAloneHelps) {
  const Trace trace = ContendedTrace();
  FifoScheduler fifo;
  LyraScheduler lyra;
  LyraReclaimPolicy reclaim;
  const SimulationResult fifo_result = RunSim(trace, &fifo, &reclaim, false);
  const SimulationResult lyra_result = RunSim(trace, &lyra, &reclaim, false);
  EXPECT_LT(lyra_result.queuing.mean, fifo_result.queuing.mean);
  EXPECT_GT(lyra_result.scaling_operations, 0);
}

TEST(Integration, OnLoanJobsQueueLessThanBaseline) {
  // Table 7's qualitative claim: jobs that ran on loaned servers see large
  // queuing-time improvements relative to the same trace under Baseline.
  const Trace trace = ContendedTrace();
  FifoScheduler fifo;
  LyraScheduler lyra;
  LyraReclaimPolicy reclaim;
  const SimulationResult baseline = RunSim(trace, &fifo, &reclaim, false);
  const SimulationResult with_lyra = RunSim(trace, &lyra, &reclaim, true);
  ASSERT_FALSE(with_lyra.queuing_on_loan_samples.empty());
  EXPECT_LT(with_lyra.queuing_on_loan.p95, baseline.queuing.p95);
}

TEST(Integration, NaivePlacementPreemptsMore) {
  // Table 6: without the base/flexible grouping and loan affinity, reclaims
  // hit more jobs.
  const Trace trace = ContendedTrace(33);
  LyraScheduler grouped;
  LyraSchedulerOptions naive_options;
  naive_options.naive_placement = true;
  LyraScheduler naive(naive_options);
  LyraReclaimPolicy reclaim;
  const SimulationResult with_grouping = RunSim(trace, &grouped, &reclaim, true);
  const SimulationResult without = RunSim(trace, &naive, &reclaim, true);
  EXPECT_LE(with_grouping.preemption_ratio, without.preemption_ratio + 0.01);
}

TEST(Integration, ImperfectScalingCostsJctOnAverage) {
  // A single trace can flip by packing luck; the §7.2 claim is about the
  // average, so compare summed mean JCT over several seeds.
  double linear_total = 0.0;
  double imperfect_total = 0.0;
  for (std::uint64_t seed : {55u, 56u, 57u}) {
    const Trace trace = ContendedTrace(seed);
    LyraReclaimPolicy reclaim;
    SimulatorOptions linear;
    linear.training_servers = 40;
    linear.enable_loaning = false;
    SimulatorOptions imperfect = linear;
    imperfect.throughput.marginal_efficiency = 0.8;

    LyraScheduler lyra_a;
    Simulator sim_linear(linear, trace, &lyra_a, &reclaim, nullptr);
    linear_total += sim_linear.Run().jct.mean;
    LyraScheduler lyra_b;
    Simulator sim_imperfect(imperfect, trace, &lyra_b, &reclaim, nullptr);
    imperfect_total += sim_imperfect.Run().jct.mean;
  }
  EXPECT_GE(imperfect_total, linear_total * 0.99);
}

TEST(Integration, TunedJobsImproveTailJct) {
  const Trace trace = ContendedTrace(77);
  LyraScheduler plain;
  LyraSchedulerOptions tuned_options;
  tuned_options.tuned_jobs = true;
  LyraScheduler tuned(tuned_options);
  LyraReclaimPolicy reclaim;
  SimulatorOptions options;
  options.training_servers = 40;
  options.enable_loaning = false;
  options.throughput.marginal_efficiency = 0.8;  // tuning has room to help

  Simulator sim_plain(options, trace, &plain, &reclaim, nullptr);
  const SimulationResult a = sim_plain.Run();
  Simulator sim_tuned(options, trace, &tuned, &reclaim, nullptr);
  const SimulationResult b = sim_tuned.Run();
  EXPECT_LT(b.jct.mean, a.jct.mean);
}

TEST(Integration, FullPipelineIsDeterministic) {
  const Trace trace = ContendedTrace(88);
  auto run = [&]() {
    LyraScheduler lyra;
    LyraReclaimPolicy reclaim;
    return RunSim(trace, &lyra, &reclaim, true);
  };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_DOUBLE_EQ(a.queuing.mean, b.queuing.mean);
  EXPECT_DOUBLE_EQ(a.jct.mean, b.jct.mean);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.scaling_operations, b.scaling_operations);
}

TEST(Integration, MckpCountersAreDeterministic) {
  // The engine counts phase two's knapsack work in solves and DP cell
  // updates, never in time, so a same-seed rerun reports the same counts.
  const Trace trace = ContendedTrace(88);
  const auto run = [&]() {
    LyraScheduler lyra;
    LyraReclaimPolicy reclaim;
    SimulatorOptions options;
    options.training_servers = 40;
    options.enable_loaning = true;
    Simulator sim(options, trace, &lyra, &reclaim, MakeInference());
    sim.Run();
    const auto& counters = sim.metrics().counters();
    EXPECT_TRUE(counters.count("mckp.solves"));
    EXPECT_TRUE(counters.count("mckp.cells"));
    return std::make_pair(counters.at("mckp.solves")->value(),
                          counters.at("mckp.cells")->value());
  };
  const auto first = run();
  EXPECT_GT(first.first, 0u);
  EXPECT_GT(first.second, first.first);
  EXPECT_EQ(first, run());
}

TEST(Integration, AllJobsFinishAcrossSchedulers) {
  const Trace trace = ContendedTrace(99);
  LyraReclaimPolicy reclaim;
  FifoScheduler fifo;
  SjfScheduler sjf;
  LyraScheduler lyra;
  for (JobScheduler* scheduler :
       std::vector<JobScheduler*>{&fifo, &sjf, &lyra}) {
    const SimulationResult result = RunSim(trace, scheduler, &reclaim, true);
    EXPECT_EQ(result.finished_jobs, result.total_jobs) << scheduler->name();
    EXPECT_GT(result.training_usage, 0.3) << scheduler->name();
    EXPECT_LE(result.training_usage, 1.0) << scheduler->name();
  }
}

}  // namespace
}  // namespace lyra
