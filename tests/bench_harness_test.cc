// Determinism contract of the parallel experiment runner: RunExperiments /
// RunSeedSweep must produce results bit-identical to sequential
// RunExperiment calls per spec, in input order, regardless of thread count.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "bench/harness.h"
#include "src/common/codec.h"
#include "src/common/json.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/reclaim.h"
#include "src/predict/predictor.h"

namespace lyra {
namespace {

// Field-by-field bit-identical comparison. Wall-clock fields are excluded:
// they are the only intentionally nondeterministic outputs.
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
  EXPECT_EQ(a.queuing_on_loan_samples, b.queuing_on_loan_samples);
  EXPECT_EQ(a.jct_on_loan_samples, b.jct_on_loan_samples);
  EXPECT_EQ(a.queued_flags, b.queued_flags);

  EXPECT_EQ(a.training_usage, b.training_usage);
  EXPECT_EQ(a.overall_usage, b.overall_usage);
  EXPECT_EQ(a.onloan_usage, b.onloan_usage);

  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.preemption_ratio, b.preemption_ratio);
  EXPECT_EQ(a.collateral_damage, b.collateral_damage);
  EXPECT_EQ(a.scaling_operations, b.scaling_operations);

  EXPECT_EQ(a.orchestrator.loan_operations, b.orchestrator.loan_operations);
  EXPECT_EQ(a.orchestrator.reclaim_operations, b.orchestrator.reclaim_operations);
  EXPECT_EQ(a.orchestrator.servers_loaned, b.orchestrator.servers_loaned);
  EXPECT_EQ(a.orchestrator.servers_returned, b.orchestrator.servers_returned);
  EXPECT_EQ(a.orchestrator.jobs_preempted, b.orchestrator.jobs_preempted);
  EXPECT_EQ(a.orchestrator.collateral_gpus, b.orchestrator.collateral_gpus);
}

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.scale = 0.04;
  config.days = 0.6;
  return config;
}

std::vector<RunSpec> MixedSpecs() {
  std::vector<RunSpec> specs;
  {
    RunSpec spec;
    spec.scheduler = "fifo";
    spec.loaning = false;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.scheduler = "lyra";
    spec.reclaim = "lyra";
    spec.loaning = true;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.scheduler = "lyra-no-elastic";
    spec.reclaim = "scf";
    spec.loaning = true;
    specs.push_back(spec);
  }
  return specs;
}

class BenchHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force a real pool even on single-core CI machines, and keep the perf
    // registry from writing files from within tests.
    setenv("LYRA_BENCH_JOBS", "4", 1);
    setenv("LYRA_BENCH_PERF_JSON", "0", 1);
  }
  void TearDown() override {
    unsetenv("LYRA_BENCH_JOBS");
    unsetenv("LYRA_BENCH_PERF_JSON");
  }
};

TEST_F(BenchHarnessTest, ParallelMatchesSequential) {
  const ExperimentConfig config = SmallConfig();
  const std::vector<RunSpec> specs = MixedSpecs();

  std::vector<SimulationResult> sequential;
  for (const RunSpec& spec : specs) {
    sequential.push_back(RunExperiment(config, spec));
  }
  const std::vector<SimulationResult> parallel = RunExperiments(config, specs);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].scheduler);
    ExpectIdentical(parallel[i], sequential[i]);
  }
}

TEST_F(BenchHarnessTest, ParallelIsRepeatable) {
  const ExperimentConfig config = SmallConfig();
  const std::vector<RunSpec> specs = MixedSpecs();
  const std::vector<SimulationResult> first = RunExperiments(config, specs);
  const std::vector<SimulationResult> second = RunExperiments(config, specs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectIdentical(first[i], second[i]);
  }
}

TEST_F(BenchHarnessTest, SeedSweepMatchesSequentialSeeds) {
  const ExperimentConfig config = SmallConfig();
  RunSpec spec;
  spec.scheduler = "lyra";
  spec.reclaim = "lyra";
  spec.loaning = true;

  const std::vector<std::uint64_t> seeds = {42, 7, 1234};
  const std::vector<SimulationResult> sweep = RunSeedSweep(config, spec, seeds);
  ASSERT_EQ(sweep.size(), seeds.size());

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ExperimentConfig seeded = config;
    seeded.seed = seeds[i];
    SCOPED_TRACE(seeds[i]);
    ExpectIdentical(sweep[i], RunExperiment(seeded, spec));
  }
  // Different seeds must actually produce different workloads.
  EXPECT_NE(sweep[0].queuing.mean, sweep[1].queuing.mean);
}

TEST_F(BenchHarnessTest, MixedConfigBatchKeepsInputOrder) {
  RunSpec fifo;
  fifo.scheduler = "fifo";
  fifo.loaning = false;

  std::vector<ExperimentRun> runs;
  for (double days : {0.4, 0.6, 0.8}) {
    ExperimentConfig config = SmallConfig();
    config.days = days;
    runs.push_back({"days=" + std::to_string(days), config, fifo});
  }
  const std::vector<SimulationResult> results = RunExperiments(runs);
  ASSERT_EQ(results.size(), runs.size());
  // Each slot must hold exactly the result of its own config, proving the
  // pool writes results back in input order.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].label);
    ExpectIdentical(results[i], RunExperiment(runs[i].config, runs[i].spec));
  }
  // The three configs genuinely differ, so a slot swap could not go unnoticed.
  EXPECT_NE(results[0].total_jobs, results[1].total_jobs);
  EXPECT_NE(results[1].total_jobs, results[2].total_jobs);
}

// Full-precision summary: equal strings iff the decision-relevant outputs
// are bit-identical.
std::string Summary(const SimulationResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "jobs=%zu/%zu queue=%.17g,%.17g jct=%.17g,%.17g usage=%.17g,%.17g,%.17g "
                "preempt=%d scale_ops=%d loans=%d,%d",
                r.total_jobs, r.finished_jobs, r.queuing.mean, r.queuing.p95, r.jct.mean,
                r.jct.p95, r.training_usage, r.overall_usage, r.onloan_usage, r.preemptions,
                r.scaling_operations, r.orchestrator.servers_loaned,
                r.orchestrator.servers_returned);
  return buf;
}

// The same run as the harness, wired by hand around an explicit
// LyraSchedulerOptions instead of a registry name.
SimulationResult RunLyraByHand(const ExperimentConfig& config,
                               const LyraSchedulerOptions& scheduler_options) {
  const Trace trace = MakeTrace(config);
  LyraScheduler scheduler(scheduler_options);
  LyraReclaimPolicy reclaim;
  SimulatorOptions options;
  options.training_servers = config.training_servers();
  options.enable_loaning = true;
  Simulator simulator(options, trace, &scheduler, &reclaim,
                      MakeInferenceCluster(config.inference_servers(), trace.duration,
                                           config.seed,
                                           std::make_unique<SeasonalNaivePredictor>()));
  return simulator.Run();
}

// The two ablation names map to exactly their LyraSchedulerOptions flag. The
// three hand-built variants differ pairwise, so a name mapped to the wrong
// option (or to plain Lyra) cannot match.
TEST_F(BenchHarnessTest, AblationNamesMatchHandBuiltLyraVariants) {
  ExperimentConfig config;
  config.scale = 0.05;
  config.days = 2.0;

  LyraSchedulerOptions naive;
  naive.naive_placement = true;
  LyraSchedulerOptions no_elastic;
  no_elastic.disable_elastic_scaling = true;
  const std::string plain_by_hand = Summary(RunLyraByHand(config, {}));
  const std::string naive_by_hand = Summary(RunLyraByHand(config, naive));
  const std::string no_elastic_by_hand = Summary(RunLyraByHand(config, no_elastic));
  ASSERT_NE(naive_by_hand, plain_by_hand);
  ASSERT_NE(no_elastic_by_hand, plain_by_hand);
  ASSERT_NE(naive_by_hand, no_elastic_by_hand);

  RunSpec spec;
  spec.reclaim = "lyra";
  spec.loaning = true;
  spec.scheduler = "lyra";
  EXPECT_EQ(Summary(RunExperiment(config, spec)), plain_by_hand);
  spec.scheduler = "lyra-naive-placement";
  EXPECT_EQ(Summary(RunExperiment(config, spec)), naive_by_hand);
  spec.scheduler = "lyra-no-elastic";
  EXPECT_EQ(Summary(RunExperiment(config, spec)), no_elastic_by_hand);
}

// The harness writes its report as one section of the shared perf file: a
// section another tool merged in before stays.
TEST_F(BenchHarnessTest, PerfReportKeepsOtherSections) {
  const std::string path =
      ::testing::TempDir() + "perf_sections_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(WriteFileAtomic(path, R"({"lyra_loadgen":{"x":1}})").ok());
  setenv("LYRA_BENCH_PERF_JSON", path.c_str(), 1);
  ExperimentConfig config;
  config.scale = 0.02;
  config.days = 0.5;
  RunExperiment(config, RunSpec{});
  WritePerfReport("keeps_sections");

  StatusOr<std::string> text = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(text.ok()) << text.status().message();
  StatusOr<JsonValue> report = JsonValue::Parse(text.value());
  ASSERT_TRUE(report.ok()) << report.status().message();
  const JsonValue* loadgen = report.value().Find("lyra_loadgen");
  ASSERT_NE(loadgen, nullptr) << text.value();
  EXPECT_EQ(loadgen->GetDouble("x"), 1.0);
  const JsonValue* harness = report.value().Find("harness");
  ASSERT_NE(harness, nullptr) << text.value();
  EXPECT_EQ(harness->GetString("experiment"), "keeps_sections");
  const JsonValue* runs = harness->Find("runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_FALSE(runs->AsArray().empty());
}

TEST(BenchJobsTest, EnvOverrideWins) {
  setenv("LYRA_BENCH_JOBS", "3", 1);
  EXPECT_EQ(BenchJobs(), 3);
  setenv("LYRA_BENCH_JOBS", "0", 1);  // invalid: falls back to hardware
  EXPECT_GE(BenchJobs(), 1);
  unsetenv("LYRA_BENCH_JOBS");
  EXPECT_GE(BenchJobs(), 1);
}

}  // namespace
}  // namespace lyra
