// Golden-trace regression test: a fixed-seed, reduced-scale slice of the
// table-5 scenario matrix is summarized with full double precision and
// diffed against a committed fixture. Any change to simulation semantics —
// scheduler decisions, event ordering, RNG stream layout, fault wiring with
// faults disabled — shows up here as a byte-level mismatch, so "bit-identical
// to the seed" claims are enforced mechanically instead of by hand.
//
// To regenerate the fixture after an *intentional* behaviour change:
//   LYRA_UPDATE_GOLDEN=1 ./golden_trace_test
// and commit the updated tests/golden/table5_small.golden with an
// explanation of why the numbers moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/sim/inference_cluster.h"
#include "src/svc/registry.h"

namespace lyra {
namespace {

#ifndef LYRA_GOLDEN_DIR
#error "LYRA_GOLDEN_DIR must be defined by the build"
#endif

constexpr const char* kFixturePath = LYRA_GOLDEN_DIR "/table5_small.golden";

// Formats a double so that equal bit patterns produce equal strings and any
// bit-level divergence produces a visible diff (17 significant digits
// round-trip IEEE doubles exactly).
std::string Full(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string SummaryLine(const std::string& label, const SimulationResult& r) {
  std::ostringstream out;
  out << label << " jobs=" << r.total_jobs << "/" << r.finished_jobs
      << " queue=" << Full(r.queuing.mean) << "," << Full(r.queuing.p50) << ","
      << Full(r.queuing.p95) << " jct=" << Full(r.jct.mean) << ","
      << Full(r.jct.p50) << "," << Full(r.jct.p95)
      << " usage=" << Full(r.training_usage) << "," << Full(r.overall_usage)
      << "," << Full(r.onloan_usage) << " preempt=" << r.preemptions
      << " scale_ops=" << r.scaling_operations
      << " loans=" << r.orchestrator.servers_loaned << ","
      << r.orchestrator.servers_returned << ","
      << r.orchestrator.jobs_preempted << ","
      << r.orchestrator.collateral_gpus;
  return out.str();
}

// The golden slice: one representative row per table-5 group, at a reduced
// but non-trivial scale (22 training + 26 inference servers, 2 days).
// Pollux is excluded to keep the test fast.
std::string GoldenReport() {
  ExperimentConfig config;
  config.scale = 0.05;
  config.days = 2.0;

  std::vector<ExperimentRun> runs;
  auto add = [&](const char* label, const char* scheduler, const char* reclaim,
                 bool loaning) {
    RunSpec spec;
    spec.scheduler = scheduler;
    spec.reclaim = reclaim;
    spec.loaning = loaning;
    runs.push_back({label, config, spec});
  };
  add("baseline/FIFO", "fifo", "lyra", false);
  add("basic/Lyra", "lyra", "lyra", true);
  add("loaning/LyraNoElastic", "lyra-no-elastic", "lyra", true);
  add("loaning/Random", "lyra-no-elastic", "random", true);
  add("scaling/AFS", "afs", "lyra", false);

  const std::vector<SimulationResult> results = RunExperiments(runs);

  std::string report;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report += SummaryLine(runs[i].label, results[i]);
    report += "\n";
  }
  return report;
}

TEST(GoldenTrace, Table5SmallSliceMatchesFixture) {
  const std::string report = GoldenReport();

  if (const char* update = std::getenv("LYRA_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(kFixturePath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kFixturePath;
    out << report;
    GTEST_SKIP() << "fixture regenerated at " << kFixturePath;
  }

  std::ifstream in(kFixturePath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << kFixturePath
                         << " — run with LYRA_UPDATE_GOLDEN=1 to create it";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  EXPECT_EQ(report, expected)
      << "fixed-seed simulation output diverged from the committed golden "
         "fixture. If the change is intentional, regenerate with "
         "LYRA_UPDATE_GOLDEN=1 and explain the delta in the commit message.";
}

// The runner must produce the same bytes no matter how the runs are spread
// over threads: the golden fixture pins sequential == parallel too.
TEST(GoldenTrace, ReportStableAcrossRepeatRuns) {
  EXPECT_EQ(GoldenReport(), GoldenReport());
}

// --- Long-queue decisions ----------------------------------------------------
//
// The slice above never queues more than a few hundred jobs, so it cannot
// tell a scheduler that reads the whole queue from one that only reads what
// changed. This run overloads a small cluster six times over: the queue
// peaks near 2.9k jobs. It is wired like `lyra_sim --scale=0.1 --days=5
// --load=6.0` (seed 42, Lyra with Lyra reclaiming, loaning on), so
//   lyra_sim --scale=0.1 --days=5 --load=6.0 --decisions-csv=<file>
// writes the same decision log. The pins below are an FNV-1a digest of every
// decision record and the run's outcome counters.

class Fnv1a {
 public:
  void U64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void Double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Pinned from the last full-queue implementation of the Lyra round; a
// deliberate change of Lyra's decisions re-pins them from the failure
// messages.
constexpr std::size_t kPinnedRecords = 33178;
constexpr std::uint64_t kPinnedDigest = 0x01081cf44b8f62dcull;
constexpr double kPinnedPendingPeak = 2871;
constexpr std::size_t kPinnedTotalJobs = 11612;
constexpr std::size_t kPinnedFinishedJobs = 10662;
constexpr int kPinnedPreemptions = 376;
constexpr int kPinnedScalingOperations = 9374;
constexpr int kPinnedServersLoaned = 1940;
constexpr int kPinnedServersReturned = 1940;
constexpr int kPinnedCollateralGpus = 447;

TEST(GoldenTrace, LongQueueDecisionsMatchPin) {
  constexpr double kScale = 0.1;
  constexpr std::uint64_t kSeed = 42;
  const int training_servers = static_cast<int>(443 * kScale);
  const int inference_servers = static_cast<int>(520 * kScale);

  SyntheticTraceOptions trace_options;
  trace_options.duration = 5 * kDay;
  trace_options.training_gpus = training_servers * 8;
  trace_options.target_utilization = 6.0;
  trace_options.seed = kSeed;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();

  StatusOr<std::unique_ptr<JobScheduler>> scheduler = svc::MakeScheduler("lyra", false, false);
  StatusOr<std::unique_ptr<ReclaimPolicy>> reclaim = svc::MakeReclaim("lyra");
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(reclaim.ok());
  SimulatorOptions options;
  options.training_servers = training_servers;
  options.record_decisions = true;
  options.seed = kSeed;
  Simulator simulator(options, trace, scheduler.value().get(), reclaim.value().get(),
                      MakeInferenceCluster(inference_servers, trace.duration, kSeed,
                                           svc::MakeUsagePredictor(false)));
  const SimulationResult result = simulator.Run();

  Fnv1a digest;
  for (const DecisionRecord& record : simulator.decision_log().records()) {
    digest.Double(record.time);
    digest.U64(static_cast<std::uint64_t>(record.kind));
    digest.U64(static_cast<std::uint64_t>(record.subject));
    digest.U64(static_cast<std::uint64_t>(static_cast<std::int64_t>(record.detail)));
  }
  const obs::MetricsValues metrics = simulator.metrics().Values();
  const auto pending = metrics.histograms.find("sim.pending_jobs_per_tick");
  ASSERT_NE(pending, metrics.histograms.end());

  EXPECT_EQ(simulator.decision_log().size(), kPinnedRecords);
  EXPECT_EQ(digest.value(), kPinnedDigest)
      << "decision log digest 0x" << std::hex << digest.value();
  EXPECT_EQ(pending->second.max(), kPinnedPendingPeak);
  EXPECT_EQ(result.total_jobs, kPinnedTotalJobs);
  EXPECT_EQ(result.finished_jobs, kPinnedFinishedJobs);
  EXPECT_EQ(result.preemptions, kPinnedPreemptions);
  EXPECT_EQ(result.scaling_operations, kPinnedScalingOperations);
  EXPECT_EQ(result.orchestrator.servers_loaned, kPinnedServersLoaned);
  EXPECT_EQ(result.orchestrator.servers_returned, kPinnedServersReturned);
  EXPECT_EQ(result.orchestrator.collateral_gpus, kPinnedCollateralGpus);
}

}  // namespace
}  // namespace lyra
