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

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
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

std::uint64_t DecisionDigest(const DecisionLog& log) {
  Fnv1a digest;
  for (const DecisionRecord& record : log.records()) {
    digest.Double(record.time);
    digest.U64(static_cast<std::uint64_t>(record.kind));
    digest.U64(static_cast<std::uint64_t>(record.subject));
    digest.U64(static_cast<std::uint64_t>(static_cast<std::int64_t>(record.detail)));
  }
  return digest.value();
}

constexpr std::uint64_t kSeed = 42;

// The trace of `lyra_sim --scale=<scale> --days=<days> --load=<load>
// --elastic=<elastic>` (seed 42).
Trace LyraSimTrace(double scale, double days, double load, double elastic) {
  svc::TraceRecipe recipe;
  recipe.days = days;
  recipe.offered_load = load;
  recipe.elastic_job_population = elastic;
  recipe.seed = kSeed;
  return svc::MakeSyntheticTrace(recipe,
                                 svc::PaperClusterAt(scale).value().training_servers);
}

// lyra_sim's engine at `scale` over `trace` (seed 42, loaning on) with its
// decision log on and the run's own fault options.
svc::Engine LyraSimEngine(const std::string& scheduler, const std::string& reclaim,
                          double scale, const Trace& trace,
                          const FaultOptions& faults = {}) {
  svc::EngineConfig config;
  config.scheduler = scheduler;
  config.reclaim = reclaim;
  config.scale = scale;
  config.seed = kSeed;
  SimulatorOptions options;
  options.record_decisions = true;
  options.faults = faults;
  return std::move(svc::BuildEngine(config, trace, options).value());
}

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
  const svc::Engine engine =
      LyraSimEngine("lyra", "lyra", 0.1, LyraSimTrace(0.1, 5.0, 6.0, 0.0));
  Simulator& simulator = *engine.sim;
  const SimulationResult result = simulator.Run();

  const std::uint64_t digest = DecisionDigest(simulator.decision_log());
  const obs::MetricsValues metrics = simulator.metrics().Values();
  const auto pending = metrics.histograms.find("sim.pending_jobs_per_tick");
  ASSERT_NE(pending, metrics.histograms.end());

  EXPECT_EQ(simulator.decision_log().size(), kPinnedRecords);
  EXPECT_EQ(digest, kPinnedDigest) << "decision log digest 0x" << std::hex << digest;
  EXPECT_EQ(pending->second.max(), kPinnedPendingPeak);
  EXPECT_EQ(result.total_jobs, kPinnedTotalJobs);
  EXPECT_EQ(result.finished_jobs, kPinnedFinishedJobs);
  EXPECT_EQ(result.preemptions, kPinnedPreemptions);
  EXPECT_EQ(result.scaling_operations, kPinnedScalingOperations);
  EXPECT_EQ(result.orchestrator.servers_loaned, kPinnedServersLoaned);
  EXPECT_EQ(result.orchestrator.servers_returned, kPinnedServersReturned);
  EXPECT_EQ(result.orchestrator.collateral_gpus, kPinnedCollateralGpus);
}

// --- Every scheduler's decisions -------------------------------------------
//
// The slice above pins outcome summaries of four schedulers; this pins the
// decision log of every registry scheduler. Each run is wired like
//   lyra_sim --scheduler=<name> --scale=0.05 --days=2 --load=1.5 --elastic=0.5
// (seed 42, Lyra reclaiming, loaning on), so `--decisions-csv=<file>` writes
// the same log. Half the jobs elastic and the cluster overloaded keep every
// placement path busy: launches on both pools, harvests, flexible growth.

struct SchedulerPin {
  const char* name;
  std::size_t records;
  std::uint64_t digest;
};

// Pinned before the baselines and Lyra shared one placer; a deliberate
// change of a scheduler's decisions re-pins its row from the failure message.
constexpr SchedulerPin kSchedulerPins[] = {
    {"afs", 2563, 0x1f89fdb41d4e8999ull},
    {"fifo", 1797, 0x647436eab33cbd96ull},
    {"gandiva", 1974, 0x78976c1e44f127b4ull},
    {"lyra", 3957, 0x6a333a7bd112e5b6ull},
    {"lyra-naive-placement", 3768, 0xd4b5ec3ee5cf91b4ull},
    {"lyra-no-elastic", 1812, 0x2d91e468482e2495ull},
    {"opportunistic", 1948, 0x190846f6577cb089ull},
    {"pollux", 2921, 0x22cb569e9c450c14ull},
    {"sjf", 1766, 0x11baf33680999fe4ull},
};

TEST(GoldenTrace, EverySchedulerDecisionsMatchPin) {
  const Trace trace = LyraSimTrace(0.05, 2.0, 1.5, 0.5);
  std::vector<std::string> pinned;
  for (const SchedulerPin& pin : kSchedulerPins) {
    pinned.push_back(pin.name);
    SCOPED_TRACE(pin.name);
    const svc::Engine engine = LyraSimEngine(pin.name, "lyra", 0.05, trace);
    engine.sim->Run();

    const std::uint64_t digest = DecisionDigest(engine.sim->decision_log());
    EXPECT_EQ(engine.sim->decision_log().size(), pin.records);
    EXPECT_EQ(digest, pin.digest) << "decision log digest 0x" << std::hex << digest;
  }

  // A scheduler added to the registry gets a pin too.
  for (const std::string& name : svc::KnownSchedulerNames()) {
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), name), pinned.end())
        << name << " has no pin";
  }
}

// --- Every reclaim policy under revocation storms ---------------------------
//
// A revocation storm first estimates its damage by running the reclaim policy
// on the cluster without keeping the result, then revokes for real. The
// estimate leaves the cluster as it was, yet it is not free of effects:
// `random` draws from its RNG there, so an estimate dropped or run twice
// moves every later random reclaim. This pins, for every registry reclaim
// policy, the decision log and the fault-log hash of a faults-on run with a
// storm every two hours (the scheduler-pin wiring otherwise: Lyra scheduling,
// scale 0.05, 2 days, load 1.5, half the jobs elastic, seed 42).

struct ReclaimPin {
  const char* name;
  std::size_t records;
  std::uint64_t digest;
  std::uint64_t fault_log_hash;
};

// Pinned while the storm estimate still ran inside an undo-log transaction on
// the live cluster; a deliberate change of a policy's decisions re-pins its
// row from the failure messages.
constexpr ReclaimPin kReclaimPins[] = {
    {"lyra", 4134, 0xb1846e16dfc875c6ull, 0xef1b9d8f7c1263ceull},
    {"optimal", 4136, 0xa0fdb5e5896a301full, 0xe5973f438b215cd3ull},
    {"random", 4179, 0x127e61b10ebcb6abull, 0xf08705400dbbbcc9ull},
    {"scf", 4206, 0x04ee61c7692f8b02ull, 0xe00d00f23d213bb7ull},
};

TEST(GoldenTrace, EveryReclaimUnderStormsDecisionsMatchPin) {
  const Trace trace = LyraSimTrace(0.05, 2.0, 1.5, 0.5);
  FaultOptions storms;
  storms.enabled = true;
  storms.storm_mtbf = 2 * kHour;
  std::vector<std::string> pinned;
  for (const ReclaimPin& pin : kReclaimPins) {
    pinned.push_back(pin.name);
    SCOPED_TRACE(pin.name);
    const svc::Engine engine = LyraSimEngine("lyra", pin.name, 0.05, trace, storms);
    const SimulationResult result = engine.sim->Run();

    const std::uint64_t digest = DecisionDigest(engine.sim->decision_log());
    EXPECT_GT(result.faults.revocation_storms, 0);
    EXPECT_EQ(engine.sim->decision_log().size(), pin.records);
    EXPECT_EQ(digest, pin.digest) << "decision log digest 0x" << std::hex << digest;
    EXPECT_EQ(result.fault_log_hash, pin.fault_log_hash)
        << "fault log hash 0x" << std::hex << result.fault_log_hash;
  }

  // A reclaim policy added to the registry gets a pin too.
  for (const std::string& name : svc::KnownReclaimNames()) {
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), name), pinned.end())
        << name << " has no pin";
  }
}

// --- Every usage predictor under loaning ------------------------------------
//
// The runs above all size loans with the seasonal-naive predictor. Loaning
// moves servers between the pools, and with them the capacity of Lyra's
// phase-two knapsack, so a predictor change moves decisions. This pins, for
// every registry usage predictor, the decision log of a Lyra run with
// loaning on (the scheduler-pin wiring otherwise: Lyra reclaiming, scale
// 0.05, 2 days, load 1.5, half the jobs elastic, seed 42).

struct PredictorPin {
  const char* name;
  std::size_t records;
  std::uint64_t digest;
};

// Pinned before the knapsack solved only its reachable region; a deliberate
// change of Lyra's decisions re-pins its rows from the failure messages.
constexpr PredictorPin kPredictorPins[] = {
    {"last-value", 4198, 0x42d525202ff1dfc6ull},
    {"lstm", 3990, 0xd81b29faaca70e99ull},
    {"seasonal-naive", 3957, 0x6a333a7bd112e5b6ull},
};

TEST(GoldenTrace, EveryPredictorDecisionsMatchPin) {
  constexpr double kScale = 0.05;
  const svc::PaperCluster cluster = svc::PaperClusterAt(kScale).value();
  const Trace trace = LyraSimTrace(kScale, 2.0, 1.5, 0.5);

  std::vector<std::string> pinned;
  for (const PredictorPin& pin : kPredictorPins) {
    pinned.push_back(pin.name);
    SCOPED_TRACE(pin.name);
    StatusOr<std::unique_ptr<JobScheduler>> scheduler =
        svc::MakeScheduler("lyra", false, false);
    StatusOr<std::unique_ptr<ReclaimPolicy>> reclaim = svc::MakeReclaim("lyra");
    StatusOr<std::unique_ptr<UsagePredictor>> predictor = svc::MakePredictor(pin.name);
    ASSERT_TRUE(scheduler.ok());
    ASSERT_TRUE(reclaim.ok());
    ASSERT_TRUE(predictor.ok());
    SimulatorOptions options;
    options.training_servers = cluster.training_servers;
    options.enable_loaning = true;
    options.record_decisions = true;
    options.seed = kSeed;
    Simulator simulator(options, trace, scheduler.value().get(), reclaim.value().get(),
                        MakeInferenceCluster(cluster.inference_servers, trace.duration,
                                             kSeed, std::move(predictor.value())));
    const SimulationResult result = simulator.Run();

    const std::uint64_t digest = DecisionDigest(simulator.decision_log());
    EXPECT_GT(result.orchestrator.servers_loaned, 0);
    EXPECT_EQ(simulator.decision_log().size(), pin.records);
    EXPECT_EQ(digest, pin.digest) << "decision log digest 0x" << std::hex << digest;
  }

  // A usage predictor added to the registry gets a pin too.
  for (const std::string& name : svc::KnownPredictorNames()) {
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), name), pinned.end())
        << name << " has no pin";
  }
}

}  // namespace
}  // namespace lyra
