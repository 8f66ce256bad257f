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

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"

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

}  // namespace
}  // namespace lyra
