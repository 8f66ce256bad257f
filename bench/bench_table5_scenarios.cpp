// Table 5: simulation results in different scenarios using different schemes.
//
// Reproduces all 14 rows: Baseline; Lyra in the Basic / Advanced /
// Heterogeneous / Ideal scenarios; the capacity-loaning group (Opportunistic,
// Random, SCF, Lyra reclaiming — all without elastic scaling); and the
// elastic-scaling group (Gandiva, AFS, Pollux, Lyra, Lyra+TunedJobs — all
// without capacity loaning).
#include <cstdio>

#include "bench/harness.h"
#include "src/common/table.h"

namespace {

using lyra::ExperimentConfig;
using lyra::FormatDouble;
using lyra::FormatPercent;
using lyra::RunSpec;
using lyra::Secs;
using lyra::SimulationResult;

void AddRow(lyra::TextTable& table, const char* scenario, const char* scheme,
            const SimulationResult& r, bool overall_na) {
  table.AddRow({scenario, scheme, Secs(r.queuing.mean), Secs(r.queuing.p50),
                Secs(r.queuing.p95), Secs(r.jct.mean), Secs(r.jct.p50), Secs(r.jct.p95),
                FormatDouble(r.training_usage, 2),
                overall_na ? "NA" : FormatDouble(r.overall_usage, 2),
                overall_na ? "NA" : FormatPercent(r.preemption_ratio, 2)});
}

}  // namespace

int main() {
  ExperimentConfig config = lyra::WithEnvOverrides({});
  lyra::PrintBanner("Table 5: scenarios x schemes", config);

  // All 14 rows are independent simulations: declare them up front and fan
  // them out over the harness thread pool.
  struct Row {
    const char* scenario;
    const char* scheme;
    bool overall_na;
  };
  std::vector<Row> rows;
  std::vector<lyra::ExperimentRun> runs;
  auto add = [&](const char* scenario, const char* scheme, bool overall_na,
                 const ExperimentConfig& cfg, const RunSpec& spec) {
    rows.push_back({scenario, scheme, overall_na});
    runs.push_back({std::string(scenario) + "/" + scheme, cfg, spec});
  };

  // Row 1: Baseline — FIFO, no loaning, no scaling.
  {
    RunSpec spec;
    spec.scheduler = "fifo";
    spec.loaning = false;
    add("-", "Baseline", false, config, spec);
  }
  // Rows 2-5: Lyra across scenarios.
  {
    RunSpec spec;
    spec.scheduler = "lyra";
    spec.reclaim = "lyra";
    spec.loaning = true;
    add("Basic", "Lyra", false, config, spec);

    ExperimentConfig advanced = config;
    advanced.heterogeneous_fraction = 0.10;
    add("Advanced", "Lyra", false, advanced, spec);

    ExperimentConfig heterogeneous = advanced;
    heterogeneous.clear_fungible = true;
    add("Heterogeneous", "Lyra", false, heterogeneous, spec);

    ExperimentConfig ideal = config;
    ideal.ideal = true;
    spec.throughput.heterogeneous_efficiency = 1.0;  // ideal performance
    add("Ideal", "Lyra", false, ideal, spec);
  }
  // Rows 6-9: capacity loaning only (no elastic scaling).
  {
    RunSpec spec;
    spec.scheduler = "opportunistic";
    spec.reclaim = "random";
    spec.loaning = true;
    add("Loaning", "Opportunity", false, config, spec);

    spec.scheduler = "lyra-no-elastic";
    spec.reclaim = "random";
    add("Loaning", "Random", false, config, spec);
    spec.reclaim = "scf";
    add("Loaning", "SCF", false, config, spec);
    spec.reclaim = "lyra";
    add("Loaning", "Lyra", false, config, spec);
  }
  // Rows 10-14: elastic scaling only (no capacity loaning).
  {
    RunSpec spec;
    spec.loaning = false;
    spec.scheduler = "gandiva";
    add("Scaling", "Gandiva", true, config, spec);
    spec.scheduler = "afs";
    add("Scaling", "AFS", true, config, spec);
    spec.scheduler = "pollux";
    add("Scaling", "Pollux", true, config, spec);
    spec.scheduler = "lyra";
    add("Scaling", "Lyra", true, config, spec);
    spec.tuned = true;
    add("Scaling", "Lyra+TunedJobs", true, config, spec);
  }

  const std::vector<SimulationResult> results = lyra::RunExperiments(runs);

  lyra::TextTable table({"scenario", "scheme", "queue mean", "queue p50", "queue p95",
                         "JCT mean", "JCT p50", "JCT p95", "train use", "overall use",
                         "preempt"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    AddRow(table, rows[i].scenario, rows[i].scheme, results[i], rows[i].overall_na);
  }
  table.Print();
  lyra::WritePerfReport("table5_scenarios");
  std::printf(
      "\nPaper reference (Table 5): Baseline queue 3072s mean / 55s p50 / 8357s p95;\n"
      "Lyra Basic improves queuing 1.53x and JCT 1.48x over Baseline; Ideal is the\n"
      "upper bound; loaning-only and scaling-only land in between.\n");
  return 0;
}
