// Table 6: performance without special placement of elastic jobs.
//
// Lyra normally places elastic jobs on on-loan servers with base and flexible
// demand on separate server groups (§5.3). The ablation places them naively
// (training first, no grouping), which the paper shows raises the preemption
// ratio by up to 91% and degrades queuing/JCT.
#include <cstdio>

#include "bench/harness.h"
#include "src/common/table.h"

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 6.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Table 6: placement ablation (naive BFD vs Lyra grouping)", config);

  lyra::TextTable table({"scenario", "placement", "queue mean", "JCT mean", "preempt"});
  auto row = [&](const char* scenario, const lyra::ExperimentConfig& cfg,
                 lyra::RunSpec spec) {
    spec.loaning = true;
    spec.reclaim = "lyra";
    const lyra::SimulationResult r = RunExperiment(cfg, spec);
    table.AddRow({scenario, spec.scheduler == "lyra" ? "grouped (Lyra)" : "naive BFD",
                  lyra::Secs(r.queuing.mean), lyra::Secs(r.jct.mean),
                  lyra::FormatPercent(r.preemption_ratio, 2)});
  };

  lyra::ExperimentConfig advanced = config;
  advanced.heterogeneous_fraction = 0.10;
  lyra::ExperimentConfig ideal = config;
  ideal.ideal = true;

  for (const auto& [name, cfg] :
       std::vector<std::pair<const char*, lyra::ExperimentConfig>>{
           {"Basic", config}, {"Advanced", advanced}, {"Ideal", ideal}}) {
    lyra::RunSpec grouped;
    grouped.scheduler = "lyra";
    if (cfg.ideal) {
      grouped.throughput.heterogeneous_efficiency = 1.0;
    }
    lyra::RunSpec naive = grouped;
    naive.scheduler = "lyra-naive-placement";
    row(name, cfg, grouped);
    row(name, cfg, naive);
  }
  table.Print();
  std::printf(
      "\nPaper reference: dropping the elastic grouping raises the preemption ratio\n"
      "(up to +91%% in Ideal) and inflates Basic queuing/JCT by up to 11%%/15%%.\n");
  return 0;
}
