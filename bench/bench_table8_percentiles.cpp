// Table 8: 50/75/95/99th percentile queuing time and JCT for all the elastic
// scheduling schemes in the Basic scenario (no capacity loaning, §7.4).
#include <cstdio>

#include "bench/harness.h"
#include "src/common/table.h"

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 6.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Table 8: queuing/JCT percentiles, elastic schedulers", config);

  lyra::TextTable table({"scheme", "q p50", "q p75", "q p95", "q p99", "JCT p50",
                         "JCT p75", "JCT p95", "JCT p99"});

  struct Scheme {
    const char* label;
    const char* scheduler;
    bool tuned;
  };
  const Scheme schemes[] = {
      {"Baseline", "fifo", false}, {"Gandiva", "gandiva", false},
      {"AFS", "afs", false},       {"Pollux", "pollux", false},
      {"Lyra", "lyra", false},     {"Lyra+TunedJobs", "lyra", true},
  };
  for (const Scheme& scheme : schemes) {
    lyra::RunSpec spec;
    spec.scheduler = scheme.scheduler;
    spec.tuned = scheme.tuned;
    spec.loaning = false;
    const lyra::SimulationResult r = RunExperiment(config, spec);
    table.AddRow({scheme.label, lyra::Secs(r.queuing.p50), lyra::Secs(r.queuing.p75),
                  lyra::Secs(r.queuing.p95), lyra::Secs(r.queuing.p99),
                  lyra::Secs(r.jct.p50), lyra::Secs(r.jct.p75), lyra::Secs(r.jct.p95),
                  lyra::Secs(r.jct.p99)});
  }
  table.Print();
  std::printf(
      "\nPaper reference (Table 8): Lyra beats Pollux by 1.23x/1.69x in median/p95\n"
      "queuing and 1.20x/1.25x in median/p95 JCT; Lyra+TunedJobs is best everywhere.\n");
  return 0;
}
