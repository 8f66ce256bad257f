// Figs 14-15: queuing-time and JCT reduction over Baseline as elastic jobs
// grow from 20% to 100% of the population, for all elastic schedulers
// (no capacity loaning, §7.4).
#include <cstdio>

#include "bench/harness.h"
#include "src/common/table.h"

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.3;
  config.days = 4.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Figs 14-15: sweep over %% of elastic jobs", config);

  struct Scheme {
    const char* label;
    const char* scheduler;
    bool tuned;
  };
  const Scheme schemes[] = {{"Gandiva", "gandiva", false},
                            {"AFS", "afs", false},
                            {"Pollux", "pollux", false},
                            {"Lyra", "lyra", false},
                            {"Lyra+TunedJobs", "lyra", true}};

  lyra::TextTable queue_table({"% elastic", "Gandiva", "AFS", "Pollux", "Lyra",
                               "Lyra+Tuned"});
  lyra::TextTable jct_table = queue_table;

  // The full grid — (baseline + 5 schemes) x 5 elastic fractions = 30
  // independent simulations — fans out over the harness thread pool.
  const double fractions[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  std::vector<lyra::ExperimentRun> runs;
  for (double fraction : fractions) {
    lyra::ExperimentConfig cfg = config;
    cfg.elastic_job_population = fraction;

    lyra::RunSpec baseline;
    baseline.scheduler = "fifo";
    baseline.loaning = false;
    runs.push_back({"baseline@" + lyra::FormatPercent(fraction, 0), cfg, baseline});

    for (const Scheme& scheme : schemes) {
      lyra::RunSpec spec;
      spec.scheduler = scheme.scheduler;
      spec.tuned = scheme.tuned;
      spec.loaning = false;
      runs.push_back(
          {std::string(scheme.label) + "@" + lyra::FormatPercent(fraction, 0), cfg, spec});
    }
  }
  const std::vector<lyra::SimulationResult> results = lyra::RunExperiments(runs);

  const std::size_t row_width = 1 + std::size(schemes);
  for (std::size_t f = 0; f < std::size(fractions); ++f) {
    const lyra::SimulationResult& base = results[f * row_width];
    std::vector<std::string> queue_row = {lyra::FormatPercent(fractions[f], 0)};
    std::vector<std::string> jct_row = queue_row;
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
      const lyra::SimulationResult& r = results[f * row_width + 1 + s];
      queue_row.push_back(lyra::FormatRatio(base.queuing.mean / r.queuing.mean));
      jct_row.push_back(lyra::FormatRatio(base.jct.mean / r.jct.mean));
    }
    queue_table.AddRow(queue_row);
    jct_table.AddRow(jct_row);
  }

  std::printf("--- Fig 14: queuing-time reduction over Baseline ---\n");
  queue_table.Print();
  std::printf("\n--- Fig 15: JCT reduction over Baseline ---\n");
  jct_table.Print();
  std::printf(
      "\nPaper reference (Figs 14-15): all schemes improve as elasticity grows; Lyra\n"
      "delivers the largest gains in both metrics; AFS has good queuing but weaker\n"
      "JCT (greedy ordering); Pollux queues poorly but tunes its way to decent JCT;\n"
      "Lyra+TunedJobs widens the gap further when all jobs are elastic.\n");
  lyra::WritePerfReport("fig14_15_elastic_fraction");
  return 0;
}
