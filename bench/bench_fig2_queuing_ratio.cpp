// Fig 2: hourly fraction of newly-submitted jobs that queue (the scheduler
// fails to satisfy their demand on the first try), training cluster under
// FIFO for one week.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 7.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Fig 2: hourly queuing-job ratio under FIFO", config);

  lyra::RunSpec spec;
  spec.scheduler = "fifo";
  spec.loaning = false;
  const lyra::SimulationResult r = RunExperiment(config, spec);

  const int hours = static_cast<int>(config.days * 24);
  std::vector<int> submitted(static_cast<std::size_t>(hours), 0);
  std::vector<int> queued(static_cast<std::size_t>(hours), 0);
  for (std::size_t j = 0; j < r.submit_times.size(); ++j) {
    const int hour = static_cast<int>(r.submit_times[j] / lyra::kHour);
    if (hour < 0 || hour >= hours) {
      continue;
    }
    ++submitted[static_cast<std::size_t>(hour)];
    if (r.queued_flags[j]) {
      ++queued[static_cast<std::size_t>(hour)];
    }
  }

  std::printf("day hour  submitted  queued  ratio |bar|\n");
  double total_ratio = 0.0;
  int nonempty = 0;
  for (int h = 0; h < hours; h += 2) {
    const auto uh = static_cast<std::size_t>(h);
    const double ratio =
        submitted[uh] > 0 ? static_cast<double>(queued[uh]) / submitted[uh] : 0.0;
    if (submitted[uh] > 0) {
      total_ratio += ratio;
      ++nonempty;
    }
    std::printf("%3d %02d:00 %9d %7d %5.0f%% |", h / 24, h % 24, submitted[uh],
                queued[uh], ratio * 100.0);
    for (int b = 0; b < static_cast<int>(ratio * 40); ++b) {
      std::printf("#");
    }
    std::printf("|\n");
  }
  std::printf("\nmean hourly queuing ratio: %.0f%%; overall queue mean %.0fs\n",
              nonempty > 0 ? total_ratio / nonempty * 100.0 : 0.0, r.queuing.mean);
  std::printf(
      "Paper reference (Fig 2): a significant fraction of jobs (up to 100%% in some\n"
      "hours) queues; average queuing time >3,000s at ~82%% cluster utilization.\n");
  return 0;
}
