// Fig 9: daily average resource usage of on-loan servers (5-minute samples).
// The paper observes consistently >92% — loaned servers are rapidly and
// fully exploited by training jobs.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 6.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Fig 9: daily average usage of on-loan servers", config);

  lyra::RunSpec spec;
  spec.scheduler = "lyra-no-elastic";  // loaning only (§7.3)
  spec.reclaim = "lyra";
  spec.loaning = true;
  spec.record_series = true;
  const lyra::SimulationResult r = RunExperiment(config, spec);

  const int days = static_cast<int>(config.days);
  std::vector<double> sums(static_cast<std::size_t>(days), 0.0);
  std::vector<int> counts(static_cast<std::size_t>(days), 0);
  for (const lyra::SeriesPoint& point : r.series) {
    if (point.onloan_usage < 0.0) {
      continue;  // nothing on loan at this sample
    }
    const int day = static_cast<int>(point.time / lyra::kDay);
    if (day >= 0 && day < days) {
      sums[static_cast<std::size_t>(day)] += point.onloan_usage;
      ++counts[static_cast<std::size_t>(day)];
    }
  }

  lyra::TextTable table({"day", "avg on-loan usage", "samples with loans"});
  for (int d = 0; d < days; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    table.AddRow({std::to_string(d + 1),
                  counts[ud] > 0 ? lyra::FormatPercent(sums[ud] / counts[ud], 1) : "-",
                  std::to_string(counts[ud])});
  }
  table.Print();
  std::printf("\noverall time-weighted on-loan usage: %.1f%%\n", r.onloan_usage * 100.0);
  std::printf(
      "Paper reference (Fig 9): the resource usage rate of on-loan servers is\n"
      "consistently above 92%% throughout the experiment.\n");
  return 0;
}
