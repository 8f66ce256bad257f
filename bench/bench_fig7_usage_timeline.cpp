// Fig 7: hourly combined (training + inference) resource usage of Baseline,
// Basic and Ideal over 48 hours. Loaning flattens the diurnal usage curve.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"

namespace {

std::vector<double> HourlySeries(const lyra::SimulationResult& result, int hours) {
  std::vector<double> sums(static_cast<std::size_t>(hours), 0.0);
  std::vector<int> counts(static_cast<std::size_t>(hours), 0);
  for (const lyra::SeriesPoint& point : result.series) {
    const int hour = static_cast<int>(point.time / lyra::kHour);
    if (hour >= 0 && hour < hours) {
      sums[static_cast<std::size_t>(hour)] += point.overall_usage;
      ++counts[static_cast<std::size_t>(hour)];
    }
  }
  for (int h = 0; h < hours; ++h) {
    const auto uh = static_cast<std::size_t>(h);
    if (counts[uh] > 0) {
      sums[uh] /= counts[uh];
    }
  }
  return sums;
}

}  // namespace

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 2.0;  // the figure's 48-hour window
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Fig 7: hourly combined cluster usage over 48 hours", config);

  lyra::RunSpec baseline;
  baseline.scheduler = "fifo";
  baseline.loaning = false;
  baseline.record_series = true;

  lyra::RunSpec basic;
  basic.scheduler = "lyra";
  basic.loaning = true;
  basic.record_series = true;

  lyra::RunSpec ideal_spec = basic;
  ideal_spec.throughput.heterogeneous_efficiency = 1.0;
  lyra::ExperimentConfig ideal_config = config;
  ideal_config.ideal = true;

  const int hours = static_cast<int>(config.days * 24);
  const auto base = HourlySeries(RunExperiment(config, baseline), hours);
  const auto basic_series = HourlySeries(RunExperiment(config, basic), hours);
  const auto ideal_series = HourlySeries(RunExperiment(ideal_config, ideal_spec), hours);

  lyra::TextTable table({"hour", "Baseline", "Basic", "Ideal"});
  for (int h = 0; h < hours; h += 2) {
    const auto uh = static_cast<std::size_t>(h);
    table.AddRow({std::to_string(h), lyra::FormatPercent(base[uh], 0),
                  lyra::FormatPercent(basic_series[uh], 0),
                  lyra::FormatPercent(ideal_series[uh], 0)});
  }
  table.Print();

  auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (double x : xs) {
      sum += x;
    }
    return sum / static_cast<double>(xs.size());
  };
  std::printf("\nmean combined usage: Baseline %.0f%%, Basic %.0f%%, Ideal %.0f%%\n",
              mean(base) * 100, mean(basic_series) * 100, mean(ideal_series) * 100);
  std::printf(
      "Paper reference (Fig 7): Baseline shows a clear diurnal pattern from the\n"
      "inference side; loaning lifts and flattens the curve (up to +14%% Basic vs\n"
      "Baseline); the combined usage never reaches 100%% due to the 2%% headroom.\n");
  return 0;
}
