// Fig 1: inference-cluster GPU utilization over one week (5-minute samples).
// Prints hourly averages plus the calibration statistics the paper reports:
// trough ~42%, peak ~95%, average ~65%, peak-to-trough ~2.2.
#include <cstdio>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/sim/inference_cluster.h"

int main() {
  std::printf("=== Fig 1: inference cluster GPU utilization (one week) ===\n\n");
  lyra::DiurnalTrafficOptions options;
  options.duration = 7 * lyra::kDay;
  options.seed = 3;
  const lyra::DiurnalTrafficModel model(options);

  // Hourly means with a coarse bar rendering.
  std::printf("day hour  util  |bar|\n");
  const int samples_per_hour = static_cast<int>(lyra::kHour / lyra::kTrafficSampleInterval);
  for (int hour = 0; hour < 7 * 24; hour += 2) {
    double sum = 0.0;
    for (int s = 0; s < samples_per_hour; ++s) {
      sum += model.ServingFractionAt(hour * lyra::kHour + s * lyra::kTrafficSampleInterval);
    }
    const double mean = sum / samples_per_hour;
    std::printf("%3d %02d:00 %5.1f%%  |", hour / 24, hour % 24, mean * 100.0);
    for (int b = 0; b < static_cast<int>(mean * 50); ++b) {
      std::printf("#");
    }
    std::printf("|\n");
  }

  const std::vector<double>& samples = model.samples();
  const double mean = lyra::Mean(samples);
  const double trough = lyra::Percentile(samples, 2.0);
  const double peak = lyra::Percentile(samples, 98.0);
  std::printf("\naverage %.1f%%, trough(p2) %.1f%%, peak(p98) %.1f%%, "
              "peak-to-trough %.2f\n",
              mean * 100, trough * 100, peak * 100, peak / trough);
  std::printf(
      "Paper reference (Fig 1): 42%% bottom hours, 95%% peak, ~65%% average, ~2.2 "
      "peak-to-trough; peak lasts about four hours at night.\n");
  return 0;
}
