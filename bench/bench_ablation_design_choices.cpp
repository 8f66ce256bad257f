// Ablations of Lyra's design choices (beyond the paper's own Table 6):
//
//  1. Phase-2 allocation: multiple-choice knapsack vs the greedy marginal
//     heuristic prior systems use (§2.3 claims the knapsack's global
//     decisions win).
//  2. Phase-1 ordering: SJF with running-time estimates vs the §10 future-
//     work information-agnostic variant (least attained service + compute-
//     valued phase 2).
//  3. Reclaim-ahead prediction: seasonal-naive predictor vs purely reactive
//     loaning (no predictor).
#include <cstdio>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/predict/predictor.h"
#include "src/sched/fifo.h"
#include "src/sim/simulator.h"

namespace {

lyra::SimulationResult RunVariant(const lyra::ExperimentConfig& config,
                                  const lyra::LyraSchedulerOptions& scheduler_options,
                                  bool use_predictor, bool use_profiler = false,
                                  const lyra::ThroughputOptions& throughput = {}) {
  const lyra::Trace trace = MakeTrace(config);
  std::unique_ptr<lyra::UsagePredictor> predictor;
  if (use_predictor) {
    predictor = std::make_unique<lyra::SeasonalNaivePredictor>();
  }

  lyra::SimulatorOptions options;
  options.training_servers = config.cluster().training_servers;
  options.enable_loaning = true;
  options.use_profiler = use_profiler;
  options.throughput = throughput;
  lyra::LyraScheduler scheduler(scheduler_options);
  lyra::LyraReclaimPolicy reclaim;
  lyra::Simulator sim(options, trace, &scheduler, &reclaim,
                      lyra::MakeInferenceCluster(config.cluster().inference_servers, trace.duration,
                                                 config.seed, std::move(predictor)));
  return sim.Run();
}

}  // namespace

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 6.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Ablations: knapsack, running-time knowledge, predictor", config);

  lyra::TextTable table(
      {"variant", "queue mean", "queue p95", "JCT mean", "JCT p95", "preempt"});
  auto add = [&](const char* name, const lyra::SimulationResult& r) {
    table.AddRow({name, lyra::Secs(r.queuing.mean), lyra::Secs(r.queuing.p95),
                  lyra::Secs(r.jct.mean), lyra::Secs(r.jct.p95),
                  lyra::FormatPercent(r.preemption_ratio, 2)});
  };

  lyra::LyraSchedulerOptions full;
  add("Lyra (full)", RunVariant(config, full, true));

  lyra::LyraSchedulerOptions greedy;
  greedy.greedy_phase2 = true;
  add("greedy phase 2 (no knapsack)", RunVariant(config, greedy, true));

  lyra::LyraSchedulerOptions agnostic;
  agnostic.information_agnostic = true;
  add("information-agnostic (LAS, SS10)", RunVariant(config, agnostic, true));

  add("no usage predictor (reactive)", RunVariant(config, full, false));

  const lyra::SimulationResult profiled = RunVariant(config, full, true, true);
  add("learning profiler estimates (SS3)", profiled);

  // Heterogeneous-training model: the flat 70% cap vs the computed
  // semi-dynamic load-balancing efficiency (src/hetero), on the Advanced mix.
  lyra::ExperimentConfig advanced = config;
  advanced.heterogeneous_fraction = 0.10;
  lyra::ThroughputOptions flat_hetero;
  add("hetero: flat 70% cap (Advanced)",
      RunVariant(advanced, full, true, false, flat_hetero));
  lyra::ThroughputOptions computed_hetero;
  computed_hetero.computed_heterogeneous = true;
  add("hetero: computed balancing (Advanced)",
      RunVariant(advanced, full, true, false, computed_hetero));

  table.Print();
  std::printf("\nprofiler mean relative estimation error: %.0f%%\n",
              profiled.profiler_error * 100.0);
  std::printf(
      "\nExpected shape: the knapsack's global allocation beats the greedy local\n"
      "heuristic on JCT; the information-agnostic variant trades some JCT for\n"
      "independence from running-time estimates (the paper's §10 future work); the\n"
      "predictor mainly protects against preemptions when traffic ramps.\n");
  return 0;
}
