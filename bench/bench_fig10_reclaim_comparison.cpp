// Fig 10: preemption ratio and collateral damage of the reclaiming schemes
// (Random, SCF, Lyra), with elastic scaling disabled and enabled, plus the
// §7.3 comparison against the exhaustive optimal solution on snapshot
// instances.
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/lyra/reclaim.h"

namespace {

// Builds a random on-loan occupancy snapshot for the optimal-vs-heuristic
// comparison (simulation-independent, like the paper's offline study).
lyra::ClusterState Snapshot(std::uint64_t seed, int servers, int jobs) {
  lyra::Rng rng(seed);
  lyra::ClusterState cluster;
  std::vector<lyra::ServerId> ids;
  for (int s = 0; s < servers; ++s) {
    ids.push_back(cluster.AddServer(lyra::GpuType::kInferenceT4, 8,
                                    lyra::ServerPool::kOnLoan));
  }
  for (int j = 0; j < jobs; ++j) {
    const int spans = static_cast<int>(rng.UniformInt(1, 3));
    const int start = static_cast<int>(rng.UniformInt(0, servers - 1));
    for (int k = 0; k < spans; ++k) {
      const auto& server = cluster.server(ids[static_cast<std::size_t>((start + k) % servers)]);
      if (server.free_gpus() >= 2) {
        cluster.Place(lyra::JobId(j), server.id(), 2, false);
      }
    }
  }
  return cluster;
}

}  // namespace

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 6.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Fig 10: reclaiming-scheme comparison", config);

  // The 2x3 scheme grid is embarrassingly parallel: declare all six runs and
  // fan them out over the harness thread pool.
  struct Reclaim {
    const char* label;
    const char* name;
  };
  const Reclaim reclaims[] = {{"Random", "random"}, {"SCF", "scf"}, {"Lyra", "lyra"}};
  std::vector<lyra::ExperimentRun> runs;
  for (bool scaling : {false, true}) {
    for (const Reclaim& reclaim : reclaims) {
      lyra::RunSpec spec;
      spec.scheduler = scaling ? "lyra" : "lyra-no-elastic";
      spec.reclaim = reclaim.name;
      spec.loaning = true;
      runs.push_back({std::string(scaling ? "scaling/" : "no-scaling/") + reclaim.label,
                      config, spec});
    }
  }
  const std::vector<lyra::SimulationResult> results = lyra::RunExperiments(runs);

  lyra::TextTable table({"elastic scaling", "reclaim", "preempt ratio", "collateral",
                         "queue mean", "JCT mean"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const lyra::SimulationResult& r = results[i];
    table.AddRow({i < 3 ? "disabled" : "enabled", reclaims[i % 3].label,
                  lyra::FormatPercent(r.preemption_ratio, 2),
                  lyra::FormatPercent(r.collateral_damage, 1),
                  lyra::Secs(r.queuing.mean), lyra::Secs(r.jct.mean)});
  }
  table.Print();

  // --- Heuristic vs exhaustive optimal on snapshot instances (§7.3) ---------
  std::printf("\n--- Lyra heuristic vs exhaustive optimal (snapshot instances) ---\n");
  int lyra_preempts = 0;
  int optimal_preempts = 0;
  int matches = 0;
  double lyra_time = 0.0;
  double optimal_time = 0.0;
  const int instances = 30;
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
    lyra::ClusterState for_lyra = Snapshot(seed, 24, 36);
    lyra::ClusterState for_optimal = Snapshot(seed, 24, 36);
    lyra::LyraReclaimPolicy heuristic;
    lyra::OptimalReclaimPolicy optimal;

    auto t0 = std::chrono::steady_clock::now();
    const auto a = heuristic.Reclaim(for_lyra, 8);
    lyra_time += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    t0 = std::chrono::steady_clock::now();
    const auto b = optimal.Reclaim(for_optimal, 8);
    optimal_time +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    lyra_preempts += static_cast<int>(a.preempted.size());
    optimal_preempts += static_cast<int>(b.preempted.size());
    matches += a.preempted.size() == b.preempted.size() ? 1 : 0;
  }
  std::printf(
      "%d instances, reclaiming 8 of 24 servers: heuristic %d preemptions vs optimal "
      "%d; identical count on %d/%d instances.\n",
      instances, lyra_preempts, optimal_preempts, matches, instances);
  std::printf("running time: heuristic %.3f ms/instance, optimal %.3f ms/instance "
              "(%.0fx slower).\n",
              lyra_time / instances * 1e3, optimal_time / instances * 1e3,
              optimal_time / lyra_time);
  std::printf(
      "\nPaper reference (Fig 10 / §7.3): Lyra cuts preemptions 1.51x/1.68x and\n"
      "collateral 1.36x/1.59x vs SCF/Random; it matches the optimal below 60 servers\n"
      "while the optimal's running time is ~420,000x larger.\n");
  lyra::WritePerfReport("fig10_reclaim_comparison");
  return 0;
}
