// REINFORCE-with-baseline trainer for the learned scheduler (DESIGN.md §12).
//
// Rollouts go through the bench harness's parallel experiment runner: each
// update samples a batch of episodes (same trace, different action-sampling
// seeds) that fan out over all cores, then gradients are accumulated
// serially in input order, so training is deterministic regardless of thread
// count — the same seed always produces byte-identical LYRAPOL weights
// (enforced by rl_trainer_test and the CI lyra_train smoke leg).
#ifndef SRC_RL_TRAINER_H_
#define SRC_RL_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/status.h"
#include "src/rl/policy.h"
#include "src/sim/simulator.h"

namespace lyra::rl {

// Episode reward: -(mean JCT / kRewardJctScale) + kRewardUtilizationWeight *
// training_usage. Minimizing JCT is the paper's headline metric; the
// utilization term shapes early training, when most orderings time out into
// similar JCTs.
inline constexpr double kRewardJctScale = 4.0 * 3600.0;  // mean-JCT normalizer (seconds)
inline constexpr double kRewardUtilizationWeight = 0.5;

double ComputeReward(const SimulationResult& result);

struct TrainOptions {
  int episodes = 16;  // total sampled episodes
  int batch = 8;      // episodes per policy update (parallel rollouts)
  // Master seed: action sampling only. Policy initialization comes from the
  // PolicyNet passed to TrainPolicy (its PolicyOptions::seed).
  std::uint64_t seed = 1;
  double worker_sigma = 0.5;
  // Checkpoint to `checkpoint_path` every `checkpoint_every` updates (0 =
  // final weights only). Empty path disables checkpointing entirely.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  // Scenario and run shape, in the harness vocabulary; scheduler/policy
  // fields of `base` are overwritten per rollout.
  ExperimentConfig env;
  RunSpec base;
  bool verbose = false;
};

struct TrainReport {
  int updates = 0;
  int episodes = 0;
  std::vector<double> mean_rewards;  // one entry per update
  std::uint64_t weights_hash = 0;    // final PolicyNet::WeightsHash()
};

// Trains `policy` in place. InvalidArgument on a malformed budget;
// checkpoint write errors propagate.
StatusOr<TrainReport> TrainPolicy(const TrainOptions& options, PolicyNet* policy);

}  // namespace lyra::rl

#endif  // SRC_RL_TRAINER_H_
