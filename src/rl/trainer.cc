#include "src/rl/trainer.h"

#include <cstdio>
#include <memory>
#include <utility>

namespace lyra::rl {

double ComputeReward(const SimulationResult& result, const RewardOptions& options) {
  return -(result.jct.mean / options.jct_scale) +
         options.utilization_weight * result.training_usage;
}

StatusOr<TrainReport> TrainPolicy(const TrainOptions& options, PolicyNet* policy) {
  if (options.episodes < 1 || options.batch < 1) {
    return Status::InvalidArgument("episodes and batch must be >= 1");
  }
  if (options.worker_sigma <= 0.0) {
    return Status::InvalidArgument("worker_sigma must be positive");
  }

  TrainReport report;
  int done = 0;
  while (done < options.episodes) {
    const int batch = std::min(options.batch, options.episodes - done);

    // Freeze the current weights for this batch's rollouts; the frozen copy
    // is shared read-only across the pool threads while `policy` stays
    // exclusively ours for the update below.
    auto frozen = std::make_shared<const PolicyNet>(*policy);
    std::vector<Trajectory> trajectories(static_cast<std::size_t>(batch));
    std::vector<ExperimentRun> runs;
    runs.reserve(static_cast<std::size_t>(batch));
    for (int e = 0; e < batch; ++e) {
      ExperimentRun run;
      run.label = "rl/update=" + std::to_string(report.updates) +
                  "/episode=" + std::to_string(done + e);
      run.config = options.env;
      run.spec = options.base;
      run.spec.scheduler = "learned";
      run.spec.policy = frozen;
      run.spec.policy_mode = PolicyMode::kSample;
      run.spec.policy_sample_seed =
          options.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(done + e) + 1;
      run.spec.policy_worker_sigma = options.worker_sigma;
      run.spec.trajectory = &trajectories[static_cast<std::size_t>(e)];
      runs.push_back(std::move(run));
    }
    const std::vector<SimulationResult> results = RunExperiments(runs);

    std::vector<double> rewards(static_cast<std::size_t>(batch), 0.0);
    double mean_reward = 0.0;
    for (int e = 0; e < batch; ++e) {
      rewards[static_cast<std::size_t>(e)] =
          ComputeReward(results[static_cast<std::size_t>(e)], options.reward);
      mean_reward += rewards[static_cast<std::size_t>(e)];
    }
    mean_reward /= batch;
    // Batch-mean baseline; a single-episode batch gets no variance reduction.
    const double baseline = batch > 1 ? mean_reward : 0.0;

    // Serial, input-order accumulation: determinism does not depend on which
    // pool thread ran which rollout.
    policy->ZeroGradients();
    for (int e = 0; e < batch; ++e) {
      const Trajectory& trajectory = trajectories[static_cast<std::size_t>(e)];
      if (trajectory.steps.empty()) {
        continue;
      }
      const double advantage = rewards[static_cast<std::size_t>(e)] - baseline;
      if (advantage == 0.0) {
        continue;
      }
      // loss = -advantage * log pi(episode); normalize per episode so long
      // episodes don't dominate the batch gradient.
      const double scale =
          -advantage / (static_cast<double>(batch) *
                        static_cast<double>(trajectory.steps.size()));
      for (const TrajectoryStep& step : trajectory.steps) {
        if (step.d_priority != 0.0) {
          policy->AccumulatePriorityGradient(step.obs, scale * step.d_priority);
        }
        if (step.d_worker != 0.0) {
          policy->AccumulateWorkerGradient(step.obs, scale * step.d_worker);
        }
      }
    }
    policy->ApplyAdam();

    done += batch;
    ++report.updates;
    report.episodes = done;
    report.mean_rewards.push_back(mean_reward);
    if (options.verbose) {
      std::printf("update %d: %d/%d episodes, mean reward %.4f\n", report.updates,
                  done, options.episodes, mean_reward);
    }

    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        report.updates % options.checkpoint_every == 0) {
      const Status status = policy->Save(options.checkpoint_path);
      if (!status.ok()) {
        return status;
      }
    }
  }

  if (!options.checkpoint_path.empty()) {
    const Status status = policy->Save(options.checkpoint_path);
    if (!status.ok()) {
      return status;
    }
  }
  report.weights_hash = policy->WeightsHash();
  return report;
}

}  // namespace lyra::rl
