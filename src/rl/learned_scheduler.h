// The `learned` scheduler: a JobScheduler driven by a PolicyNet.
//
// At every scheduling epoch the scheduler builds one observation per pending
// job (global cluster/queue features + per-job features, width kFeatureCount)
// and asks the policy for a priority score and a worker score. Jobs launch in
// priority order; elastic jobs grow beyond their base demand by
// sigmoid(worker score) of their scale-out headroom.
//
// Two modes:
//  - kEval: deterministic. Jobs sort by score (argmax ordering), the worker
//    head's mean is used directly. This is what `--scheduler=learned` runs.
//  - kSample: stochastic rollouts for training. The launch order is sampled
//    Plackett-Luce (softmax without replacement) from the priority scores and
//    the worker action is drawn from N(mean, sigma^2); the per-step score
//    gradients of log pi are recorded into a Trajectory so REINFORCE can
//    credit-assign the episode reward.
#ifndef SRC_RL_LEARNED_SCHEDULER_H_
#define SRC_RL_LEARNED_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/rl/policy.h"
#include "src/sched/scheduler.h"

namespace lyra::rl {

enum class PolicyMode {
  kEval,    // deterministic argmax ordering, mean worker action
  kSample,  // stochastic rollout, records a Trajectory
};

// One scored job at one scheduling event. d_priority / d_worker are
// d log pi / d (head output) under the sampled actions; REINFORCE multiplies
// them by the episode advantage.
struct TrajectoryStep {
  std::vector<double> obs;
  double d_priority = 0.0;
  double d_worker = 0.0;
};

struct Trajectory {
  std::vector<TrajectoryStep> steps;
};

// Score at most this many head-of-queue jobs per epoch; the tail launches
// FIFO behind them. Bounds policy cost on deep queues.
inline constexpr int kMaxScoredJobs = 32;
// Stop recording trajectory steps beyond this many per episode (bounds
// rollout memory; gradient steps past the cap are simply not credited).
inline constexpr int kMaxTrajectorySteps = 50000;

struct LearnedSchedulerOptions {
  PolicyMode mode = PolicyMode::kEval;
  std::uint64_t sample_seed = 1;
  // Exploration stddev of the Gaussian worker action (kSample only).
  double worker_sigma = 0.5;
};

class LearnedScheduler : public JobScheduler {
 public:
  explicit LearnedScheduler(PolicyNet policy, LearnedSchedulerOptions options = {});

  const char* name() const override { return "learned"; }
  void Schedule(SchedulerContext& ctx) override;

  // When set (kSample mode), every scored job appends one step.
  void set_trajectory_sink(Trajectory* sink) { trajectory_ = sink; }
  PolicyNet& policy() { return policy_; }

 private:
  void PlaceOne(SchedulerContext& ctx, Job* job, double worker_action);

  PolicyNet policy_;
  LearnedSchedulerOptions options_;
  Trajectory* trajectory_ = nullptr;
  Rng rng_;
};

// The observation vector for `job` in the current scheduling context: global
// cluster/queue features followed by per-job features, width kFeatureCount.
// Shared by the scheduler (scoring) and tests (feature pinning).
std::vector<double> BuildObservation(const SchedulerContext& ctx, const Job& job);

}  // namespace lyra::rl

#endif  // SRC_RL_LEARNED_SCHEDULER_H_
