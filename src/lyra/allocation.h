// Two-phase resource allocation (§5.2).
//
// Phase one treats the inelastic workload — inelastic jobs plus the base
// demand of elastic jobs — as the first-class citizen and schedules it with
// shortest-job-first, launching as many jobs as possible. Phase two hands the
// remaining GPUs to elastic jobs' flexible demand by solving a
// multiple-choice knapsack: one group per elastic job, item k = "grow by k
// workers" with weight k * gpus_per_worker and value equal to the estimated
// JCT reduction.
#ifndef SRC_LYRA_ALLOCATION_H_
#define SRC_LYRA_ALLOCATION_H_

#include <vector>

#include "src/lyra/mckp.h"
#include "src/sched/scheduler.h"

namespace lyra {

struct AllocationOptions {
  // §10 future work: schedule without knowing running times a priori. Phase
  // one orders jobs by least attained service (Tiresias-style) instead of
  // SJF, and phase two values a flexible worker by the compute it adds
  // rather than by estimated JCT reduction.
  bool information_agnostic = false;
  // Ablation: replace the multiple-choice knapsack of phase two with the
  // greedy local heuristic prior systems use — repeatedly give one worker to
  // the job with the best marginal value per GPU (§2.3 argues the knapsack's
  // global decisions beat this).
  bool greedy_phase2 = false;
};

struct AllocationDecision {
  // Jobs to launch at base demand, in the order phase one admitted them.
  std::vector<Job*> launches;
  // Flexible-worker target (beyond base) for every elastic job that is
  // running or being launched this epoch.
  std::vector<std::pair<Job*, int>> flexible_targets;
};

// Computes the epoch's allocation against the capacity visible in ctx:
// idle training-side GPUs plus GPUs currently held by flexible workers
// (which are available for resizing, §5.2). `solver` holds reusable
// knapsack buffers (the scheduler keeps one so a round allocates no DP
// tables); null uses a temporary one.
AllocationDecision TwoPhaseAllocate(const SchedulerContext& ctx,
                                    const AllocationOptions& options = {},
                                    MckpSolver* solver = nullptr);

}  // namespace lyra

#endif  // SRC_LYRA_ALLOCATION_H_
