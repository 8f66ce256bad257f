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
#include "src/lyra/pending_index.h"
#include "src/sched/scheduler.h"

namespace lyra {

// Lyra's ablation and variant flags, read by allocation and placement alike.
struct LyraSchedulerOptions {
  // Table 6 ablation: place elastic jobs on training servers first like
  // inelastic ones and drop the base/flexible server grouping.
  bool naive_placement = false;
  // Lyra+TunedJobs (§7.4): adopt a Pollux-style job agent that re-tunes batch
  // size and learning rate whenever the allocation changes.
  bool tuned_jobs = false;
  // Disable phase 2 entirely: allocate base demands only. Used by the
  // capacity-loaning-only studies (§7.3) where elastic scaling is off.
  bool disable_elastic_scaling = false;
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

// One elastic job's flexible-worker target (beyond base) for the epoch.
struct FlexibleTarget {
  Job* job = nullptr;
  int target = 0;
  // Flexible workers the job holds as the decision is made
  // (PlacedFlexibleWorkers); 0 for a launch.
  int current = 0;
  // Launched this epoch: placed only if its launch succeeds.
  bool launch = false;
};

struct AllocationDecision {
  // Jobs to launch at base demand, in the order phase one admitted them.
  std::vector<Job*> launches;
  // A target for every elastic job that is running (in the order of
  // SchedulerContext::running) or being launched this epoch (in launch order).
  std::vector<FlexibleTarget> flexible_targets;
};

// Computes the epoch's allocation against the capacity visible in ctx:
// idle training-side GPUs plus GPUs currently held by flexible workers
// (which are available for resizing, §5.2), into `decision`. `solver` holds
// reusable knapsack buffers, `pending` the phase-one order of the queue and
// `decision` the round's lists: the scheduler keeps one of each, so a round
// allocates no DP tables or lists and does not re-sort or re-read the queue.
void TwoPhaseAllocate(const SchedulerContext& ctx, const LyraSchedulerOptions& options,
                      MckpSolver& solver, PendingIndex& pending, AllocationDecision& decision);

// The same into a fresh decision; a null solver or index uses a temporary.
AllocationDecision TwoPhaseAllocate(const SchedulerContext& ctx,
                                    const LyraSchedulerOptions& options = {},
                                    MckpSolver* solver = nullptr,
                                    PendingIndex* pending = nullptr);

}  // namespace lyra

#endif  // SRC_LYRA_ALLOCATION_H_
