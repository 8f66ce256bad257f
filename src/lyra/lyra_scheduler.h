// The Lyra job scheduler: two-phase allocation + BFD placement (§5).
#ifndef SRC_LYRA_LYRA_SCHEDULER_H_
#define SRC_LYRA_LYRA_SCHEDULER_H_

#include "src/lyra/mckp.h"
#include "src/lyra/pending_index.h"
#include "src/lyra/placement.h"
#include "src/sched/scheduler.h"

namespace lyra {

struct LyraSchedulerOptions {
  // Table 6 ablation: no special placement treatment for elastic jobs.
  bool naive_placement = false;
  // Lyra+TunedJobs (§7.4): adopt a Pollux-style job agent that re-tunes batch
  // size and learning rate whenever the allocation changes.
  bool tuned_jobs = false;
  // Disable phase 2 entirely: allocate base demands only. Used by the
  // capacity-loaning-only studies (§7.3) where elastic scaling is off.
  bool disable_elastic_scaling = false;
  // §10 future work: run without job running-time estimates (least-attained-
  // service ordering, compute-valued knapsack).
  bool information_agnostic = false;
  // Ablation: greedy marginal allocation instead of the knapsack in phase 2.
  bool greedy_phase2 = false;
};

class LyraScheduler : public JobScheduler {
 public:
  explicit LyraScheduler(LyraSchedulerOptions options = {}) : options_(options) {}

  const char* name() const override {
    if (options_.naive_placement) {
      return "Lyra (naive placement)";
    }
    if (options_.disable_elastic_scaling) {
      return "Lyra (no scaling)";
    }
    return options_.tuned_jobs ? "Lyra+TunedJobs" : "Lyra";
  }
  bool tunes_hyperparameters() const override { return options_.tuned_jobs; }
  void Schedule(SchedulerContext& ctx) override;

  const PlacementStats& last_stats() const { return last_stats_; }

 private:
  LyraSchedulerOptions options_;
  PlacementStats last_stats_;
  // Phase-two knapsack buffers, reused across rounds.
  MckpSolver mckp_;
  // Phase-one order of the pending queue, carried across rounds.
  PendingIndex pending_;
};

}  // namespace lyra

#endif  // SRC_LYRA_LYRA_SCHEDULER_H_
