// The Lyra job scheduler: two-phase allocation + BFD placement (§5).
#ifndef SRC_LYRA_LYRA_SCHEDULER_H_
#define SRC_LYRA_LYRA_SCHEDULER_H_

#include "src/lyra/allocation.h"
#include "src/lyra/mckp.h"
#include "src/lyra/pending_index.h"
#include "src/lyra/placement.h"
#include "src/sched/scheduler.h"

namespace lyra {

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
  // The round's decision lists, reused across rounds.
  AllocationDecision decision_;
};

}  // namespace lyra

#endif  // SRC_LYRA_LYRA_SCHEDULER_H_
