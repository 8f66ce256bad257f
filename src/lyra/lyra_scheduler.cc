#include "src/lyra/lyra_scheduler.h"

#include "src/lyra/allocation.h"
#include "src/obs/obs.h"

namespace lyra {

void LyraScheduler::Schedule(SchedulerContext& ctx) {
  AllocationDecision decision;
  {
    AllocationOptions allocation;
    allocation.information_agnostic = options_.information_agnostic;
    allocation.greedy_phase2 = options_.greedy_phase2;
    decision = TwoPhaseAllocate(ctx, allocation, &mckp_, &pending_);
  }
  if (options_.disable_elastic_scaling) {
    // Base demands only: every flexible target collapses to zero, so any
    // existing flexible workers are also scaled away.
    for (FlexibleTarget& target : decision.flexible_targets) {
      target.target = 0;
    }
  }
  {
    obs::PhaseSpan placement_span(obs::Phase::kPlacement);
    PlacementOptions placement;
    placement.naive = options_.naive_placement;
    placement.allow_loaned = ctx.allow_loaned_placement;
    last_stats_ = ApplyAllocation(*ctx.cluster, decision, placement);
  }
  obs::AddCounter("sched.launched", static_cast<std::uint64_t>(last_stats_.launched));
  obs::AddCounter("sched.launch_failures",
                  static_cast<std::uint64_t>(last_stats_.launch_failures));
  obs::AddCounter("sched.scale_outs", static_cast<std::uint64_t>(last_stats_.scale_outs));
  obs::AddCounter("sched.scale_ins", static_cast<std::uint64_t>(last_stats_.scale_ins));
}

}  // namespace lyra
