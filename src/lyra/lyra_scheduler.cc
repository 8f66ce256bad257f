#include "src/lyra/lyra_scheduler.h"

#include "src/lyra/allocation.h"
#include "src/obs/obs.h"

namespace lyra {

void LyraScheduler::Schedule(SchedulerContext& ctx) {
  AllocationDecision decision = TwoPhaseAllocate(ctx, options_, &mckp_, &pending_);
  if (options_.disable_elastic_scaling) {
    // Base demands only: every flexible target collapses to zero, so any
    // existing flexible workers are also scaled away.
    for (FlexibleTarget& target : decision.flexible_targets) {
      target.target = 0;
    }
  }
  {
    obs::PhaseSpan placement_span(obs::Phase::kPlacement);
    last_stats_ = ApplyAllocation(ctx, decision, options_);
  }
  obs::AddCounter("sched.launched", static_cast<std::uint64_t>(last_stats_.launched));
  obs::AddCounter("sched.launch_failures",
                  static_cast<std::uint64_t>(last_stats_.launch_failures));
  obs::AddCounter("sched.scale_outs", static_cast<std::uint64_t>(last_stats_.scale_outs));
  obs::AddCounter("sched.scale_ins", static_cast<std::uint64_t>(last_stats_.scale_ins));
}

}  // namespace lyra
