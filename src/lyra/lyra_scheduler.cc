#include "src/lyra/lyra_scheduler.h"

#include "src/lyra/allocation.h"
#include "src/obs/obs.h"

namespace lyra {

void LyraScheduler::Schedule(SchedulerContext& ctx) {
  TwoPhaseAllocate(ctx, options_, mckp_, pending_, decision_);
  if (options_.disable_elastic_scaling) {
    // Base demands only: every flexible target collapses to zero, so any
    // existing flexible workers are also scaled away.
    for (FlexibleTarget& target : decision_.flexible_targets) {
      target.target = 0;
    }
  }
  {
    obs::PhaseSpan placement_span(obs::Phase::kPlacement);
    last_stats_ = ApplyAllocation(ctx, decision_, options_);
  }
  obs::AddCounter(obs::HotCounter::kSchedLaunched,
                  static_cast<std::uint64_t>(last_stats_.launched));
  obs::AddCounter(obs::HotCounter::kSchedLaunchFailures,
                  static_cast<std::uint64_t>(last_stats_.launch_failures));
  obs::AddCounter(obs::HotCounter::kSchedScaleOuts,
                  static_cast<std::uint64_t>(last_stats_.scale_outs));
  obs::AddCounter(obs::HotCounter::kSchedScaleIns,
                  static_cast<std::uint64_t>(last_stats_.scale_ins));
}

}  // namespace lyra
