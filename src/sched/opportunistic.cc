#include "src/sched/opportunistic.h"

#include "src/obs/obs.h"
#include "src/sched/placement_util.h"

namespace lyra {

void OpportunisticScheduler::Schedule(SchedulerContext& ctx) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  for (Job* job : ArrivalOrder(ctx.pending)) {
    const bool waiting_for_loan =
        job->spec().fungible && ctx.now - job->spec().submit_time < patience_;
    PlaceRequest request = BaseRequest(
        *job, job->spec().RequestedWorkers(),
        waiting_for_loan ? PoolPreference::kLoanedOnly : PoolPreference::kTrainingFirst);
    TryPlaceWorkers(*ctx.cluster, request);
  }
}

}  // namespace lyra
