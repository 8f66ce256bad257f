#include "src/sched/opportunistic.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/sched/placement_util.h"

namespace lyra {

void OpportunisticScheduler::Schedule(SchedulerContext& ctx) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  std::vector<Job*> order(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });
  for (Job* job : order) {
    const bool waiting_for_loan =
        job->spec().fungible && ctx.now - job->spec().submit_time < patience_;
    PlaceRequest request = BaseRequest(
        *job, job->spec().RequestedWorkers(),
        waiting_for_loan ? PoolPreference::kLoanedOnly : PoolPreference::kTrainingFirst);
    TryPlaceWorkers(*ctx.cluster, request);
  }
}

}  // namespace lyra
