#include "src/sched/fifo.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

void LaunchInOrder(SchedulerContext& ctx, std::vector<Job*> order) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  for (Job* job : order) {
    TryPlaceWorkers(*ctx.cluster, BaseRequest(*job, job->spec().RequestedWorkers(),
                                              BaselinePreference(ctx)));
  }
}

}  // namespace

void FifoScheduler::Schedule(SchedulerContext& ctx) {
  LaunchInOrder(ctx, ArrivalOrder(ctx.pending));
}

void SjfScheduler::Schedule(SchedulerContext& ctx) {
  std::vector<Job*> order(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->EstimatedRemainingTime(a->spec().max_workers) <
           b->EstimatedRemainingTime(b->spec().max_workers);
  });
  LaunchInOrder(ctx, std::move(order));
}

}  // namespace lyra
