#include "src/sched/fifo.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

void LaunchInOrder(SchedulerContext& ctx, std::vector<Job*> order) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  for (Job* job : order) {
    const int workers = job->spec().RequestedWorkers();
    PlaceRequest request = BaseRequest(*job, workers, PoolPreference::kTrainingFirst);
    if (!ctx.allow_loaned_placement) {
      request.preference = PoolPreference::kTrainingOnly;
    }
    TryPlaceWorkers(*ctx.cluster, request);
  }
}

}  // namespace

void FifoScheduler::Schedule(SchedulerContext& ctx) {
  std::vector<Job*> order(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });
  LaunchInOrder(ctx, std::move(order));
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
