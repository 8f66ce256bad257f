#include "src/sched/gandiva.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {

void GandivaScheduler::Schedule(SchedulerContext& ctx) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  ClusterState& cluster = *ctx.cluster;
  const PoolPreference pref = ctx.allow_loaned_placement
                                  ? PoolPreference::kTrainingFirst
                                  : PoolPreference::kTrainingOnly;

  std::vector<Job*> order(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });

  // Launch pending jobs at base demand; shrink flexible workers of running
  // jobs opportunistically when a pending job does not fit.
  bool all_placed = true;
  for (Job* job : order) {
    const int workers = job->spec().min_workers;
    PlaceRequest request = BaseRequest(*job, workers, pref);
    if (TryPlaceWorkers(cluster, request)) {
      continue;
    }
    const int gpus_needed = workers * job->spec().gpus_per_worker;
    HarvestFlexibleGpus(cluster, ctx.running, gpus_needed);
    if (!TryPlaceWorkers(cluster, request)) {
      all_placed = false;
    }
  }

  // Under-utilization: available resources and no pending work => grow
  // elastic jobs round-robin, one worker at a time.
  if (!all_placed) {
    return;
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (Job* job : ctx.running) {
      if (!job->spec().elastic()) {
        continue;
      }
      const int current = PlacedWorkers(cluster, *job);
      if (current == 0 || current >= job->spec().max_workers) {
        continue;
      }
      if (TryPlaceWorkers(cluster, FlexibleRequest(*job, 1, pref))) {
        grew = true;
      }
    }
  }
}

}  // namespace lyra
