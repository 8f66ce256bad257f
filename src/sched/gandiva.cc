#include "src/sched/gandiva.h"

#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {

void GandivaScheduler::Schedule(SchedulerContext& ctx) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  ClusterState& cluster = *ctx.cluster;
  const PoolPreference pref = BaselinePreference(ctx);

  // Launch pending jobs at base demand; shrink flexible workers of running
  // jobs opportunistically when a pending job does not fit.
  bool all_placed = true;
  for (Job* job : ArrivalOrder(ctx.pending)) {
    if (!PlaceOrHarvest(ctx, BaseRequest(*job, job->spec().min_workers, pref))) {
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
