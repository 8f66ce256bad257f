#include "src/sched/afs.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"
#include "src/workload/throughput.h"

namespace lyra {
namespace {

// Normalized marginal throughput per GPU of giving the job its (w+1)-th
// worker, from its model-family scaling curve.
double MarginalGainPerGpu(const Job& job, int current_workers) {
  const ModelScalingCurve curve = CurveFor(job.spec().model);
  const double gain = curve.ThroughputAt(current_workers + 1) -
                      curve.ThroughputAt(current_workers);
  const double unit = curve.ThroughputAt(1);
  return gain / unit / job.spec().gpus_per_worker;
}

}  // namespace

void AfsScheduler::Schedule(SchedulerContext& ctx) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  ClusterState& cluster = *ctx.cluster;
  const PoolPreference pref = ctx.allow_loaned_placement
                                  ? PoolPreference::kTrainingFirst
                                  : PoolPreference::kTrainingOnly;

  // Base demand first, in arrival order, shrinking flexible workers to make
  // room (AFS continuously re-balances the elastic share).
  std::vector<Job*> order(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });
  for (Job* job : order) {
    PlaceRequest request = BaseRequest(*job, job->spec().min_workers, pref);
    if (TryPlaceWorkers(cluster, request)) {
      continue;
    }
    HarvestFlexibleGpus(cluster, ctx.running,
                        job->spec().min_workers * job->spec().gpus_per_worker);
    TryPlaceWorkers(cluster, request);
  }

  // Greedy marginal allocation: repeatedly add one worker to the elastic job
  // with the largest throughput gain per GPU until nothing fits.
  std::vector<Job*> elastic;
  auto consider = [&](Job* job) {
    if (job->spec().elastic() && PlacedWorkers(cluster, *job) > 0) {
      elastic.push_back(job);
    }
  };
  for (Job* job : ctx.running) {
    consider(job);
  }
  for (Job* job : order) {
    consider(job);  // newly launched this epoch
  }

  while (true) {
    Job* best = nullptr;
    double best_gain = 0.0;
    for (Job* job : elastic) {
      const int workers = PlacedWorkers(cluster, *job);
      if (workers >= job->spec().max_workers) {
        continue;
      }
      const double gain = MarginalGainPerGpu(*job, workers);
      if (gain > best_gain) {
        best_gain = gain;
        best = job;
      }
    }
    if (best == nullptr) {
      break;
    }
    if (!TryPlaceWorkers(cluster, FlexibleRequest(*best, 1, pref))) {
      break;
    }
  }
}

}  // namespace lyra
