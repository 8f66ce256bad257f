#include "src/sched/afs.h"

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
  const PoolPreference pref = BaselinePreference(ctx);

  // Base demand first, in arrival order, shrinking flexible workers to make
  // room (AFS continuously re-balances the elastic share).
  const std::vector<Job*> order = ArrivalOrder(ctx.pending);
  for (Job* job : order) {
    PlaceOrHarvest(ctx, BaseRequest(*job, job->spec().min_workers, pref));
  }

  // Greedy marginal allocation: repeatedly add one worker to the elastic job
  // with the largest throughput gain per GPU until nothing fits. A grant
  // changes only its own job's placement, so only that job's gain is read
  // again.
  struct Grantee {
    Job* job;
    double gain;  // of one more worker; 0 at max_workers, so never granted
  };
  auto gain_at = [](const Job& job, int workers) {
    return workers >= job.spec().max_workers ? 0.0 : MarginalGainPerGpu(job, workers);
  };
  std::vector<Grantee> elastic;
  auto consider = [&](Job* job) {
    if (!job->spec().elastic()) {
      return;
    }
    const int workers = PlacedWorkers(cluster, *job);
    if (workers > 0) {
      elastic.push_back({job, gain_at(*job, workers)});
    }
  };
  for (Job* job : ctx.running) {
    consider(job);
  }
  for (Job* job : order) {
    consider(job);  // newly launched this epoch
  }

  while (true) {
    Grantee* best = nullptr;
    double best_gain = 0.0;
    for (Grantee& grantee : elastic) {
      if (grantee.gain > best_gain) {
        best_gain = grantee.gain;
        best = &grantee;
      }
    }
    if (best == nullptr) {
      break;
    }
    if (!TryPlaceWorkers(cluster, FlexibleRequest(*best->job, 1, pref))) {
      break;
    }
    best->gain = gain_at(*best->job, PlacedWorkers(cluster, *best->job));
  }
}

}  // namespace lyra
