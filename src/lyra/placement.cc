#include "src/lyra/placement.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

// All-or-nothing placement of a job's base demand within a single GPU type
// (or mixed for heterogeneous jobs).
bool PlaceBase(const SchedulerContext& ctx, const Job& job, int workers,
               const LyraSchedulerOptions& options) {
  ClusterState& cluster = *ctx.cluster;
  const JobSpec& spec = job.spec();
  const bool loan_eligible =
      ctx.allow_loaned_placement && (spec.fungible || spec.heterogeneous);
  const TierRule rule = !options.naive_placement && spec.elastic()
                            ? TierRule::kBaseAvoidsFlexible
                            : TierRule::kNone;

  const CandidatePools training = CandidatePools().Add(ServerPool::kTraining, rule);
  const CandidatePools loaned = CandidatePools().Add(ServerPool::kOnLoan, rule);

  auto try_set = [&](const CandidatePools& set) {
    return PlaceAllOrNothing(cluster, job.id(), spec.gpus_per_worker, workers, false, set);
  };

  if (spec.heterogeneous && !options.naive_placement) {
    // Heterogeneous base demand goes to training servers; if that fails the
    // job may span both pools (§6), on-loan servers behind training's tiers.
    if (try_set(training)) {
      return true;
    }
    return loan_eligible &&
           try_set(CandidatePools(training).Add(ServerPool::kOnLoan, rule, 2));
  }

  // Non-heterogeneous jobs keep one GPU type per run: pick a pool order and
  // place entirely within one pool.
  const bool prefer_loaned = spec.elastic() && !options.naive_placement && loan_eligible;
  if (prefer_loaned) {
    if (try_set(loaned)) {
      return true;
    }
    return try_set(training);
  }
  if (try_set(training)) {
    return true;
  }
  return loan_eligible && try_set(loaned);
}

// Places up to `workers` flexible workers; partial success allowed.
int PlaceFlexible(const SchedulerContext& ctx, const Job& job, int workers,
                  const LyraSchedulerOptions& options) {
  ClusterState& cluster = *ctx.cluster;
  const JobSpec& spec = job.spec();
  LYRA_CHECK(spec.elastic());  // only elastic jobs hold flexible GPUs
  const bool loan_eligible =
      ctx.allow_loaned_placement && (spec.fungible || spec.heterogeneous);
  const TierRule rule =
      options.naive_placement ? TierRule::kNone : TierRule::kFlexibleAvoidsBase;

  CandidatePools set;
  GpuType pinned;
  const bool is_pinned =
      !spec.heterogeneous && CurrentGpuType(cluster, job.id(), &pinned);

  if (spec.heterogeneous && !options.naive_placement) {
    // Flexible demand of heterogeneous jobs prefers inference servers (§6).
    set.Add(ServerPool::kOnLoan, rule).Add(ServerPool::kTraining, rule, 2);
  } else if (is_pinned && pinned == GpuType::kInferenceT4) {
    set.Add(ServerPool::kOnLoan, rule);
  } else if (is_pinned && pinned == GpuType::kTrainingV100) {
    set.Add(ServerPool::kTraining, rule);
  } else {
    // Unplaced job (should not happen for scale-out) or naive mode: training
    // first, then loaned.
    set.Add(ServerPool::kTraining, rule);
    if (loan_eligible) {
      set.Add(ServerPool::kOnLoan, rule, 2);
    }
  }
  const double placed =
      PlaceBestFit(cluster, job.id(), spec.gpus_per_worker, workers, true, set);
  return static_cast<int>(placed + 0.5);
}

}  // namespace

PlacementStats ApplyAllocation(const SchedulerContext& ctx, const AllocationDecision& decision,
                               const LyraSchedulerOptions& options) {
  ClusterState& cluster = *ctx.cluster;
  PlacementStats stats;

  // Scale-ins first so launches and scale-outs see the freed capacity.
  for (const FlexibleTarget& t : decision.flexible_targets) {
    if (t.current > t.target) {
      ShrinkFlexibleTo(cluster, *t.job, t.target);
      stats.scale_ins += t.current - t.target;
    }
  }

  // Launches in decreasing per-worker GPU demand (BFD across jobs).
  std::vector<Job*> launches = decision.launches;
  std::stable_sort(launches.begin(), launches.end(), [](const Job* a, const Job* b) {
    return a->spec().gpus_per_worker > b->spec().gpus_per_worker;
  });
  for (Job* job : launches) {
    if (PlaceBase(ctx, *job, job->spec().min_workers, options)) {
      ++stats.launched;
    } else {
      ++stats.launch_failures;
    }
  }

  // Flexible scale-outs to the knapsack targets. Only the jobs moved above
  // are read again: a shrunk job may have gone below its target, and a
  // launched one holds no flexible worker if it was placed at all. Every
  // other job holds what the decision read.
  for (const FlexibleTarget& t : decision.flexible_targets) {
    int current = t.current;
    if (t.launch) {
      if (cluster.FindPlacement(t.job->id()) == nullptr) {
        continue;  // launch failed; no flexible workers for this job
      }
    } else if (current > t.target) {
      current = PlacedFlexibleWorkers(cluster, *t.job);
    }
    if (current < t.target) {
      stats.scale_outs += PlaceFlexible(ctx, *t.job, t.target - current, options);
    }
  }
  return stats;
}

}  // namespace lyra
