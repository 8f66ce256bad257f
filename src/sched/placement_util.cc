#include "src/sched/placement_util.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"

namespace lyra {
namespace {

// Nominal-worker capacity of the candidates, in PlaceBestFit's credit.
double CandidateCapacity(const ClusterState& cluster,
                         const std::vector<PlacementCandidate>& candidates,
                         int gpus_per_worker) {
  double total = 0.0;
  for (const PlacementCandidate& c : candidates) {
    const Server& server = cluster.server(c.id);
    total += (server.free_gpus() / gpus_per_worker) * GpuComputeFactor(server.gpu_type());
  }
  return total;
}

// Candidate groups the request may use, in preference order. A non-
// heterogeneous job gets one group per GPU type, only the type it already
// holds if it holds any; a heterogeneous job gets one group of both pools in
// preference order. Every candidate is tier 0, so best fit keys on free GPUs
// and position alone, across a merged group too.
std::vector<std::vector<PlacementCandidate>> EligibleGroups(const ClusterState& cluster,
                                                            const PlaceRequest& request) {
  std::vector<PlacementCandidate> training;
  std::vector<PlacementCandidate> loaned;
  if (request.preference != PoolPreference::kLoanedOnly) {
    training = PoolCandidates(cluster, ServerPool::kTraining, /*for_flexible=*/false,
                              /*grouped=*/false);
  }
  if ((request.fungible || request.heterogeneous) &&
      request.preference != PoolPreference::kTrainingOnly) {
    loaned = PoolCandidates(cluster, ServerPool::kOnLoan, /*for_flexible=*/false,
                            /*grouped=*/false);
  }

  std::vector<std::vector<PlacementCandidate>> groups;
  if (request.heterogeneous) {
    training.insert(training.end(), loaned.begin(), loaned.end());
    groups.push_back(std::move(training));
    return groups;
  }
  GpuType current;
  const bool pinned = CurrentGpuType(cluster, request.job, &current);
  if (!pinned || current == GpuType::kTrainingV100) {
    groups.push_back(std::move(training));
  }
  if (!pinned || current == GpuType::kInferenceT4) {
    groups.push_back(std::move(loaned));
  }
  return groups;
}

}  // namespace

std::vector<PlacementCandidate> PoolCandidates(const ClusterState& cluster, ServerPool pool,
                                               bool for_flexible, bool grouped) {
  std::vector<PlacementCandidate> out;
  for (ServerId id : cluster.ServersWithFreeGpus(pool)) {
    int tier = 0;
    if (grouped) {
      const Server& server = cluster.server(id);
      tier = (for_flexible ? server.HasBaseGpus() : server.HasFlexibleGpus()) ? 1 : 0;
    }
    out.push_back({id, tier});
  }
  return out;
}

// The candidates live in a min-heap on (tier, free GPUs, position) instead of
// being rescanned per worker: only the chosen server's free count changes
// between picks, so one pop + one push per placed worker keeps the heap
// exact, and a server too small for one more worker leaves it for good.
// Within a tier every candidate comes from one pool, whose servers all have
// the same GPU count, so an empty server has the most free GPUs and opens
// only when no partly used one fits.
double PlaceBestFit(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                    bool flexible, const std::vector<PlacementCandidate>& candidates) {
  // (tier, free GPUs, position in `candidates`).
  using Entry = std::tuple<int, int, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const int free = cluster.server(candidates[i].id).free_gpus();
    if (free >= gpus_per_worker) {
      heap.emplace(candidates[i].tier, free, i);
    }
  }

  double placed = 0.0;
  while (placed + kCreditEpsilon < static_cast<double>(workers) && !heap.empty()) {
    auto [tier, free, index] = heap.top();
    heap.pop();
    const ServerId id = candidates[index].id;
    cluster.Place(job, id, gpus_per_worker, flexible);
    placed += GpuComputeFactor(cluster.server(id).gpu_type());
    free -= gpus_per_worker;
    if (free >= gpus_per_worker) {
      heap.emplace(tier, free, index);
    }
  }
  return placed;
}

// The capacity check counts exactly the worker slots the heap fills, so once
// it passes the placement cannot stop short and needs no rollback.
bool PlaceAllOrNothing(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                       bool flexible, const std::vector<PlacementCandidate>& candidates) {
  if (CandidateCapacity(cluster, candidates, gpus_per_worker) + kCreditEpsilon <
      static_cast<double>(workers)) {
    return false;
  }
  const double placed =
      PlaceBestFit(cluster, job, gpus_per_worker, workers, flexible, candidates);
  LYRA_CHECK_GE(placed + kCreditEpsilon, static_cast<double>(workers));
  return true;
}

bool TryPlaceWorkers(ClusterState& cluster, const PlaceRequest& request) {
  LYRA_CHECK_GT(request.workers, 0);
  obs::AddCounter("placement.attempts");
  for (const auto& group : EligibleGroups(cluster, request)) {
    if (PlaceAllOrNothing(cluster, request.job, request.gpus_per_worker, request.workers,
                          request.flexible, group)) {
      obs::AddCounter("placement.workers_placed",
                      static_cast<std::uint64_t>(request.workers));
      return true;
    }
  }
  obs::AddCounter("placement.failures");
  return false;
}

bool CurrentGpuType(const ClusterState& cluster, JobId job, GpuType* type) {
  const JobPlacement* placement = cluster.FindPlacement(job);
  if (placement == nullptr || placement->shares.empty()) {
    return false;
  }
  bool first = true;
  GpuType seen = GpuType::kTrainingV100;
  for (const auto& [server_id, share] : placement->shares) {
    const GpuType t = cluster.server(server_id).gpu_type();
    if (first) {
      seen = t;
      first = false;
    } else if (t != seen) {
      return false;  // mixed
    }
  }
  *type = seen;
  return true;
}

PlacementProfile ProfileFor(const ClusterState& cluster, const Job& job) {
  PlacementProfile profile;
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return profile;
  }
  int total_gpus = 0;
  double factor_sum = 0.0;
  bool has_training = false;
  bool has_inference = false;
  for (const auto& [server_id, share] : placement->shares) {
    const Server& srv = cluster.server(server_id);
    total_gpus += share.total();
    factor_sum += share.total() * GpuComputeFactor(srv.gpu_type());
    if (srv.gpu_type() == GpuType::kTrainingV100) {
      has_training = true;
      profile.training_gpus += share.total();
    } else {
      has_inference = true;
      profile.inference_gpus += share.total();
    }
  }
  profile.workers = total_gpus / job.spec().gpus_per_worker;
  profile.mean_gpu_factor = total_gpus > 0 ? factor_sum / total_gpus : 1.0;
  profile.spans_heterogeneous = has_training && has_inference;
  return profile;
}

PlaceRequest BaseRequest(const Job& job, int workers, PoolPreference preference) {
  PlaceRequest request;
  request.job = job.id();
  request.gpus_per_worker = job.spec().gpus_per_worker;
  request.workers = workers;
  request.flexible = false;
  request.fungible = job.spec().fungible;
  request.heterogeneous = job.spec().heterogeneous;
  request.preference = preference;
  return request;
}

PlaceRequest FlexibleRequest(const Job& job, int workers, PoolPreference preference) {
  PlaceRequest request = BaseRequest(job, workers, preference);
  request.flexible = true;
  return request;
}

std::vector<Job*> ArrivalOrder(std::span<Job* const> pending) {
  std::vector<Job*> order(pending.begin(), pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });
  return order;
}

PoolPreference BaselinePreference(const SchedulerContext& ctx) {
  return ctx.allow_loaned_placement ? PoolPreference::kTrainingFirst
                                    : PoolPreference::kTrainingOnly;
}

bool PlaceOrHarvest(SchedulerContext& ctx, const PlaceRequest& request) {
  if (TryPlaceWorkers(*ctx.cluster, request)) {
    return true;
  }
  HarvestFlexibleGpus(*ctx.cluster, ctx.running, request.workers * request.gpus_per_worker);
  return TryPlaceWorkers(*ctx.cluster, request);
}

}  // namespace lyra
