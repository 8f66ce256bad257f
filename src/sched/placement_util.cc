#include "src/sched/placement_util.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace lyra {
namespace {

constexpr double kCreditEpsilon = 1e-9;

bool LoanEligible(const PlaceRequest& request) {
  return request.fungible || request.heterogeneous;
}

// Placement works in *nominal* worker units: one worker on a training GPU
// counts 1.0; a worker on an inference GPU counts its compute factor (1/3).
// A fungible job moved to weaker GPUs keeps its global batch size by running
// proportionally more, smaller workers (§2.1), so it occupies 1/factor times
// the GPUs for the same nominal throughput — which is exactly what the
// paper's capacity normalization (§5.2) encodes.
double ServerWorkerCredit(const Server& server) {
  return GpuComputeFactor(server.gpu_type());
}

// Server-id groups the request may use, in preference order. Each group is
// internally GPU-type-uniform for non-heterogeneous jobs; heterogeneous jobs
// get a single mixed group ordered by pool preference. Groups hold only
// servers with a free GPU: a full server adds +0.0 to GroupCapacityCredit and
// never enters PlaceIntoGroup's heap, and the free index keeps pool order, so
// dropping full servers changes no decision.
std::vector<std::vector<ServerId>> EligibleGroups(const ClusterState& cluster,
                                                  const PlaceRequest& request) {
  std::vector<ServerId> training = cluster.ServersWithFreeGpus(ServerPool::kTraining);
  std::vector<ServerId> loaned;
  if (LoanEligible(request)) {
    loaned = cluster.ServersWithFreeGpus(ServerPool::kOnLoan);
  }

  // A non-heterogeneous job that already holds GPUs must stay on that type.
  GpuType current;
  const bool pinned = !request.heterogeneous &&
                      CurrentGpuType(cluster, request.job, &current);

  std::vector<std::vector<ServerId>> groups;
  auto push_group = [&](std::vector<ServerId> group, GpuType type) {
    if (group.empty()) {
      return;
    }
    if (pinned && type != current) {
      return;
    }
    groups.push_back(std::move(group));
  };

  if (request.heterogeneous) {
    std::vector<ServerId> merged;
    if (request.preference == PoolPreference::kLoanedFirst ||
        request.preference == PoolPreference::kLoanedOnly) {
      merged = loaned;
      if (request.preference != PoolPreference::kLoanedOnly) {
        merged.insert(merged.end(), training.begin(), training.end());
      }
    } else {
      merged = training;
      if (request.preference != PoolPreference::kTrainingOnly) {
        merged.insert(merged.end(), loaned.begin(), loaned.end());
      }
    }
    if (!merged.empty()) {
      groups.push_back(std::move(merged));
    }
    return groups;
  }

  switch (request.preference) {
    case PoolPreference::kTrainingFirst:
      push_group(std::move(training), GpuType::kTrainingV100);
      push_group(std::move(loaned), GpuType::kInferenceT4);
      break;
    case PoolPreference::kLoanedFirst:
      push_group(std::move(loaned), GpuType::kInferenceT4);
      push_group(std::move(training), GpuType::kTrainingV100);
      break;
    case PoolPreference::kTrainingOnly:
      push_group(std::move(training), GpuType::kTrainingV100);
      break;
    case PoolPreference::kLoanedOnly:
      push_group(std::move(loaned), GpuType::kInferenceT4);
      break;
  }
  return groups;
}

double GroupCapacityCredit(const ClusterState& cluster, const std::vector<ServerId>& group,
                           int gpus_per_worker) {
  double capacity = 0.0;
  for (ServerId id : group) {
    const Server& server = cluster.server(id);
    capacity += (server.free_gpus() / gpus_per_worker) * ServerWorkerCredit(server);
  }
  return capacity;
}

// Places physical workers into the group until `nominal_workers` of credit is
// accumulated; returns false — leaving a partial placement for the caller's
// transaction to roll back — if the group runs out of placeable servers
// first. Within the group best-fit prefers the earlier (preferred) pool
// position only implicitly through equal tie handling; the primary key is the
// tightest fit. A min-heap on (free GPUs, group position) replaces the
// per-worker rescan: only the chosen server's free count changes between
// picks, so pop + push keeps the heap exact and servers that drop below one
// worker's demand leave the heap for good.
bool PlaceIntoGroup(ClusterState& cluster, const PlaceRequest& request,
                    const std::vector<ServerId>& group, int nominal_workers) {
  // (free GPUs, position in group, server id); tuple order reproduces the
  // rescan's first-seen tie-break.
  using Entry = std::tuple<int, std::size_t, ServerId>;
  auto worse = [](const Entry& a, const Entry& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) >
           std::tie(std::get<0>(b), std::get<1>(b));
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> heap(worse);
  for (std::size_t i = 0; i < group.size(); ++i) {
    const int free = cluster.server(group[i]).free_gpus();
    if (free >= request.gpus_per_worker) {
      heap.push({free, i, group[i]});
    }
  }

  double credit = 0.0;
  while (credit + kCreditEpsilon < static_cast<double>(nominal_workers)) {
    if (heap.empty()) {
      return false;
    }
    auto [free, index, best] = heap.top();
    heap.pop();
    cluster.Place(request.job, best, request.gpus_per_worker, request.flexible);
    credit += ServerWorkerCredit(cluster.server(best));
    free -= request.gpus_per_worker;
    if (free >= request.gpus_per_worker) {
      heap.push({free, index, best});
    }
  }
  return true;
}

// Shared all-or-nothing attempt, without the attempt/failure counters (the
// speculative path must not skew them). Each candidate group is tried under
// a ClusterTransaction: success commits, exhaustion rolls the partial
// placement back and moves on to the next group — the aggregate credit check
// stays as a cheap pre-filter, it no longer has to be exact for safety.
bool TryPlaceWorkersImpl(ClusterState& cluster, const PlaceRequest& request) {
  LYRA_CHECK_GT(request.workers, 0);
  const auto groups = EligibleGroups(cluster, request);
  for (const auto& group : groups) {
    if (GroupCapacityCredit(cluster, group, request.gpus_per_worker) + kCreditEpsilon <
        static_cast<double>(request.workers)) {
      continue;
    }
    ClusterTransaction txn(cluster);
    if (PlaceIntoGroup(cluster, request, group, request.workers)) {
      txn.Commit();
      return true;
    }
    txn.Rollback();
  }
  return false;
}

}  // namespace

bool TryPlaceWorkers(ClusterState& cluster, const PlaceRequest& request) {
  obs::AddCounter("placement.attempts");
  if (TryPlaceWorkersImpl(cluster, request)) {
    obs::AddCounter("placement.workers_placed", static_cast<std::uint64_t>(request.workers));
    return true;
  }
  obs::AddCounter("placement.failures");
  return false;
}

bool WouldPlaceWorkers(ClusterState& cluster, const PlaceRequest& request) {
  obs::AddCounter("placement.speculative_checks");
  ClusterTransaction txn(cluster);
  const bool ok = TryPlaceWorkersImpl(cluster, request);
  txn.Rollback();
  return ok;
}

int CountPlaceableWorkers(const ClusterState& cluster, const PlaceRequest& request) {
  const auto groups = EligibleGroups(cluster, request);
  double best = 0.0;
  for (const auto& group : groups) {
    best = std::max(best, GroupCapacityCredit(cluster, group, request.gpus_per_worker));
  }
  return static_cast<int>(best + kCreditEpsilon);
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

}  // namespace lyra
