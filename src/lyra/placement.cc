#include "src/lyra/placement.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "src/common/check.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

// A tiered candidate set: servers are considered tier by tier; within a tier
// best-fit prefers a non-empty server with the least (but sufficient) free
// GPUs, opening an empty server only when no partially-used one fits.
struct Candidate {
  ServerId id;
  int tier = 0;
};

constexpr double kCreditEpsilon = 1e-9;

// Nominal-worker capacity of the candidate set: a worker slot on inference
// GPUs counts its compute factor (capacity normalization, §5.2).
double TierCapacityWorkers(const ClusterState& cluster, const std::vector<Candidate>& set,
                           int gpus_per_worker) {
  double total = 0.0;
  for (const Candidate& c : set) {
    const Server& server = cluster.server(c.id);
    total += (server.free_gpus() / gpus_per_worker) *
             GpuComputeFactor(server.gpu_type());
  }
  return total;
}

// Places physical workers into the candidate set until `workers` nominal
// worker credit is reached; returns the credit placed. Placement key per
// worker: (tier, empty-last, best-fit free GPUs), ties broken by candidate
// order. Candidates live in a min-heap on that key instead of being rescanned
// per worker: only the chosen server's key changes between picks (its free
// count shrinks and it stops being empty), so one pop + one push per placed
// worker keeps the heap exact — O((workers + |set|) log |set|) instead of
// O(workers x |set|). Candidates too small for one worker are dropped for
// good, which the rescan loop could not do.
double PlaceBestFit(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                    bool flexible, const std::vector<Candidate>& set) {
  struct Entry {
    int tier;
    bool empty;
    int free;
    std::size_t index;  // position in `set`: preserves first-seen tie-breaks
    ServerId id;

    std::tuple<int, bool, int, std::size_t> key() const {
      return {tier, empty, free, index};
    }
    bool operator>(const Entry& other) const { return key() > other.key(); }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Server& server = cluster.server(set[i].id);
    const int free = server.free_gpus();
    if (free >= gpus_per_worker) {
      heap.push({set[i].tier, server.idle(), free, i, set[i].id});
    }
  }

  double placed = 0.0;
  while (placed + kCreditEpsilon < static_cast<double>(workers) && !heap.empty()) {
    Entry best = heap.top();
    heap.pop();
    cluster.Place(job, best.id, gpus_per_worker, flexible);
    placed += GpuComputeFactor(cluster.server(best.id).gpu_type());
    best.free -= gpus_per_worker;
    best.empty = false;
    if (best.free >= gpus_per_worker) {
      heap.push(best);
    }
  }
  return placed;
}

bool ServerHasBaseGpus(const Server& server) {
  for (const auto& [job, share] : server.jobs()) {
    if (share.base_gpus > 0) {
      return true;
    }
  }
  return false;
}

// Candidate sets for one GPU type. `grouped` separates the base group (no
// flexible workers) from the flexible group (no base workers) per §5.3.
// Only servers with a free GPU are candidates: a full one adds +0.0 to
// TierCapacityWorkers and never enters PlaceBestFit's heap, and the free
// index keeps pool order, so the heap's first-seen tie-breaks are unchanged.
std::vector<Candidate> PoolCandidates(const ClusterState& cluster, ServerPool pool,
                                      bool for_flexible, bool grouped) {
  std::vector<Candidate> out;
  for (ServerId id : cluster.ServersWithFreeGpus(pool)) {
    const Server& server = cluster.server(id);
    int tier = 0;
    if (grouped) {
      if (for_flexible) {
        // Flexible demand prefers servers without base workers.
        tier = ServerHasBaseGpus(server) ? 1 : 0;
      } else {
        // Base demand prefers servers without flexible workers.
        tier = server.HasFlexibleGpus() ? 1 : 0;
      }
    }
    out.push_back({id, tier});
  }
  return out;
}

void OffsetTiers(std::vector<Candidate>& set, int offset) {
  for (Candidate& c : set) {
    c.tier += offset;
  }
}

// All-or-nothing placement of a job's base demand within a single GPU type
// (or mixed for heterogeneous jobs).
bool PlaceBase(ClusterState& cluster, const Job& job, int workers,
               const PlacementOptions& options) {
  const JobSpec& spec = job.spec();
  const bool loan_eligible =
      options.allow_loaned && (spec.fungible || spec.heterogeneous);
  const bool grouped = !options.naive;

  auto training = PoolCandidates(cluster, ServerPool::kTraining, /*for_flexible=*/false,
                                 grouped && spec.elastic());
  std::vector<Candidate> loaned;
  if (loan_eligible) {
    loaned = PoolCandidates(cluster, ServerPool::kOnLoan, /*for_flexible=*/false,
                            grouped && spec.elastic());
  }

  auto try_set = [&](std::vector<Candidate> set) {
    if (TierCapacityWorkers(cluster, set, spec.gpus_per_worker) + kCreditEpsilon <
        static_cast<double>(workers)) {
      return false;
    }
    const double placed =
        PlaceBestFit(cluster, job.id(), spec.gpus_per_worker, workers, false, set);
    LYRA_CHECK_GE(placed + kCreditEpsilon, static_cast<double>(workers));
    return true;
  };

  if (spec.heterogeneous && !options.naive) {
    // Heterogeneous base demand goes to training servers; if that fails the
    // job may span both pools (§6).
    if (try_set(training)) {
      return true;
    }
    std::vector<Candidate> merged = training;
    OffsetTiers(loaned, 2);
    merged.insert(merged.end(), loaned.begin(), loaned.end());
    return try_set(merged);
  }

  // Non-heterogeneous jobs keep one GPU type per run: pick a pool order and
  // place entirely within one pool.
  const bool prefer_loaned = spec.elastic() && !options.naive && loan_eligible;
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
int PlaceFlexible(ClusterState& cluster, const Job& job, int workers,
                  const PlacementOptions& options) {
  const JobSpec& spec = job.spec();
  const bool loan_eligible =
      options.allow_loaned && (spec.fungible || spec.heterogeneous);
  const bool grouped = !options.naive;

  std::vector<Candidate> set;
  GpuType pinned;
  const bool is_pinned =
      !spec.heterogeneous && CurrentGpuType(cluster, job.id(), &pinned);

  if (spec.heterogeneous && !options.naive) {
    // Flexible demand of heterogeneous jobs prefers inference servers (§6).
    set = PoolCandidates(cluster, ServerPool::kOnLoan, true, grouped);
    auto training = PoolCandidates(cluster, ServerPool::kTraining, true, grouped);
    OffsetTiers(training, 2);
    set.insert(set.end(), training.begin(), training.end());
  } else if (is_pinned && pinned == GpuType::kInferenceT4) {
    set = PoolCandidates(cluster, ServerPool::kOnLoan, true, grouped);
  } else if (is_pinned && pinned == GpuType::kTrainingV100) {
    set = PoolCandidates(cluster, ServerPool::kTraining, true, grouped);
  } else {
    // Unplaced job (should not happen for scale-out) or naive mode: training
    // first, then loaned.
    set = PoolCandidates(cluster, ServerPool::kTraining, true, grouped);
    if (loan_eligible) {
      auto loaned = PoolCandidates(cluster, ServerPool::kOnLoan, true, grouped);
      OffsetTiers(loaned, 2);
      set.insert(set.end(), loaned.begin(), loaned.end());
    }
  }
  const double placed =
      PlaceBestFit(cluster, job.id(), spec.gpus_per_worker, workers, true, set);
  return static_cast<int>(placed + 0.5);
}

}  // namespace

PlacementStats ApplyAllocation(ClusterState& cluster, const AllocationDecision& decision,
                               const PlacementOptions& options) {
  PlacementStats stats;

  // Scale-ins first so launches and scale-outs see the freed capacity.
  for (const auto& [job, target_flex] : decision.flexible_targets) {
    const int current = PlacedFlexibleWorkers(cluster, *job);
    if (current > target_flex) {
      ShrinkFlexibleTo(cluster, *job, target_flex);
      stats.scale_ins += current - target_flex;
    }
  }

  // Launches in decreasing per-worker GPU demand (BFD across jobs).
  std::vector<Job*> launches = decision.launches;
  std::stable_sort(launches.begin(), launches.end(), [](const Job* a, const Job* b) {
    return a->spec().gpus_per_worker > b->spec().gpus_per_worker;
  });
  for (Job* job : launches) {
    if (PlaceBase(cluster, *job, job->spec().min_workers, options)) {
      ++stats.launched;
    } else {
      ++stats.launch_failures;
    }
  }

  // Flexible scale-outs to the knapsack targets.
  for (const auto& [job, target_flex] : decision.flexible_targets) {
    if (cluster.FindPlacement(job->id()) == nullptr) {
      continue;  // launch failed; no flexible workers for this job
    }
    const int current = PlacedFlexibleWorkers(cluster, *job);
    if (current < target_flex) {
      stats.scale_outs += PlaceFlexible(cluster, *job, target_flex - current, options);
    }
  }
  return stats;
}

}  // namespace lyra
