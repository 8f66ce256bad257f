#include "src/sched/placement_util.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "src/common/check.h"
#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"

namespace lyra {
namespace {

// A set of free-slot keys of one pool: bit 2 * kind + t stands for
// (kind, kGpuTypes[t]), the kind as in ClusterState::KindOf (bit 0 base
// GPUs, bit 1 flexible GPUs).
using KeySet = unsigned;
constexpr std::array<GpuType, 2> kGpuTypes = {GpuType::kTrainingV100,
                                              GpuType::kInferenceT4};
constexpr KeySet kAllKeys = 0xFF;

// The keys of tiers 0 and 1, by TierRule.
constexpr std::array<std::array<KeySet, 2>, 3> kTierKeys = {{
    {0xFF, 0x00},  // kNone
    {0x0F, 0xF0},  // kBaseAvoidsFlexible: kinds without / with flexible GPUs
    {0x33, 0xCC},  // kFlexibleAvoidsBase: kinds without / with base GPUs
}};

template <typename Fn>
void ForEachKey(KeySet keys, Fn&& fn) {
  for (; keys != 0; keys &= keys - 1) {
    const int key = std::countr_zero(keys);
    fn(kGpuTypes[static_cast<std::size_t>(key & 1)], key >> 1);
  }
}

// Free counts with room for one worker, as free-slot mask bits.
std::uint64_t RoomMask(int gpus_per_worker) {
  return gpus_per_worker > ClusterState::kMaxServerGpus ? 0
                                                        : ~std::uint64_t{0} << gpus_per_worker;
}

// The server the next worker goes to, or an invalid id if none has room. The
// best server of one (segment, tier) has its fewest sufficient free GPUs and
// the lowest id among them, so the winner is the (segment, tier) least in
// (tier, free GPUs, segment order).
ServerId PickBestFit(const ClusterState& cluster, const CandidatePools& candidates,
                     int gpus_per_worker) {
  const std::uint64_t room = RoomMask(gpus_per_worker);
  ServerPool pool = ServerPool::kTraining;
  KeySet best_keys = 0;
  int best_tier = 0;
  int best_free = 0;
  for (int s = 0; s < candidates.size; ++s) {
    const PoolSegment& segment = candidates.segments[static_cast<std::size_t>(s)];
    for (int r = 0; r < 2; ++r) {
      const KeySet keys =
          kTierKeys[static_cast<std::size_t>(segment.rule)][static_cast<std::size_t>(r)];
      std::uint64_t mask = 0;
      ForEachKey(keys, [&](GpuType type, int kind) {
        mask |= cluster.FreeSlotMask(segment.pool, type, kind);
      });
      mask &= room;
      const int tier = segment.tier_offset + r;
      const int free = std::countr_zero(mask);
      // Strict: an equal (tier, free) keeps the earlier segment.
      if (mask != 0 &&
          (best_keys == 0 || std::tie(tier, free) < std::tie(best_tier, best_free))) {
        pool = segment.pool;
        best_keys = keys;
        best_tier = tier;
        best_free = free;
      }
    }
  }
  ServerId best;
  ForEachKey(best_keys, [&](GpuType type, int kind) {
    const std::vector<ServerId>& bucket = cluster.FreeSlotBucket(pool, type, kind, best_free);
    if (!bucket.empty() && (!best.valid() || bucket.front() < best)) {
      best = bucket.front();
    }
  });
  return best;
}

// Nominal-worker capacity of the candidates, in PlaceBestFit's credit: whole
// worker slots per GPU type, times the type's compute factor.
double Capacity(const ClusterState& cluster, const CandidatePools& candidates,
                int gpus_per_worker) {
  const std::uint64_t room = RoomMask(gpus_per_worker);
  std::array<std::int64_t, 2> slots{};  // by GpuType
  for (int s = 0; s < candidates.size; ++s) {
    const ServerPool pool = candidates.segments[static_cast<std::size_t>(s)].pool;
    ForEachKey(kAllKeys, [&](GpuType type, int kind) {
      for (std::uint64_t mask = cluster.FreeSlotMask(pool, type, kind) & room; mask != 0;
           mask &= mask - 1) {
        const int free = std::countr_zero(mask);
        slots[static_cast<std::size_t>(type)] +=
            static_cast<std::int64_t>(cluster.FreeSlotBucket(pool, type, kind, free).size()) *
            (free / gpus_per_worker);
      }
    });
  }
  return static_cast<double>(slots[0]) * GpuComputeFactor(kGpuTypes[0]) +
         static_cast<double>(slots[1]) * GpuComputeFactor(kGpuTypes[1]);
}

// Pool groups the request may use, in preference order. A non-heterogeneous
// job gets one group per GPU type, only the type it already holds if it holds
// any; a heterogeneous job gets one group of both pools in preference order.
// Every segment is tier 0, so best fit keys on free GPUs, segment order and
// id alone, across a merged group too. A group with no segment fits nothing.
std::array<CandidatePools, 2> EligibleGroups(const ClusterState& cluster,
                                             const PlaceRequest& request) {
  const bool training = request.preference != PoolPreference::kLoanedOnly;
  const bool loaned = (request.fungible || request.heterogeneous) &&
                      request.preference != PoolPreference::kTrainingOnly;
  GpuType current;
  const bool pinned =
      !request.heterogeneous && CurrentGpuType(cluster, request.job, &current);
  std::array<CandidatePools, 2> groups;
  if (training && (!pinned || current == GpuType::kTrainingV100)) {
    groups[0].Add(ServerPool::kTraining);
  }
  if (loaned && (!pinned || current == GpuType::kInferenceT4)) {
    groups[request.heterogeneous ? 0 : 1].Add(ServerPool::kOnLoan);
  }
  return groups;
}

}  // namespace

CandidatePools& CandidatePools::Add(ServerPool pool, TierRule rule, int tier_offset) {
  LYRA_CHECK_LT(static_cast<std::size_t>(size), segments.size());
  segments[static_cast<std::size_t>(size++)] = {pool, rule, tier_offset};
  return *this;
}

// Each worker is answered from the free-slot index as it stands, which is
// exact (DESIGN.md §4 "One best-fit placer"): a server's tier cannot change
// during the call, because placing base GPUs never changes HasFlexibleGpus
// and placing flexible GPUs never changes HasBaseGpus, and no server gains
// free GPUs.
double PlaceBestFit(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                    bool flexible, const CandidatePools& candidates) {
  double placed = 0.0;
  while (placed + kCreditEpsilon < static_cast<double>(workers)) {
    const ServerId id = PickBestFit(cluster, candidates, gpus_per_worker);
    if (!id.valid()) {
      break;
    }
    cluster.Place(job, id, gpus_per_worker, flexible);
    placed += GpuComputeFactor(cluster.server(id).gpu_type());
  }
  return placed;
}

// The capacity check counts exactly the worker slots the placer fills, so
// once it passes the placement cannot stop short and needs no rollback.
bool PlaceAllOrNothing(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                       bool flexible, const CandidatePools& candidates) {
  if (Capacity(cluster, candidates, gpus_per_worker) + kCreditEpsilon <
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
  obs::AddCounter(obs::HotCounter::kPlacementAttempts);
  for (const CandidatePools& group : EligibleGroups(cluster, request)) {
    if (PlaceAllOrNothing(cluster, request.job, request.gpus_per_worker, request.workers,
                          request.flexible, group)) {
      obs::AddCounter(obs::HotCounter::kPlacementWorkersPlaced,
                      static_cast<std::uint64_t>(request.workers));
      return true;
    }
  }
  obs::AddCounter(obs::HotCounter::kPlacementFailures);
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
  LYRA_CHECK(job.spec().elastic());  // only elastic jobs hold flexible GPUs
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
