// Placement primitives shared by all schedulers.
//
// Placement is per-worker: a worker occupies gpus_per_worker GPUs on one
// server (workers never span servers). Jobs that are not heterogeneous-
// capable must keep all workers on a single GPU type per run (§2.1), so a
// placement attempt picks one eligible pool group; heterogeneous jobs may mix.
//
// One best-fit placer (PlaceBestFit) serves Lyra (§5.3) and every baseline:
// Lyra describes tiered pools, the baselines tier-0 pool groups. The placer
// answers each worker from ClusterState's free-slot index.
#ifndef SRC_SCHED_PLACEMENT_UTIL_H_
#define SRC_SCHED_PLACEMENT_UTIL_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/sched/scheduler.h"
#include "src/workload/job.h"
#include "src/workload/throughput.h"

namespace lyra {

// Slack for comparing sums of nominal worker credit (multiples of 1/3 for
// inference GPUs) against whole worker counts.
inline constexpr double kCreditEpsilon = 1e-9;

// Where a job's new workers may go, in preference order.
enum class PoolPreference {
  kTrainingFirst,  // training servers, then on-loan if the job is fungible
  kTrainingOnly,
  kLoanedOnly,
};

struct PlaceRequest {
  JobId job;
  int gpus_per_worker = 1;
  int workers = 0;        // how many workers to place in this call
  bool flexible = false;  // mark the GPUs as flexible (elastic beyond base)
  bool fungible = false;
  bool heterogeneous = false;
  PoolPreference preference = PoolPreference::kTrainingFirst;
};

// --- The best-fit placer ------------------------------------------------------

// How a pool's servers are tiered. With a grouping rule, base and flexible
// demand keep to separate servers (§5.3): a server holding the other kind of
// demand is tier 1, the rest tier 0. Without one every server is tier 0.
// A grouping rule is used only for the demand it names: tiers are read live,
// which is exact because that demand never changes the flag its rule reads
// (DESIGN.md §4).
enum class TierRule : std::uint8_t {
  kNone,
  kBaseAvoidsFlexible,  // for base demand: servers with flexible GPUs are tier 1
  kFlexibleAvoidsBase,  // for flexible demand: servers with base GPUs are tier 1
};

// One pool the placer may use: every up server of it with a free GPU, at
// the rule's tier plus `tier_offset`.
struct PoolSegment {
  ServerPool pool = ServerPool::kTraining;
  TierRule rule = TierRule::kNone;
  int tier_offset = 0;
};

// The servers a placement call may use, as pool segments in preference order.
// Each worker goes to the server with the least (tier, free GPUs, segment
// order, server id) among those with room for it: lower tiers fill first, and
// within a tier the fewest (but sufficient) free GPUs win.
struct CandidatePools {
  std::array<PoolSegment, 2> segments{};
  int size = 0;

  CandidatePools& Add(ServerPool pool, TierRule rule = TierRule::kNone,
                      int tier_offset = 0);
};

// Places physical workers on the candidates until `workers` nominal worker
// credit is reached or no candidate has room; returns the credit placed. A
// worker on an inference GPU counts its compute factor (1/3): a fungible job
// on weaker GPUs keeps its global batch size by running proportionally more,
// smaller workers (§2.1), which is the capacity normalization of §5.2.
double PlaceBestFit(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                    bool flexible, const CandidatePools& candidates);

// All-or-nothing PlaceBestFit: places nothing and returns false unless the
// candidates have room for all `workers` nominal workers.
bool PlaceAllOrNothing(ClusterState& cluster, JobId job, int gpus_per_worker, int workers,
                       bool flexible, const CandidatePools& candidates);

// Attempts to place all requested workers within the first eligible pool
// group that has room for them; all-or-nothing. Returns true on success.
//
// For non-heterogeneous jobs the placement keeps GPU types uniform *per
// request*; a job that already holds GPUs only grows on the type it holds
// (see CurrentGpuType).
bool TryPlaceWorkers(ClusterState& cluster, const PlaceRequest& request);

// The GPU type a placed job currently runs on, if it is uniform; returns
// true and sets *type, or returns false if unplaced or mixed.
bool CurrentGpuType(const ClusterState& cluster, JobId job, GpuType* type);

// Derives the job's throughput-relevant placement profile from the cluster.
PlacementProfile ProfileFor(const ClusterState& cluster, const Job& job);

// Convenience: a PlaceRequest for launching `workers` base workers of `job`.
PlaceRequest BaseRequest(const Job& job, int workers,
                         PoolPreference preference = PoolPreference::kTrainingFirst);

// Convenience: a PlaceRequest for growing `job` by `workers` flexible workers.
PlaceRequest FlexibleRequest(const Job& job, int workers,
                             PoolPreference preference = PoolPreference::kTrainingFirst);

// --- Baseline policy helpers --------------------------------------------------

// The pending jobs by submit time, ties in queue order.
std::vector<Job*> ArrivalOrder(std::span<Job* const> pending);

// Training servers, then on-loan ones if the scenario allows loaned placement.
PoolPreference BaselinePreference(const SchedulerContext& ctx);

// Places `request`; if it does not fit, shrinks the running jobs' flexible
// workers to free the request's GPUs and tries once more.
bool PlaceOrHarvest(SchedulerContext& ctx, const PlaceRequest& request);

}  // namespace lyra

#endif  // SRC_SCHED_PLACEMENT_UTIL_H_
