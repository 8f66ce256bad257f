// Helpers for manipulating the flexible (beyond-base) demand of elastic jobs.
#ifndef SRC_SCHED_ELASTIC_UTIL_H_
#define SRC_SCHED_ELASTIC_UTIL_H_

#include <span>

#include "src/cluster/cluster_state.h"
#include "src/workload/job.h"

namespace lyra {

// Current worker count of a placed job (0 if unplaced).
int PlacedWorkers(const ClusterState& cluster, const Job& job);

// Current flexible worker count of a placed job.
int PlacedFlexibleWorkers(const ClusterState& cluster, const Job& job);

// Scales the job's flexible demand down to `target_flex_workers` by removing
// flexible GPUs server by server. Returns the number of GPUs released.
int ShrinkFlexibleTo(ClusterState& cluster, const Job& job, int target_flex_workers);

// Removes flexible workers across `running` jobs (one worker at a time,
// round-robin) until at least `gpus_needed` GPUs are released or no flexible
// workers remain. Returns GPUs released. Costs O(1) when the cluster holds no
// flexible GPU, and otherwise one look-up per running elastic job plus the
// passes over the jobs that hold flexible workers.
int HarvestFlexibleGpus(ClusterState& cluster, std::span<Job* const> running,
                        int gpus_needed);

}  // namespace lyra

#endif  // SRC_SCHED_ELASTIC_UTIL_H_
