// Resource orchestrator (§3, §6).
//
// The orchestrator executes the inference scheduler's instructions: it is
// told how many servers may be on loan right now, loans idle inference
// servers when that number rises, and — when it falls — selects which on-loan
// servers to return using a pluggable reclaiming policy (§4). Whitelist
// movement is the ClusterState pool transition; a server is only returned
// once the scheduler confirms it has no running workers.
#ifndef SRC_LYRA_ORCHESTRATOR_H_
#define SRC_LYRA_ORCHESTRATOR_H_

#include "src/cluster/cluster_state.h"
#include "src/lyra/reclaim.h"

namespace lyra {

struct OrchestratorStats {
  int loan_operations = 0;
  int reclaim_operations = 0;
  int servers_loaned = 0;
  int servers_returned = 0;
  int jobs_preempted = 0;
  int collateral_gpus = 0;

  void Add(const OrchestratorStats& other) {
    loan_operations += other.loan_operations;
    reclaim_operations += other.reclaim_operations;
    servers_loaned += other.servers_loaned;
    servers_returned += other.servers_returned;
    jobs_preempted += other.jobs_preempted;
    collateral_gpus += other.collateral_gpus;
  }
};

class ResourceOrchestrator {
 public:
  // `policy` must outlive the orchestrator.
  explicit ResourceOrchestrator(ReclaimPolicy* policy) : policy_(policy) {}

  // Drives the loaned-server count toward `target_loaned`. Returns the
  // reclaim result (possibly empty) whose preempted jobs the caller must
  // re-queue and whose scaled-in jobs need a throughput refresh.
  ReclaimResult Reconcile(ClusterState& cluster, int target_loaned);

  const OrchestratorStats& stats() const { return stats_; }

 private:
  ReclaimPolicy* policy_;
  OrchestratorStats stats_;
};

}  // namespace lyra

#endif  // SRC_LYRA_ORCHESTRATOR_H_
