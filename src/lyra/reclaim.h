// Server reclaiming (§4).
//
// When the inference cluster asks for N_R servers back, the training side
// must empty N_R on-loan servers. Vacating a server scales in jobs that only
// have flexible workers there (no job-level preemption) and fully preempts
// jobs whose base workers live there — removing those jobs from *all* their
// servers, which can collaterally empty other on-loan servers.
//
// The selection problem is a knapsack with dependent item values (NP-hard);
// Lyra's heuristic folds the dependency into a server preemption cost — the
// sum over hosted jobs of that job's server fraction, 1/|servers(job)| — and
// greedily vacates the cheapest server, cascading cost updates (Table 1's
// example). Random and smallest-job-count-first comparators and an
// exhaustive optimal solver are provided for Fig 10 and the §7.3 deep dive.
#ifndef SRC_LYRA_RECLAIM_H_
#define SRC_LYRA_RECLAIM_H_

#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace lyra {

struct ReclaimResult {
  // On-loan servers that are now empty (selected plus collaterally emptied).
  std::vector<ServerId> vacated;
  // Jobs fully preempted (must be re-queued by the caller).
  std::vector<JobId> preempted;
  // Jobs that lost flexible workers but kept running.
  std::vector<JobId> scaled_in;
  // GPUs freed in excess of the reclaiming demand: the collateral damage
  // metric of §7.3 (GPUs a preempted job held on servers that were not part
  // of the demand).
  int collateral_gpus = 0;
};

class ReclaimPolicy {
 public:
  virtual ~ReclaimPolicy() = default;

  virtual const char* name() const = 0;

  // Empties `num_servers` on-loan servers by scaling in / preempting jobs on
  // them (mutating cluster placements). Does not move servers between pools;
  // the orchestrator returns the vacated servers afterwards. If fewer
  // occupied on-loan servers exist than requested, vacates all of them.
  virtual ReclaimResult Reclaim(ClusterState& cluster, int num_servers) = 0;
};

// The preemption cost of vacating `server`: sum over jobs with *base* GPUs on
// it of 1 / (number of servers hosting that job's base GPUs). Jobs with only
// flexible GPUs on the server cost nothing — they scale in, not preempt.
double ServerPreemptionCost(const ClusterState& cluster, ServerId server);

// Collateral damage of vacating `server` now, the greedy tie-breaker (§4):
// the GPUs that the jobs the vacate would preempt hold on other servers.
// GPUs on an on-loan server that the preemptions empty entirely do not count:
// they serve the reclaiming demand rather than being wasted (the
// server-1/server-2 situation of Fig 5). Read-only; equals the
// `collateral_gpus` of VacateServer run on a Clone() of an on-loan server.
int CollateralEstimate(const ClusterState& cluster, ServerId server);

// Alternative cost definitions from Table 1, for the worked example and the
// ablation bench: number of running jobs, and summed GPU fractions.
double ServerJobCountCost(const ClusterState& cluster, ServerId server);
double ServerGpuFractionCost(const ClusterState& cluster, ServerId server);

// Lyra's greedy heuristic with elastic-first release: flexible-only servers
// have zero cost and are taken first; ties break on collateral damage.
class LyraReclaimPolicy : public ReclaimPolicy {
 public:
  const char* name() const override { return "Lyra"; }
  ReclaimResult Reclaim(ClusterState& cluster, int num_servers) override;
};

// Uniform-random selection among occupied on-loan servers.
class RandomReclaimPolicy : public ReclaimPolicy {
 public:
  explicit RandomReclaimPolicy(std::uint64_t seed = 99) : rng_(seed) {}
  const char* name() const override { return "Random"; }
  ReclaimResult Reclaim(ClusterState& cluster, int num_servers) override;

 private:
  Rng rng_;
};

// Smallest (job) count first: top-k servers hosting the fewest jobs.
class ScfReclaimPolicy : public ReclaimPolicy {
 public:
  const char* name() const override { return "SCF"; }
  ReclaimResult Reclaim(ClusterState& cluster, int num_servers) override;
};

// Exhaustive search minimizing the number of preempted jobs, used to measure
// how close the heuristic gets (§7.3: same result under 60 servers, 420,000x
// slower). Exponential: only run on small instances.
class OptimalReclaimPolicy : public ReclaimPolicy {
 public:
  const char* name() const override { return "Optimal"; }
  ReclaimResult Reclaim(ClusterState& cluster, int num_servers) override;
};

// Shared mechanics, exposed for tests: empties one server in place. Jobs with
// base GPUs on it are preempted everywhere; flexible-only jobs are scaled in.
void VacateServer(ClusterState& cluster, ServerId server, ReclaimResult& result);

}  // namespace lyra

#endif  // SRC_LYRA_RECLAIM_H_
