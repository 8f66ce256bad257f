#include "src/sched/elastic_util.h"

#include <cmath>
#include <iterator>

#include "src/common/check.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

// Nominal (training-GPU-equivalent) worker credit of a share on a server: a
// worker on inference GPUs counts its compute factor, matching the capacity
// normalization of §5.2.
double ShareWorkerCredit(const ClusterState& cluster, ServerId server_id, int gpus,
                         int gpus_per_worker) {
  return static_cast<double>(gpus) / gpus_per_worker *
         GpuComputeFactor(cluster.server(server_id).gpu_type());
}

int RoundCredit(double credit) { return static_cast<int>(std::floor(credit + 0.5)); }

// The job's worker credit, rounded to whole workers: all its GPUs, or only
// the flexible ones. Both are cached on the placement. Credit depends only on
// the shares, each server's GPU type (fixed) and gpus_per_worker, and every
// change of the shares draws a new stamp, so the cache is refilled only when
// the stamp or gpus_per_worker moved. One pass fills both: each sum adds the
// same terms in the same server order as a walk of its own, so the doubles
// are bit-identical to an uncached recount.
int PlacedCredit(const ClusterState& cluster, const Job& job, bool flexible_only) {
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return 0;
  }
  const int gpw = job.spec().gpus_per_worker;
  if (placement->credit_stamp != placement->stamp ||
      placement->credit_gpus_per_worker != gpw) {
    double total = 0.0;
    double flexible = 0.0;
    for (const auto& [server_id, share] : placement->shares) {
      total += ShareWorkerCredit(cluster, server_id, share.total(), gpw);
      flexible += ShareWorkerCredit(cluster, server_id, share.flexible_gpus, gpw);
    }
    placement->credit_stamp = placement->stamp;
    placement->credit_gpus_per_worker = gpw;
    placement->credit_workers = RoundCredit(total);
    placement->credit_flexible_workers = RoundCredit(flexible);
  }
  return flexible_only ? placement->credit_flexible_workers : placement->credit_workers;
}

}  // namespace

int PlacedWorkers(const ClusterState& cluster, const Job& job) {
  return PlacedCredit(cluster, job, /*flexible_only=*/false);
}

int PlacedFlexibleWorkers(const ClusterState& cluster, const Job& job) {
  return PlacedCredit(cluster, job, /*flexible_only=*/true);
}

int ShrinkFlexibleTo(ClusterState& cluster, const Job& job, int target_flex_workers) {
  LYRA_CHECK_GE(target_flex_workers, 0);
  const int gpw = job.spec().gpus_per_worker;
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return 0;
  }
  double flex_credit = 0.0;
  for (const auto& [server_id, share] : placement->shares) {
    if (share.flexible_gpus > 0) {
      flex_credit += ShareWorkerCredit(cluster, server_id, share.flexible_gpus, gpw);
    }
  }
  const auto within_target = [&] {
    return flex_credit - kCreditEpsilon <= static_cast<double>(target_flex_workers);
  };
  int released = 0;
  // Remove one physical flexible worker at a time until within target, server
  // by server in ascending id. RemoveFlexible erases a share it empties,
  // which invalidates every iterator into the sorted share list, so the walk
  // finds the next server by key. The placement itself goes only with its
  // last share, and after the last share there is nothing to walk.
  auto it = placement->shares.begin();
  while (it != placement->shares.end() && !within_target()) {
    const ServerId server_id = it->first;
    if (it->second.flexible_gpus == 0) {
      ++it;
      continue;
    }
    const bool last = std::next(it) == placement->shares.end();
    const double credit_per_worker =
        GpuComputeFactor(cluster.server(server_id).gpu_type());
    while (!within_target()) {
      const int removed = cluster.RemoveFlexible(job.id(), server_id, gpw);
      if (removed == 0) {
        break;  // nothing flexible left on this server
      }
      released += removed;
      flex_credit -= static_cast<double>(removed) / gpw * credit_per_worker;
    }
    if (last) {
      break;
    }
    it = placement->shares.upper_bound(server_id);
  }
  return released;
}

// A harvest only shrinks, so a job without a flexible worker when the first
// pass reaches it never gains one: the first pass walks `running` and keeps
// the jobs that hold one, and later passes walk only those, in the same
// order, making the same shrinks as passes over all. Only elastic jobs hold
// flexible GPUs, so no other job is looked up.
int HarvestFlexibleGpus(ClusterState& cluster, std::span<Job* const> running,
                        int gpus_needed) {
  if (gpus_needed <= 0 || cluster.FlexibleGpus() == 0) {
    return 0;
  }
  std::vector<Job*> holders;
  int released = 0;
  bool first_pass = true;
  bool progress = true;
  while (released < gpus_needed && progress) {
    progress = false;
    for (Job* job : first_pass ? running : holders) {
      if (released >= gpus_needed) {
        break;
      }
      if (!job->spec().elastic()) {
        continue;
      }
      const int flex = PlacedFlexibleWorkers(cluster, *job);
      if (flex > 0) {
        if (first_pass) {
          holders.push_back(job);
        }
        const int freed = ShrinkFlexibleTo(cluster, *job, flex - 1);
        released += freed;
        progress = progress || freed > 0;
      }
    }
    first_pass = false;
  }
  return released;
}

}  // namespace lyra
