#include "src/lyra/reclaim.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace lyra {
namespace {

// Number of servers hosting base GPUs of the job.
int BaseServerCount(const ClusterState& cluster, JobId job) {
  const JobPlacement* placement = cluster.FindPlacement(job);
  if (placement == nullptr) {
    return 0;
  }
  int count = 0;
  for (const auto& [server_id, share] : placement->shares) {
    if (share.base_gpus > 0) {
      ++count;
    }
  }
  return count;
}

struct VacateContext {
  ReclaimResult result;
  // Placement snapshots of preempted jobs, for collateral accounting.
  std::unordered_map<JobId, JobPlacement> preempted_snapshots;
};

// Servers whose occupancy a vacate call changed: the vacated server plus
// every other server a hosted job occupied (preempted jobs lose their shares
// everywhere; scaled-in jobs keep theirs, but their placements decide whose
// cached costs went stale). Deduplicated. The callers use it to update idle
// counts and cost-heap keys incrementally instead of rescanning the pool.
struct VacateEffect {
  std::vector<ServerId> affected;
};

VacateEffect VacateServerImpl(ClusterState& cluster, ServerId server_id,
                              VacateContext& ctx) {
  const Server& server = cluster.server(server_id);
  std::vector<std::pair<JobId, GpuShare>> hosted(server.jobs().begin(),
                                                 server.jobs().end());
  obs::AddCounter("reclaim.servers_vacated");
  VacateEffect effect;
  effect.affected.push_back(server_id);
  for (const auto& [job, share] : hosted) {
    const JobPlacement* placement = cluster.FindPlacement(job);
    for (const auto& [other_id, other_share] : placement->shares) {
      if (other_id != server_id) {
        effect.affected.push_back(other_id);
      }
    }
    if (share.base_gpus > 0) {
      // Base workers here: the whole job must be preempted, everywhere.
      ctx.preempted_snapshots.emplace(job, *placement);
      cluster.RemoveJob(job);
      ctx.result.preempted.push_back(job);
      obs::AddCounter("reclaim.jobs_preempted");
    } else {
      // Flexible workers only: scale the job in, no preemption.
      cluster.RemoveFlexible(job, server_id, share.flexible_gpus);
      ctx.result.scaled_in.push_back(job);
      obs::AddCounter("reclaim.jobs_scaled_in");
    }
  }
  std::sort(effect.affected.begin(), effect.affected.end());
  effect.affected.erase(
      std::unique(effect.affected.begin(), effect.affected.end()),
      effect.affected.end());
  return effect;
}

// On-loan servers in `affected` that are idle now. Every affected server
// hosted at least one share when the vacate started, so any idle one
// transitioned during that call — summing these per vacate reproduces the
// old per-iteration IdleOnLoanCount() delta without rescanning the pool.
int NewlyIdleOnLoan(const ClusterState& cluster, const std::vector<ServerId>& affected) {
  int count = 0;
  for (ServerId id : affected) {
    const Server& srv = cluster.server(id);
    if (srv.pool() == ServerPool::kOnLoan && srv.idle()) {
      ++count;
    }
  }
  return count;
}

// Finalizes the result: records the newly idle on-loan servers and computes
// collateral damage (GPUs preempted jobs held outside the vacated set).
ReclaimResult Finalize(const ClusterState& cluster, VacateContext ctx,
                       const std::unordered_set<std::int64_t>& idle_before) {
  std::unordered_set<std::int64_t> vacated_set;
  for (ServerId id : cluster.ServersInPool(ServerPool::kOnLoan)) {
    if (cluster.server(id).idle() && !idle_before.contains(id.value)) {
      ctx.result.vacated.push_back(id);
      vacated_set.insert(id.value);
    }
  }
  // Deduplicate scale-in records (a job may shrink on several servers).
  std::sort(ctx.result.scaled_in.begin(), ctx.result.scaled_in.end());
  ctx.result.scaled_in.erase(
      std::unique(ctx.result.scaled_in.begin(), ctx.result.scaled_in.end()),
      ctx.result.scaled_in.end());

  for (const auto& [job, placement] : ctx.preempted_snapshots) {
    for (const auto& [server_id, share] : placement.shares) {
      if (!vacated_set.contains(server_id.value)) {
        ctx.result.collateral_gpus += share.total();
      }
    }
  }
  return std::move(ctx.result);
}

std::unordered_set<std::int64_t> IdleOnLoanSet(const ClusterState& cluster) {
  std::unordered_set<std::int64_t> idle;
  for (ServerId id : cluster.ServersInPool(ServerPool::kOnLoan)) {
    if (cluster.server(id).idle()) {
      idle.insert(id.value);
    }
  }
  return idle;
}

std::vector<ServerId> OccupiedOnLoanServers(const ClusterState& cluster) {
  std::vector<ServerId> out;
  for (ServerId id : cluster.ServersInPool(ServerPool::kOnLoan)) {
    if (!cluster.server(id).idle()) {
      out.push_back(id);
    }
  }
  return out;
}

// Vacates servers from `order` until `num_servers` on-loan servers are newly
// idle (collateral emptying counts) or the order is exhausted. The idle
// count is carried incrementally across iterations (each vacate reports the
// servers it emptied) instead of recounting the pool per server.
ReclaimResult VacateInOrder(ClusterState& cluster, const std::vector<ServerId>& order,
                            int num_servers) {
  const auto idle_before = IdleOnLoanSet(cluster);
  VacateContext ctx;
  int newly_idle = 0;
  for (ServerId id : order) {
    if (newly_idle >= num_servers) {
      break;
    }
    if (!cluster.server(id).idle()) {
      const VacateEffect effect = VacateServerImpl(cluster, id, ctx);
      newly_idle += NewlyIdleOnLoan(cluster, effect.affected);
    }
  }
  return Finalize(cluster, std::move(ctx), idle_before);
}

}  // namespace

double ServerPreemptionCost(const ClusterState& cluster, ServerId server_id) {
  const Server& server = cluster.server(server_id);
  double cost = 0.0;
  for (const auto& [job, share] : server.jobs()) {
    if (share.base_gpus == 0) {
      continue;  // flexible-only: scales in for free
    }
    const int servers = BaseServerCount(cluster, job);
    LYRA_CHECK_GT(servers, 0);
    cost += 1.0 / static_cast<double>(servers);
  }
  return cost;
}

int CollateralEstimate(const ClusterState& cluster, ServerId server_id) {
  const SortedIdMap<JobId, GpuShare>& hosted = cluster.server(server_id).jobs();
  // The vacate preempts the jobs with base GPUs here. Jobs with only
  // flexible GPUs here scale in on this server alone, which changes no other
  // server's occupancy.
  auto preempted = [&](JobId job) {
    const auto it = hosted.find(job);
    return it != hosted.end() && it->second.base_gpus > 0;
  };
  // An on-loan server every job of which is preempted ends up empty.
  auto emptied = [&](const Server& other) {
    if (other.pool() != ServerPool::kOnLoan) {
      return false;
    }
    for (const auto& [job, share] : other.jobs()) {
      if (!preempted(job)) {
        return false;
      }
    }
    return true;
  };
  int collateral = 0;
  bool preempts = false;
  for (const auto& [job, share] : hosted) {
    if (share.base_gpus == 0) {
      continue;
    }
    preempts = true;
    for (const auto& [other_id, other_share] : cluster.FindPlacement(job)->shares) {
      // GPUs on this server are the demand itself, and GPUs on a collaterally
      // emptied server contribute to the demand: neither is damage.
      if (other_id != server_id && !emptied(cluster.server(other_id))) {
        collateral += other_share.total();
      }
    }
  }
  if (preempts) {
    obs::AddCounter("reclaim.speculative_vacates");
  }
  return collateral;
}

double ServerJobCountCost(const ClusterState& cluster, ServerId server_id) {
  return static_cast<double>(cluster.server(server_id).num_jobs());
}

double ServerGpuFractionCost(const ClusterState& cluster, ServerId server_id) {
  const Server& server = cluster.server(server_id);
  double cost = 0.0;
  for (const auto& [job, share] : server.jobs()) {
    const JobPlacement* placement = cluster.FindPlacement(job);
    cost += static_cast<double>(share.total()) /
            static_cast<double>(placement->total_gpus());
  }
  return cost;
}

void VacateServer(ClusterState& cluster, ServerId server, ReclaimResult& result) {
  const auto idle_before = IdleOnLoanSet(cluster);
  VacateContext ctx;
  VacateServerImpl(cluster, server, ctx);
  ReclaimResult partial = Finalize(cluster, std::move(ctx), idle_before);
  result.vacated.insert(result.vacated.end(), partial.vacated.begin(),
                        partial.vacated.end());
  result.preempted.insert(result.preempted.end(), partial.preempted.begin(),
                          partial.preempted.end());
  result.scaled_in.insert(result.scaled_in.end(), partial.scaled_in.begin(),
                          partial.scaled_in.end());
  result.collateral_gpus += partial.collateral_gpus;
}

ReclaimResult LyraReclaimPolicy::Reclaim(ClusterState& cluster, int num_servers) {
  const auto idle_before = IdleOnLoanSet(cluster);
  VacateContext ctx;
  int newly_idle = 0;

  // Lazy-invalidation cost heap over the occupied on-loan servers, keyed by
  // (preemption cost, collateral estimate, id) — exactly the order the old
  // full rescan selected in, so the greedy decisions are bit-identical. A
  // vacate re-keys only the servers whose cached costs it could have
  // changed: the servers that lost shares, plus every server sharing a job
  // with one of those (its collateral estimate reads their occupancy).
  // Stale heap entries are skipped by version; emptied servers leave the
  // heap for good. Replaces the O(occupied² · jobs) rescan-per-vacate.
  struct HeapEntry {
    double cost = 0.0;
    int collateral = 0;
    ServerId id;
    std::uint64_t version = 0;
  };
  auto worse = [](const HeapEntry& a, const HeapEntry& b) {
    return std::tie(a.cost, a.collateral, a.id.value) >
           std::tie(b.cost, b.collateral, b.id.value);
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(worse)> heap(worse);
  std::unordered_map<std::int64_t, std::uint64_t> versions;

  auto push_server = [&](ServerId id) {
    heap.push({ServerPreemptionCost(cluster, id), CollateralEstimate(cluster, id),
               id, ++versions[id.value]});
  };
  for (ServerId id : OccupiedOnLoanServers(cluster)) {
    push_server(id);
  }

  while (newly_idle < num_servers && !heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.version != versions[top.id.value] || cluster.server(top.id).idle()) {
      continue;  // re-keyed since, or collaterally emptied
    }
    const VacateEffect effect = VacateServerImpl(cluster, top.id, ctx);

    // Fold the emptied servers into the running idle count and re-key the
    // dirty neighborhood.
    std::vector<ServerId> dirty;
    for (ServerId id : effect.affected) {
      const Server& srv = cluster.server(id);
      if (srv.idle()) {
        if (srv.pool() == ServerPool::kOnLoan) {
          ++newly_idle;
          ++versions[id.value];  // drop its remaining heap entries
        }
        continue;  // idle: hosts nothing, nobody's estimate depends on it
      }
      dirty.push_back(id);
      for (const auto& [job, share] : srv.jobs()) {
        const JobPlacement* placement = cluster.FindPlacement(job);
        for (const auto& [other_id, other_share] : placement->shares) {
          dirty.push_back(other_id);
        }
      }
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (ServerId id : dirty) {
      const Server& srv = cluster.server(id);
      if (srv.pool() == ServerPool::kOnLoan && !srv.idle()) {
        push_server(id);
      }
    }
  }
  return Finalize(cluster, std::move(ctx), idle_before);
}

ReclaimResult RandomReclaimPolicy::Reclaim(ClusterState& cluster, int num_servers) {
  std::vector<ServerId> order = OccupiedOnLoanServers(cluster);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng_.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return VacateInOrder(cluster, order, num_servers);
}

ReclaimResult ScfReclaimPolicy::Reclaim(ClusterState& cluster, int num_servers) {
  std::vector<ServerId> order = OccupiedOnLoanServers(cluster);
  std::stable_sort(order.begin(), order.end(), [&](ServerId a, ServerId b) {
    return cluster.server(a).num_jobs() < cluster.server(b).num_jobs();
  });
  return VacateInOrder(cluster, order, num_servers);
}

ReclaimResult OptimalReclaimPolicy::Reclaim(ClusterState& cluster, int num_servers) {
  std::vector<ServerId> occupied = OccupiedOnLoanServers(cluster);
  const int k = std::min<int>(num_servers, static_cast<int>(occupied.size()));
  if (k <= 0) {
    return VacateInOrder(cluster, {}, num_servers);
  }

  // Map jobs with base GPUs on occupied servers to dense indices.
  std::unordered_map<std::int64_t, int> job_index;
  std::vector<std::vector<int>> server_jobs(occupied.size());
  for (std::size_t s = 0; s < occupied.size(); ++s) {
    for (const auto& [job, share] : cluster.server(occupied[s]).jobs()) {
      if (share.base_gpus == 0) {
        continue;
      }
      auto [it, inserted] = job_index.emplace(job.value, static_cast<int>(job_index.size()));
      server_jobs[s].push_back(it->second);
    }
  }

  // Branch and bound over exactly-k subsets, minimizing distinct preempted
  // jobs. Exponential in |occupied| by design — this is the comparison point
  // for the heuristic's 420,000x speedup claim.
  std::vector<int> job_refs(job_index.size(), 0);
  int best_count = std::numeric_limits<int>::max();
  std::vector<std::size_t> best_subset;
  std::vector<std::size_t> current;

  auto recurse = [&](auto&& self, std::size_t start, int chosen, int preempted) -> void {
    if (preempted >= best_count) {
      return;  // prune
    }
    if (chosen == k) {
      best_count = preempted;
      best_subset = current;
      return;
    }
    if (occupied.size() - start < static_cast<std::size_t>(k - chosen)) {
      return;  // not enough servers left
    }
    for (std::size_t s = start; s < occupied.size(); ++s) {
      int added = 0;
      for (int j : server_jobs[s]) {
        if (job_refs[static_cast<std::size_t>(j)]++ == 0) {
          ++added;
        }
      }
      current.push_back(s);
      self(self, s + 1, chosen + 1, preempted + added);
      current.pop_back();
      for (int j : server_jobs[s]) {
        --job_refs[static_cast<std::size_t>(j)];
      }
    }
  };
  recurse(recurse, 0, 0, 0);

  std::vector<ServerId> order;
  for (std::size_t s : best_subset) {
    order.push_back(occupied[s]);
  }
  // Vacate the chosen subset in full: pass its size so collateral emptying
  // does not truncate the optimal selection.
  return VacateInOrder(cluster, order, static_cast<int>(order.size()));
}

}  // namespace lyra
