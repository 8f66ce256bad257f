#include "src/lyra/allocation.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/lyra/mckp.h"
#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"

namespace lyra {
namespace {

// Free-capacity ledger split by pool, because non-fungible jobs can only
// consume training GPUs. Flexible GPUs count as free: they are available for
// resizing at the epoch (§5.2).
struct CapacityLedger {
  // Capacities in normalized (training-GPU-equivalent) units: on-loan
  // inference GPUs count at their compute factor (§5.2).
  double training = 0.0;
  double loaned = 0.0;

  double total() const { return training + loaned; }

  // Tries to debit `gpus` (normalized) with the given pool preference;
  // returns false and leaves the ledger unchanged if it cannot be covered.
  bool Debit(double gpus, bool can_use_loaned, bool prefer_loaned) {
    if (!can_use_loaned) {
      if (training < gpus) {
        return false;
      }
      training -= gpus;
      return true;
    }
    if (total() < gpus) {
      return false;
    }
    double& first = prefer_loaned ? loaned : training;
    double& second = prefer_loaned ? training : loaned;
    const double from_first = std::min(first, gpus);
    first -= from_first;
    second -= gpus - from_first;
    return true;
  }
};

CapacityLedger BuildLedger(const SchedulerContext& ctx) {
  CapacityLedger ledger;
  const ClusterState& cluster = *ctx.cluster;
  ledger.training = cluster.FreeGpus(ServerPool::kTraining);
  if (ctx.allow_loaned_placement) {
    ledger.loaned = cluster.FreeGpus(ServerPool::kOnLoan) * kInferenceGpuFactor;
  }
  // Flexible workers are resizable: add their GPUs back as capacity.
  for (const Job* job : ctx.running) {
    const JobPlacement* placement = cluster.FindPlacement(job->id());
    if (placement == nullptr) {
      continue;
    }
    for (const auto& [server_id, share] : placement->shares) {
      if (share.flexible_gpus == 0) {
        continue;
      }
      if (cluster.server(server_id).pool() == ServerPool::kOnLoan) {
        if (ctx.allow_loaned_placement) {
          ledger.loaned += share.flexible_gpus * kInferenceGpuFactor;
        }
      } else {
        ledger.training += share.flexible_gpus;
      }
    }
  }
  return ledger;
}

}  // namespace

AllocationDecision TwoPhaseAllocate(const SchedulerContext& ctx,
                                    const AllocationOptions& options,
                                    MckpSolver* solver, PendingIndex* pending) {
  AllocationDecision decision;
  CapacityLedger ledger = BuildLedger(ctx);

  // --- Phase 1: SJF over the inelastic workload ------------------------------
  // Heterogeneous-capable jobs are considered with the lowest priority, after
  // everything else is scheduled (§6).
  PendingIndex local_index;
  PendingIndex& index = pending != nullptr ? *pending : local_index;
  index.Refresh(ctx, options.information_agnostic);
  // Debit only ever subtracts, and each of its branches fails once neither
  // the training pool nor the whole ledger covers the demand. So when both
  // are below the smallest pending demand, no later job can launch.
  const double min_need = index.min_base_gpus();
  PendingIndex::Cursor order = index.Order();
  while (const PendingIndex::Entry* entry = order.Next()) {
    if (std::max(ledger.training, ledger.total()) < min_need) {
      break;
    }
    const double need = static_cast<double>(entry->base_gpus);
    const bool can_use_loaned = ctx.allow_loaned_placement && entry->loan_eligible;
    // Elastic jobs prefer on-loan servers so reclaiming can scale them in
    // rather than preempt; heterogeneous base demand stays on training (§6).
    if (ledger.Debit(need, can_use_loaned, entry->prefer_loaned)) {
      decision.launches.push_back(entry->job);
    }
    // Jobs that do not fit are simply removed from the pool this epoch (§5.2).
  }

  // --- Phase 2: multiple-choice knapsack over flexible demand ----------------
  std::vector<Job*> elastic;
  for (Job* job : ctx.running) {
    if (job->spec().elastic()) {
      elastic.push_back(job);
    }
  }
  for (Job* job : decision.launches) {
    if (job->spec().elastic()) {
      elastic.push_back(job);
    }
  }
  if (elastic.empty()) {
    return decision;
  }

  // One group per elastic job, item k = "grow by k workers". Items that
  // outweigh this round's capacity can never be chosen (the solver skips
  // them and the greedy loop never reaches them), so they are not built: a
  // job's item count is bounded by the capacity, not by max_workers.
  const int capacity = static_cast<int>(ledger.total());
  MckpSolver local_solver;
  MckpSolver& mckp = solver != nullptr ? *solver : local_solver;
  mckp.Clear();
  for (Job* job : elastic) {
    const JobSpec& spec = job->spec();
    mckp.AddGroup();
    const TimeSec base_time = job->EstimatedRemainingTime(spec.min_workers);
    for (int k = 1; k <= spec.max_workers - spec.min_workers &&
                    k * spec.gpus_per_worker <= capacity;
         ++k) {
      // Without running-time estimates, value a grant by the compute it adds
      // so the remaining GPUs are simply kept busy.
      const double value =
          options.information_agnostic
              ? static_cast<double>(k)
              : base_time - job->EstimatedRemainingTime(spec.min_workers + k);
      mckp.AddItem(k * spec.gpus_per_worker, value);
    }
  }

  if (options.greedy_phase2) {
    // AFS-style local heuristic: one worker at a time to the job with the
    // best marginal value per GPU.
    std::vector<int> granted(elastic.size(), 0);
    int remaining = capacity;
    while (true) {
      std::size_t best = elastic.size();
      double best_ratio = 0.0;
      for (std::size_t g = 0; g < elastic.size(); ++g) {
        const int next = granted[g];
        if (next >= static_cast<int>(mckp.group_size(g))) {
          continue;
        }
        const MckpItem& item = mckp.item(g, static_cast<std::size_t>(next));
        const double prev_value =
            next == 0 ? 0.0 : mckp.item(g, static_cast<std::size_t>(next - 1)).value;
        const int step_weight = elastic[g]->spec().gpus_per_worker;
        if (step_weight > remaining) {
          continue;
        }
        const double ratio = (item.value - prev_value) / step_weight;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = g;
        }
      }
      if (best == elastic.size()) {
        break;
      }
      ++granted[best];
      remaining -= elastic[best]->spec().gpus_per_worker;
    }
    for (std::size_t g = 0; g < elastic.size(); ++g) {
      decision.flexible_targets.emplace_back(elastic[g], granted[g]);
    }
    return decision;
  }

  const MckpSolution& solution = mckp.Solve(capacity);
  // The solve's cost in DP cell updates, not in time: a restored daemon
  // replays the same counts.
  obs::AddCounter("mckp.solves");
  obs::AddCounter("mckp.cells", mckp.cell_updates());
  for (std::size_t g = 0; g < elastic.size(); ++g) {
    const int chosen = solution.chosen[g];
    decision.flexible_targets.emplace_back(elastic[g], chosen < 0 ? 0 : chosen + 1);
  }
  return decision;
}

}  // namespace lyra
