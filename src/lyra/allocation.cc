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

// The one read of the running set: each elastic running job, in ctx.running
// order, becomes a flexible target holding its current flexible workers, and
// its flexible GPUs go back into the ledger as capacity (they are resizable).
// Only elastic jobs hold flexible GPUs, so the ledger adds the same terms in
// the same order as a walk of every running job: the on-loan sum of thirds
// depends on that order.
CapacityLedger ReadRunning(const SchedulerContext& ctx,
                           std::vector<FlexibleTarget>& targets) {
  CapacityLedger ledger;
  const ClusterState& cluster = *ctx.cluster;
  ledger.training = cluster.FreeGpus(ServerPool::kTraining);
  if (ctx.allow_loaned_placement) {
    ledger.loaned = cluster.FreeGpus(ServerPool::kOnLoan) * kInferenceGpuFactor;
  }
  for (Job* job : ctx.running) {
    if (!job->spec().elastic()) {
      continue;
    }
    const JobPlacement* placement = cluster.FindPlacement(job->id());
    LYRA_CHECK(placement != nullptr);  // every running job is placed
    FlexibleTarget& target = targets.emplace_back();
    target.job = job;
    if (placement->flexible_gpus() == 0) {
      continue;  // no flexible worker and nothing to add back
    }
    target.current = PlacedFlexibleWorkers(cluster, *job);
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
                                    const LyraSchedulerOptions& options,
                                    MckpSolver* solver, PendingIndex* pending) {
  MckpSolver local_solver;
  PendingIndex local_index;
  AllocationDecision decision;
  TwoPhaseAllocate(ctx, options, solver != nullptr ? *solver : local_solver,
                   pending != nullptr ? *pending : local_index, decision);
  return decision;
}

void TwoPhaseAllocate(const SchedulerContext& ctx, const LyraSchedulerOptions& options,
                      MckpSolver& mckp, PendingIndex& index, AllocationDecision& decision) {
  decision.launches.clear();
  decision.flexible_targets.clear();
  std::vector<FlexibleTarget>& targets = decision.flexible_targets;
  CapacityLedger ledger = ReadRunning(ctx, targets);

  // --- Phase 1: SJF over the inelastic workload ------------------------------
  // Heterogeneous-capable jobs are considered with the lowest priority, after
  // everything else is scheduled (§6).
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
  for (Job* job : decision.launches) {
    if (job->spec().elastic()) {
      FlexibleTarget& target = targets.emplace_back();
      target.job = job;
      target.launch = true;
    }
  }
  if (targets.empty()) {
    return;
  }

  // One group per elastic job, item k = "grow by k workers". Items that
  // outweigh this round's capacity can never be chosen (the solver skips
  // them and the greedy loop never reaches them), so they are not built: a
  // job's item count is bounded by the capacity, not by max_workers.
  const int capacity = static_cast<int>(ledger.total());
  mckp.Clear(capacity);
  for (const FlexibleTarget& target : targets) {
    const Job* job = target.job;
    const JobSpec& spec = job->spec();
    // EstimatedRemainingTime(w) is work / w: one product per job, one
    // division per item, the same doubles.
    LYRA_CHECK_GT(spec.min_workers, 0);
    LYRA_CHECK_GT(spec.gpus_per_worker, 0);
    const double work = job->EstimatedRemainingWork();
    const TimeSec base_time = work / spec.min_workers;
    const int count =
        std::min(spec.max_workers - spec.min_workers, capacity / spec.gpus_per_worker);
    if (options.information_agnostic) {
      // Without running-time estimates, value a grant by the compute it adds
      // so the remaining GPUs are simply kept busy.
      mckp.AddGroup(count, spec.gpus_per_worker, [](int k) { return static_cast<double>(k); });
    } else {
      const int min_workers = spec.min_workers;
      mckp.AddGroup(count, spec.gpus_per_worker,
                    [=](int k) { return base_time - work / (min_workers + k); });
    }
  }

  if (options.greedy_phase2) {
    // AFS-style local heuristic: one worker at a time to the job with the
    // best marginal value per GPU.
    std::vector<int> granted(targets.size(), 0);
    int remaining = capacity;
    while (true) {
      std::size_t best = targets.size();
      double best_ratio = 0.0;
      for (std::size_t g = 0; g < targets.size(); ++g) {
        const int next = granted[g];
        if (next >= static_cast<int>(mckp.group_size(g))) {
          continue;
        }
        const MckpItem& item = mckp.item(g, static_cast<std::size_t>(next));
        const double prev_value =
            next == 0 ? 0.0 : mckp.item(g, static_cast<std::size_t>(next - 1)).value;
        const int step_weight = targets[g].job->spec().gpus_per_worker;
        if (step_weight > remaining) {
          continue;
        }
        const double ratio = (item.value - prev_value) / step_weight;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = g;
        }
      }
      if (best == targets.size()) {
        break;
      }
      ++granted[best];
      remaining -= targets[best].job->spec().gpus_per_worker;
    }
    for (std::size_t g = 0; g < targets.size(); ++g) {
      targets[g].target = granted[g];
    }
    return;
  }

  const MckpSolution& solution = mckp.Solve();
  // The solve's cost in DP cell updates, not in time: a restored daemon
  // replays the same counts.
  obs::AddCounter(obs::HotCounter::kMckpSolves);
  obs::AddCounter(obs::HotCounter::kMckpCells, mckp.cell_updates());
  for (std::size_t g = 0; g < targets.size(); ++g) {
    const int chosen = solution.chosen[g];
    targets[g].target = chosen < 0 ? 0 : chosen + 1;
  }
}

}  // namespace lyra
