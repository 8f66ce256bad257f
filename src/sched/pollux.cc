#include "src/sched/pollux.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"
#include "src/workload/throughput.h"

namespace lyra {
namespace {

struct Candidate {
  Job* job = nullptr;
  int min_workers = 0;   // smallest allowed allocation (0 if pending)
  int base_workers = 0;  // job's gang minimum when running
  int max_workers = 0;
  int current = 0;
  double stat_eff = 1.0;
  ModelScalingCurve curve;
};

// Goodput contribution of one job at `workers` workers: throughput relative
// to the job's maximum, scaled by statistical efficiency. Pollux's efficiency
// term decays as training approaches convergence, which is what makes it
// shrink large-and-long jobs near the end (§7.4).
double Goodput(const Candidate& c, int workers) {
  if (workers <= 0) {
    return 0.0;
  }
  return c.curve.ThroughputAt(workers) / c.curve.ThroughputAt(c.max_workers) *
         c.stat_eff;
}

double Fitness(const std::vector<Candidate>& candidates, const std::vector<int>& genome) {
  double total = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    total += Goodput(candidates[i], genome[i]);
  }
  return total;
}

int GenomeGpus(const std::vector<Candidate>& candidates, const std::vector<int>& genome) {
  int total = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    total += genome[i] * candidates[i].job->spec().gpus_per_worker;
  }
  return total;
}

// Shrinks random entries until the genome fits the GPU budget.
void Repair(const std::vector<Candidate>& candidates, int capacity_gpus,
            std::vector<int>& genome, Rng& rng) {
  int used = GenomeGpus(candidates, genome);
  while (used > capacity_gpus) {
    const auto i =
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(genome.size()) - 1));
    const Candidate& c = candidates[i];
    if (genome[i] > c.min_workers) {
      genome[i] -= 1;
      used -= c.job->spec().gpus_per_worker;
    } else if (c.min_workers == 0 && genome[i] > 0) {
      used -= genome[i] * c.job->spec().gpus_per_worker;
      genome[i] = 0;
    }
  }
}

}  // namespace

PolluxScheduler::PolluxScheduler(PolluxOptions options)
    : options_(options), rng_(options.seed) {}

void PolluxScheduler::Schedule(SchedulerContext& ctx) {
  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  ClusterState& cluster = *ctx.cluster;
  const PoolPreference pref = ctx.allow_loaned_placement
                                  ? PoolPreference::kTrainingFirst
                                  : PoolPreference::kTrainingOnly;

  // Inelastic jobs are not part of the goodput optimization; launch them in
  // arrival order when they fit.
  std::vector<Job*> pending_elastic;
  std::vector<Job*> order(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });
  for (Job* job : order) {
    if (job->spec().elastic()) {
      pending_elastic.push_back(job);
      continue;
    }
    TryPlaceWorkers(cluster, BaseRequest(*job, job->spec().RequestedWorkers(), pref));
  }

  std::vector<Job*> elastic;
  for (Job* job : ctx.running) {
    if (job->spec().elastic()) {
      elastic.push_back(job);
    }
  }
  elastic.insert(elastic.end(), pending_elastic.begin(), pending_elastic.end());
  if (elastic.empty()) {
    return;
  }

  if (ctx.now - last_ga_run_ >= options_.ga_interval) {
    last_ga_run_ = ctx.now;
    RunGeneticAllocation(ctx, elastic);
  } else {
    // Between GA rounds, only admit pending elastic jobs at base demand.
    for (Job* job : pending_elastic) {
      TryPlaceWorkers(cluster, BaseRequest(*job, job->spec().min_workers, pref));
    }
  }
}

void PolluxScheduler::RunGeneticAllocation(SchedulerContext& ctx,
                                           const std::vector<Job*>& elastic) {
  ClusterState& cluster = *ctx.cluster;
  const PoolPreference pref = ctx.allow_loaned_placement
                                  ? PoolPreference::kTrainingFirst
                                  : PoolPreference::kTrainingOnly;

  std::vector<Candidate> candidates;
  int capacity = cluster.TrainingSideFreeGpus();
  for (Job* job : elastic) {
    Candidate c;
    c.job = job;
    c.current = PlacedWorkers(cluster, *job);
    c.base_workers = job->spec().min_workers;
    c.min_workers = c.current > 0 ? job->spec().min_workers : 0;
    c.max_workers = job->spec().max_workers;
    const double progress = 1.0 - job->work_remaining() / job->spec().total_work;
    c.stat_eff = 1.0 - 0.5 * progress;
    c.curve = CurveFor(job->spec().model);
    capacity += c.current * job->spec().gpus_per_worker;
    candidates.push_back(c);
  }

  const auto n = candidates.size();
  auto random_genome = [&]() {
    std::vector<int> g(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Candidate& c = candidates[i];
      if (c.min_workers == 0 && rng_.NextBernoulli(0.3)) {
        g[i] = 0;
      } else {
        g[i] = static_cast<int>(rng_.UniformInt(c.base_workers, c.max_workers));
      }
    }
    Repair(candidates, capacity, g, rng_);
    return g;
  };

  std::vector<std::pair<double, std::vector<int>>> population;
  {
    std::vector<int> current(n);
    std::vector<int> minimal(n);
    for (std::size_t i = 0; i < n; ++i) {
      current[i] = candidates[i].current;
      minimal[i] = candidates[i].min_workers == 0 ? candidates[i].base_workers
                                                  : candidates[i].min_workers;
    }
    Repair(candidates, capacity, current, rng_);
    Repair(candidates, capacity, minimal, rng_);
    population.emplace_back(Fitness(candidates, current), current);
    population.emplace_back(Fitness(candidates, minimal), minimal);
  }
  while (population.size() < static_cast<std::size_t>(options_.population)) {
    auto g = random_genome();
    population.emplace_back(Fitness(candidates, g), g);
  }

  for (int iter = 0; iter < options_.iterations; ++iter) {
    // Uniform crossover of two random parents plus point mutations.
    const auto a = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(population.size()) - 1));
    const auto b = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(population.size()) - 1));
    std::vector<int> child(n);
    for (std::size_t i = 0; i < n; ++i) {
      child[i] = rng_.NextBernoulli(0.5) ? population[a].second[i] : population[b].second[i];
    }
    if (rng_.NextBernoulli(options_.mutation_prob) && n > 0) {
      const auto i = static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      const Candidate& c = candidates[i];
      if (c.min_workers == 0 && rng_.NextBernoulli(0.3)) {
        child[i] = 0;
      } else {
        child[i] = static_cast<int>(rng_.UniformInt(c.base_workers, c.max_workers));
      }
    }
    Repair(candidates, capacity, child, rng_);
    const double fitness = Fitness(candidates, child);
    // Replace the worst member if the child improves on it (steady-state GA).
    auto worst = std::min_element(
        population.begin(), population.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    if (fitness > worst->first) {
      *worst = {fitness, std::move(child)};
    }
  }

  const auto& best = *std::max_element(
      population.begin(), population.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });

  // Apply: shrink first to free capacity, then launch / grow.
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& c = candidates[i];
    const int target = best.second[i];
    if (c.current > 0 && target < c.current) {
      ShrinkFlexibleTo(cluster, *c.job, std::max(0, target - c.base_workers));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& c = candidates[i];
    const int target = best.second[i];
    if (target <= 0) {
      continue;
    }
    int placed = PlacedWorkers(cluster, *c.job);
    if (placed == 0) {
      if (!TryPlaceWorkers(cluster, BaseRequest(*c.job, c.base_workers, pref))) {
        continue;
      }
      placed = c.base_workers;
    }
    while (placed < target &&
           TryPlaceWorkers(cluster, FlexibleRequest(*c.job, 1, pref))) {
      ++placed;
    }
  }
}

}  // namespace lyra
