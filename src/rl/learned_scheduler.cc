#include "src/rl/learned_scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/types.h"
#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra::rl {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

double Squash(double seconds) { return seconds / (seconds + 3600.0); }

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

std::vector<double> BuildObservation(const SchedulerContext& ctx, const Job& job) {
  const ClusterState& cluster = *ctx.cluster;
  std::vector<double> obs;
  obs.reserve(static_cast<std::size_t>(kFeatureCount));

  // Global cluster/queue features. TrainingSideFreeNormalized is an absolute
  // count in training-GPU units; divide by the training side's capacity (and
  // clamp: on-loan servers can push free capacity past it) for a fraction.
  const int training_total = std::max(1, cluster.TrainingSideTotalGpus());
  obs.push_back(
      std::min(1.0, cluster.TrainingSideFreeNormalized() / training_total));
  const int loan_total = cluster.TotalGpus(ServerPool::kOnLoan);
  obs.push_back(loan_total > 0
                    ? static_cast<double>(cluster.FreeGpus(ServerPool::kOnLoan)) /
                          loan_total
                    : 0.0);
  obs.push_back(std::min(1.0, static_cast<double>(ctx.pending.size()) / 64.0));
  obs.push_back(std::min(1.0, static_cast<double>(ctx.running.size()) / 256.0));
  double pending_gpus = 0.0;
  for (const Job* p : ctx.pending) {
    pending_gpus += p->spec().base_gpus();
  }
  obs.push_back(std::min(1.0, pending_gpus / training_total));
  const double day_fraction = std::fmod(ctx.now, kDay) / kDay;
  obs.push_back(std::sin(kTwoPi * day_fraction));
  obs.push_back(std::cos(kTwoPi * day_fraction));

  // Per-job features.
  const JobSpec& spec = job.spec();
  obs.push_back(Squash(job.EstimatedRemainingTime(spec.max_workers)));
  obs.push_back(Squash(std::max(0.0, ctx.now - spec.submit_time)));
  obs.push_back(std::min(1.0, static_cast<double>(spec.base_gpus()) / 64.0));
  obs.push_back(spec.elastic() ? 1.0 : 0.0);
  obs.push_back(spec.fungible ? 1.0 : 0.0);
  obs.push_back(static_cast<double>(spec.gpus_per_worker) / 8.0);
  obs.push_back(static_cast<double>(spec.min_workers) / spec.max_workers);

  LYRA_CHECK_EQ(obs.size(), static_cast<std::size_t>(kFeatureCount));
  return obs;
}

LearnedScheduler::LearnedScheduler(PolicyNet policy, LearnedSchedulerOptions options)
    : policy_(std::move(policy)), options_(options), rng_(options.sample_seed) {}

void LearnedScheduler::PlaceOne(SchedulerContext& ctx, Job* job,
                                double worker_action) {
  const JobSpec& spec = job->spec();
  const int base = spec.RequestedWorkers();
  PlaceRequest request = BaseRequest(*job, base, PoolPreference::kTrainingFirst);
  if (!ctx.allow_loaned_placement) {
    request.preference = PoolPreference::kTrainingOnly;
  }
  if (!TryPlaceWorkers(*ctx.cluster, request)) {
    // Make room by shrinking running elastic jobs back toward base demand.
    HarvestFlexibleGpus(*ctx.cluster, ctx.running, base * spec.gpus_per_worker);
    if (!TryPlaceWorkers(*ctx.cluster, request)) {
      return;
    }
  }
  const int headroom = spec.max_workers - base;
  if (!spec.elastic() || headroom <= 0) {
    return;
  }
  // The worker head picks the scale-out fraction of the job's headroom.
  const int grow = std::clamp(
      static_cast<int>(std::lround(Sigmoid(worker_action) * headroom)), 0, headroom);
  const PlaceRequest flex = FlexibleRequest(*job, 1, request.preference);
  for (int g = 0; g < grow; ++g) {
    if (!TryPlaceWorkers(*ctx.cluster, flex)) {
      break;
    }
  }
}

void LearnedScheduler::Schedule(SchedulerContext& ctx) {
  if (ctx.pending.empty()) {
    return;
  }
  std::vector<Job*> queue(ctx.pending.begin(), ctx.pending.end());
  std::stable_sort(queue.begin(), queue.end(), [](const Job* a, const Job* b) {
    return a->spec().submit_time < b->spec().submit_time;
  });
  const int scored =
      std::min<int>(static_cast<int>(queue.size()), options_.max_scored_jobs);

  std::vector<std::vector<double>> obs(static_cast<std::size_t>(scored));
  std::vector<double> score(static_cast<std::size_t>(scored));
  for (int i = 0; i < scored; ++i) {
    obs[static_cast<std::size_t>(i)] = BuildObservation(ctx, *queue[static_cast<std::size_t>(i)]);
    score[static_cast<std::size_t>(i)] =
        policy_.PriorityScore(obs[static_cast<std::size_t>(i)]);
  }

  // Order the scored head of the queue; d log pi / d score per job when
  // sampling (Plackett-Luce: each draw contributes 1[chosen] - softmax_p to
  // every still-remaining candidate).
  std::vector<int> order(static_cast<std::size_t>(scored));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> priority_grad(static_cast<std::size_t>(scored), 0.0);
  if (options_.mode == PolicyMode::kEval) {
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return score[static_cast<std::size_t>(a)] >
                                                score[static_cast<std::size_t>(b)]; });
  } else {
    std::vector<int> remaining = order;
    order.clear();
    std::vector<double> prob;
    while (!remaining.empty()) {
      double max_score = score[static_cast<std::size_t>(remaining[0])];
      for (int j : remaining) {
        max_score = std::max(max_score, score[static_cast<std::size_t>(j)]);
      }
      prob.assign(remaining.size(), 0.0);
      double total = 0.0;
      for (std::size_t r = 0; r < remaining.size(); ++r) {
        prob[r] = std::exp(score[static_cast<std::size_t>(remaining[r])] - max_score);
        total += prob[r];
      }
      const double u = rng_.NextDouble() * total;
      std::size_t chosen = remaining.size() - 1;
      double cumulative = 0.0;
      for (std::size_t r = 0; r < remaining.size(); ++r) {
        cumulative += prob[r];
        if (u < cumulative) {
          chosen = r;
          break;
        }
      }
      for (std::size_t r = 0; r < remaining.size(); ++r) {
        priority_grad[static_cast<std::size_t>(remaining[r])] +=
            (r == chosen ? 1.0 : 0.0) - prob[r] / total;
      }
      order.push_back(remaining[chosen]);
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(chosen));
    }
  }

  obs::PhaseSpan placement_span(obs::Phase::kPlacement);
  std::vector<double> worker_grad(static_cast<std::size_t>(scored), 0.0);
  for (int idx : order) {
    Job* job = queue[static_cast<std::size_t>(idx)];
    const double mu = policy_.WorkerScore(obs[static_cast<std::size_t>(idx)]);
    double action = mu;
    if (options_.mode == PolicyMode::kSample && job->spec().elastic()) {
      action = mu + options_.worker_sigma * rng_.NextGaussian();
      worker_grad[static_cast<std::size_t>(idx)] =
          (action - mu) / (options_.worker_sigma * options_.worker_sigma);
    }
    PlaceOne(ctx, job, action);
  }
  // Unscored tail launches FIFO behind the scored head.
  for (std::size_t i = static_cast<std::size_t>(scored); i < queue.size(); ++i) {
    PlaceOne(ctx, queue[i], 0.0);
  }

  if (options_.mode == PolicyMode::kSample && trajectory_ != nullptr &&
      trajectory_->steps.size() <
          static_cast<std::size_t>(options_.max_trajectory_steps)) {
    for (int i = 0; i < scored; ++i) {
      TrajectoryStep step;
      step.obs = std::move(obs[static_cast<std::size_t>(i)]);
      step.d_priority = priority_grad[static_cast<std::size_t>(i)];
      step.d_worker = worker_grad[static_cast<std::size_t>(i)];
      trajectory_->steps.push_back(std::move(step));
    }
  }
}

}  // namespace lyra::rl
