// Tests for the persistent phase-one order (PendingIndex) and the exact
// phase-one exit. The oracle is the per-round sort it replaces: a
// std::stable_sort of ctx.pending by (heterogeneous, key).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "src/cluster/gpu.h"
#include "src/common/rng.h"
#include "src/lyra/allocation.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/pending_index.h"
#include "src/lyra/reclaim.h"
#include "src/predict/predictor.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

std::vector<Job*> OracleOrder(const std::vector<Job*>& pending, bool information_agnostic) {
  std::vector<Job*> order = pending;
  std::stable_sort(order.begin(), order.end(), [&](const Job* a, const Job* b) {
    const bool ha = a->spec().heterogeneous;
    const bool hb = b->spec().heterogeneous;
    if (ha != hb) {
      return hb;
    }
    if (information_agnostic) {
      return (a->spec().total_work - a->work_remaining()) <
             (b->spec().total_work - b->work_remaining());
    }
    return a->EstimatedRemainingTime(a->spec().max_workers) <
           b->EstimatedRemainingTime(b->spec().max_workers);
  });
  return order;
}

std::vector<Job*> JobsOf(const std::vector<PendingIndex::Entry>& entries) {
  std::vector<Job*> out;
  for (const PendingIndex::Entry& entry : entries) {
    out.push_back(entry.job);
  }
  return out;
}

// A queue driven through the job lifecycle the simulator applies: arrivals
// and requeues are stamped and appended; launches and cancels leave from
// anywhere. Specs come from a few values, so equal keys are common.
class QueueWorld {
 public:
  explicit QueueWorld(std::uint64_t seed) : rng_(seed) {}

  void Round() {
    now_ += rng_.Uniform(1.0, 50.0);
    const int arrivals = static_cast<int>(rng_.UniformInt(0, 5));
    for (int i = 0; i < arrivals; ++i) {
      Enqueue(NewJob());
    }
    std::vector<Job*> still;
    for (Job* job : pending_) {
      const double roll = rng_.NextDouble();
      if (roll < 0.1) {
        job->Start(now_, rng_.Uniform(0.5, 2.0), job->spec().min_workers);
        running_.push_back(job);
      } else if (roll < 0.13) {
        job->Cancel(now_);
      } else {
        still.push_back(job);
      }
    }
    pending_.swap(still);
    std::vector<Job*> still_running;
    for (Job* job : running_) {
      if (rng_.NextBernoulli(0.25)) {
        job->Preempt(now_, rng_.NextBernoulli(0.5) ? 0.0 : 10.0);
        Enqueue(job);
      } else {
        still_running.push_back(job);
      }
    }
    running_.swap(still_running);
  }

  SchedulerContext Context() {
    SchedulerContext ctx;
    ctx.now = now_;
    ctx.cluster = &cluster_;
    ctx.pending = pending_;
    ctx.running = running_;
    return ctx;
  }

 private:
  Job* NewJob() {
    static constexpr double kWork[] = {100.0, 200.0, 400.0};
    JobSpec spec;
    spec.id = JobId(static_cast<std::int64_t>(jobs_.size()));
    spec.total_work = kWork[rng_.UniformInt(0, 2)];
    spec.min_workers = static_cast<int>(rng_.UniformInt(1, 2));
    spec.max_workers = spec.min_workers + (rng_.NextBernoulli(0.5) ? 2 : 0);
    spec.gpus_per_worker = static_cast<int>(rng_.UniformInt(1, 2));
    spec.heterogeneous = rng_.NextBernoulli(0.2);
    spec.fungible = rng_.NextBernoulli(0.3);
    spec.checkpointing = rng_.NextBernoulli(0.5);
    jobs_.push_back(std::make_unique<Job>(spec));
    return jobs_.back().get();
  }

  void Enqueue(Job* job) {
    job->StampQueueSeq();
    pending_.push_back(job);
  }

  Rng rng_;
  ClusterState cluster_;  // identity only
  double now_ = 0.0;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<Job*> pending_;
  std::vector<Job*> running_;
};

class PendingIndexOracleTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PendingIndexOracleTest, OrderMatchesStableSortEveryRound) {
  const auto [seed, information_agnostic] = GetParam();
  QueueWorld world(static_cast<std::uint64_t>(seed));
  PendingIndex index;
  for (int round = 0; round < 300; ++round) {
    world.Round();
    const SchedulerContext ctx = world.Context();
    const std::vector<Job*> order = JobsOf(index.Refresh(ctx, information_agnostic));
    ASSERT_EQ(order, OracleOrder(ctx.pending, information_agnostic)) << "round " << round;
    double min_need = std::numeric_limits<double>::infinity();
    for (const Job* job : ctx.pending) {
      min_need = std::min(min_need, static_cast<double>(job->spec().base_gpus()));
    }
    EXPECT_EQ(index.min_base_gpus(), min_need);
  }
}

TEST_P(PendingIndexOracleTest, OneIndexStaysExactAcrossTwoQueues) {
  // Two queues (two clusters) refreshed in turn through one index, as when
  // one scheduler drives two simulators.
  const auto [seed, information_agnostic] = GetParam();
  QueueWorld a(static_cast<std::uint64_t>(seed));
  QueueWorld b(static_cast<std::uint64_t>(seed) + 100);
  PendingIndex index;
  Rng pick(static_cast<std::uint64_t>(seed) + 7);
  for (int round = 0; round < 200; ++round) {
    QueueWorld& world = pick.NextBernoulli(0.5) ? a : b;
    world.Round();
    const SchedulerContext ctx = world.Context();
    ASSERT_EQ(JobsOf(index.Refresh(ctx, information_agnostic)),
              OracleOrder(ctx.pending, information_agnostic))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndKeys, PendingIndexOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(PendingIndex, SwitchingTheKeyRebuilds) {
  QueueWorld world(9);
  PendingIndex index;
  for (int round = 0; round < 100; ++round) {
    world.Round();
    const bool information_agnostic = round % 3 == 0;
    const SchedulerContext ctx = world.Context();
    ASSERT_EQ(JobsOf(index.Refresh(ctx, information_agnostic)),
              OracleOrder(ctx.pending, information_agnostic));
  }
}

TEST(PendingIndex, UnstampedOrUnorderedListsSortByPosition) {
  // Hand-built contexts need no stamps: ties then keep list order, as the
  // stable sort did.
  ClusterState cluster;
  std::vector<std::unique_ptr<Job>> jobs;
  SchedulerContext ctx;
  ctx.cluster = &cluster;
  for (int i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.id = JobId(i);
    spec.total_work = 100.0 * (1 + i % 3);
    spec.heterogeneous = i % 5 == 0;
    jobs.push_back(std::make_unique<Job>(spec));
    ctx.pending.push_back(jobs.back().get());
  }
  PendingIndex index;
  EXPECT_EQ(JobsOf(index.Refresh(ctx, false)), OracleOrder(ctx.pending, false));
  // Stamped, then presented out of stamp order.
  for (auto& job : jobs) {
    job->StampQueueSeq();
  }
  std::reverse(ctx.pending.begin(), ctx.pending.end());
  EXPECT_EQ(JobsOf(index.Refresh(ctx, false)), OracleOrder(ctx.pending, false));
  std::reverse(ctx.pending.begin(), ctx.pending.end());
  EXPECT_EQ(JobsOf(index.Refresh(ctx, false)), OracleOrder(ctx.pending, false));
  EXPECT_EQ(JobsOf(index.Refresh(ctx, true)), OracleOrder(ctx.pending, true));
}

// --- Phase one against a full walk -----------------------------------------

// The ledger and debit rule of §5.2, written out: free training GPUs plus
// flexible ones, on-loan capacity at the inference compute factor.
std::vector<Job*> FullWalkLaunches(const SchedulerContext& ctx) {
  const ClusterState& cluster = *ctx.cluster;
  double training = cluster.FreeGpus(ServerPool::kTraining);
  double loaned = ctx.allow_loaned_placement
                      ? cluster.FreeGpus(ServerPool::kOnLoan) * kInferenceGpuFactor
                      : 0.0;
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
          loaned += share.flexible_gpus * kInferenceGpuFactor;
        }
      } else {
        training += share.flexible_gpus;
      }
    }
  }
  std::vector<Job*> launches;
  for (Job* job : OracleOrder(ctx.pending, false)) {
    const JobSpec& spec = job->spec();
    const double need = spec.base_gpus();
    if (!(ctx.allow_loaned_placement && (spec.fungible || spec.heterogeneous))) {
      if (training >= need) {
        training -= need;
        launches.push_back(job);
      }
      continue;
    }
    if (training + loaned < need) {
      continue;
    }
    const bool prefer_loaned = spec.elastic() && !spec.heterogeneous;
    double& first = prefer_loaned ? loaned : training;
    double& second = prefer_loaned ? training : loaned;
    const double from_first = std::min(first, need);
    first -= from_first;
    second -= need - from_first;
    launches.push_back(job);
  }
  return launches;
}

TEST(PendingIndex, PhaseOneExitMatchesFullWalkOnRandomLedgers) {
  Rng rng(31);
  PendingIndex index;
  std::vector<std::unique_ptr<Job>> jobs;
  const auto make_job = [&](bool heterogeneous) {
    JobSpec spec;
    spec.id = JobId(static_cast<std::int64_t>(jobs.size()));
    spec.total_work = rng.Uniform(10.0, 1000.0);
    spec.gpus_per_worker = static_cast<int>(rng.UniformInt(1, 4));
    spec.min_workers = static_cast<int>(rng.UniformInt(1, 3));
    spec.max_workers = spec.min_workers + static_cast<int>(rng.UniformInt(0, 2));
    spec.fungible = rng.NextBernoulli(0.4);
    spec.heterogeneous = heterogeneous;
    jobs.push_back(std::make_unique<Job>(spec));
    return jobs.back().get();
  };
  int exits_before_end = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ClusterState cluster;
    std::vector<ServerId> servers;
    const int training = static_cast<int>(rng.UniformInt(1, 4));
    const int on_loan = static_cast<int>(rng.UniformInt(0, 3));
    for (int s = 0; s < training; ++s) {
      servers.push_back(cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
    }
    for (int s = 0; s < on_loan; ++s) {
      servers.push_back(cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
    }
    SchedulerContext ctx;
    ctx.cluster = &cluster;
    ctx.allow_loaned_placement = rng.NextBernoulli(0.8);
    // Running jobs fill most servers with base and flexible GPUs, leaving
    // fractional loaned capacity and flexible GPUs behind.
    for (ServerId id : servers) {
      int free = cluster.server(id).free_gpus();
      while (free > 0 && rng.NextBernoulli(0.8)) {
        Job* job = make_job(false);
        const int gpus = static_cast<int>(rng.UniformInt(1, free));
        cluster.Place(job->id(), id, gpus, /*flexible=*/rng.NextBernoulli(0.3));
        ctx.running.push_back(job);
        free -= gpus;
      }
    }
    const int pending = static_cast<int>(rng.UniformInt(0, 40));
    for (int p = 0; p < pending; ++p) {
      Job* job = make_job(rng.NextBernoulli(0.15));
      job->StampQueueSeq();
      ctx.pending.push_back(job);
    }
    const std::vector<Job*> expected = FullWalkLaunches(ctx);
    AllocationOptions options;
    const AllocationDecision decision = TwoPhaseAllocate(ctx, options, nullptr, &index);
    ASSERT_EQ(decision.launches, expected) << "trial " << trial;
    if (!ctx.pending.empty() && expected.size() < ctx.pending.size()) {
      ++exits_before_end;
    }
  }
  EXPECT_GT(exits_before_end, 50);
}

// --- One scheduler, two simulators -------------------------------------------

Trace SmallContendedTrace(std::uint64_t seed) {
  SyntheticTraceOptions options;
  options.duration = 1 * kDay;
  options.training_gpus = 12 * 8;
  options.target_utilization = 1.2;
  options.seed = seed;
  return SyntheticTraceGenerator(options).Generate();
}

std::unique_ptr<Simulator> MakeSimulator(const Trace& trace, JobScheduler* scheduler,
                                         ReclaimPolicy* reclaim) {
  DiurnalTrafficOptions traffic;
  traffic.duration = 6 * kDay;
  traffic.seed = 4;
  InferenceClusterOptions inference;
  inference.num_servers = 14;
  SimulatorOptions options;
  options.training_servers = 12;
  options.record_decisions = true;
  // Crashes requeue jobs under new stamps.
  options.faults.enabled = true;
  options.faults.server_mtbf = 3 * kHour;
  return std::make_unique<Simulator>(
      options, trace, scheduler, reclaim,
      std::make_unique<InferenceCluster>(inference, DiurnalTrafficModel(traffic),
                                         std::make_unique<SeasonalNaivePredictor>()));
}

TEST(PendingIndex, SharedSchedulerMatchesFreshSchedulers) {
  const Trace trace_a = SmallContendedTrace(3);
  const Trace trace_b = SmallContendedTrace(4);
  LyraReclaimPolicy reclaim;

  LyraScheduler fresh_a;
  LyraScheduler fresh_b;
  auto solo_a = MakeSimulator(trace_a, &fresh_a, &reclaim);
  auto solo_b = MakeSimulator(trace_b, &fresh_b, &reclaim);
  const SimulationResult expected_a = solo_a->Run();
  const SimulationResult expected_b = solo_b->Run();

  LyraScheduler shared;
  auto sim_a = MakeSimulator(trace_a, &shared, &reclaim);
  auto sim_b = MakeSimulator(trace_b, &shared, &reclaim);
  for (TimeSec t = 0.0; t < 3 * kDay; t += 20 * kMinute) {
    sim_a->StepUntil(t);
    sim_b->StepUntil(t);
  }
  sim_a->StepUntil(std::numeric_limits<double>::infinity());
  sim_b->StepUntil(std::numeric_limits<double>::infinity());
  const SimulationResult got_a = sim_a->Finalize();
  const SimulationResult got_b = sim_b->Finalize();

  EXPECT_GT(expected_a.preemptions + expected_b.preemptions, 0);
  EXPECT_EQ(sim_a->decision_log().records(), solo_a->decision_log().records());
  EXPECT_EQ(sim_b->decision_log().records(), solo_b->decision_log().records());
  EXPECT_EQ(got_a.jct_samples, expected_a.jct_samples);
  EXPECT_EQ(got_b.jct_samples, expected_b.jct_samples);
}

}  // namespace
}  // namespace lyra
