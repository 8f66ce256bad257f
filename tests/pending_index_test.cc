// Tests for the persistent phase-one order (PendingIndex) and the exact
// phase-one exit. The oracle is the per-round sort it replaces: a
// std::stable_sort of ctx.pending by (heterogeneous, key).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
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

std::vector<Job*> OracleOrder(std::span<Job* const> pending, bool information_agnostic) {
  std::vector<Job*> order(pending.begin(), pending.end());
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

std::vector<Job*> JobsOf(const PendingIndex& index) {
  std::vector<Job*> out;
  PendingIndex::Cursor cursor = index.Order();
  while (const PendingIndex::Entry* entry = cursor.Next()) {
    out.push_back(entry->job);
  }
  return out;
}

double MinBaseGpus(std::span<Job* const> pending) {
  double min_need = std::numeric_limits<double>::infinity();
  for (const Job* job : pending) {
    min_need = std::min(min_need, static_cast<double>(job->spec().base_gpus()));
  }
  return min_need;
}

// A queue driven through the job lifecycle the simulator applies, with the
// deltas the simulator hands its scheduler: arrivals and requeues are
// stamped and appended; launches and cancels leave from anywhere and are
// recorded as dequeued. Specs come from a few values, so equal keys are
// common.
class QueueWorld {
 public:
  explicit QueueWorld(std::uint64_t seed) : rng_(seed) {}

  void Round() {
    now_ += rng_.Uniform(1.0, 50.0);
    const int arrivals = static_cast<int>(rng_.UniformInt(0, 5));
    for (int i = 0; i < arrivals; ++i) {
      Arrive();
    }
    for (Job* job : std::vector<Job*>(pending_)) {
      const double roll = rng_.NextDouble();
      if (roll < 0.1) {
        Launch(job);
      } else if (roll < 0.13) {
        Cancel(job);
      }
    }
    // Includes jobs launched above: launched and requeued in one interval.
    for (Job* job : std::vector<Job*>(running_)) {
      if (rng_.NextBernoulli(0.25)) {
        Requeue(job);
      }
    }
  }

  Job* Arrive() {
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
    Enqueue(jobs_.back().get());
    return jobs_.back().get();
  }

  void Launch(Job* job) {
    Leave(job);
    job->Start(now_, rng_.Uniform(0.5, 2.0), job->spec().min_workers);
    running_.push_back(job);
  }

  void Cancel(Job* job) {
    Leave(job);
    job->Cancel(now_);
  }

  void Requeue(Job* job) {
    running_.erase(std::find(running_.begin(), running_.end(), job));
    job->Preempt(now_, rng_.NextBernoulli(0.5) ? 0.0 : 10.0);
    Enqueue(job);
  }

  // The context of the next round, carrying the deltas since the last one.
  // Calling it without scheduling skips a round: its deltas are gone.
  SchedulerContext Context() {
    DropHandedOut();
    handed_out_ = true;
    SchedulerContext ctx;
    ctx.now = now_;
    ctx.cluster = &cluster_;
    ctx.pending = pending_;
    ctx.dequeued = dequeued_;
    ctx.queue_id = queue_id_;
    ctx.round = ++round_;
    ctx.running = running_;
    return ctx;
  }

  const std::vector<Job*>& pending() const { return pending_; }

 private:
  void Enqueue(Job* job) {
    DropHandedOut();
    job->StampQueueSeq();
    pending_.push_back(job);
  }

  void Leave(Job* job) {
    DropHandedOut();
    pending_.erase(std::find(pending_.begin(), pending_.end(), job));
    dequeued_.push_back(job);
  }

  // The first change (or context) after a round starts the next round's
  // deltas.
  void DropHandedOut() {
    if (handed_out_) {
      dequeued_.clear();
      handed_out_ = false;
    }
  }

  Rng rng_;
  ClusterState cluster_;  // identity only
  double now_ = 0.0;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<Job*> pending_;
  std::vector<Job*> running_;
  std::vector<Job*> dequeued_;
  bool handed_out_ = false;
  const std::uint64_t queue_id_ = NewQueueId();
  std::uint64_t round_ = 0;
};

// Refreshes `index` from `ctx` and checks it against the stable_sort oracle.
void ExpectMatchesOracle(PendingIndex& index, const SchedulerContext& ctx,
                         bool information_agnostic) {
  index.Refresh(ctx, information_agnostic);
  ASSERT_EQ(JobsOf(index), OracleOrder(ctx.pending, information_agnostic));
  ASSERT_EQ(index.size(), ctx.pending.size());
  EXPECT_EQ(index.min_base_gpus(), MinBaseGpus(ctx.pending));
}

class PendingIndexOracleTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PendingIndexOracleTest, OrderMatchesStableSortEveryRound) {
  const auto [seed, information_agnostic] = GetParam();
  QueueWorld world(static_cast<std::uint64_t>(seed));
  PendingIndex index;
  for (int round = 0; round < 300; ++round) {
    world.Round();
    SCOPED_TRACE(round);
    ExpectMatchesOracle(index, world.Context(), information_agnostic);
  }
  // Only the first round read the whole queue.
  EXPECT_EQ(index.rebuilds(), 1u);
}

TEST_P(PendingIndexOracleTest, OneIndexStaysExactAcrossTwoQueues) {
  // Two queues (two clusters) refreshed in turn through one index, as when
  // one scheduler drives two simulators: every switch rebuilds, and a queue
  // that keeps the index continues from its deltas.
  const auto [seed, information_agnostic] = GetParam();
  QueueWorld a(static_cast<std::uint64_t>(seed));
  QueueWorld b(static_cast<std::uint64_t>(seed) + 100);
  PendingIndex index;
  Rng pick(static_cast<std::uint64_t>(seed) + 7);
  const QueueWorld* last = nullptr;
  std::uint64_t switches = 0;
  for (int round = 0; round < 200; ++round) {
    QueueWorld& world = pick.NextBernoulli(0.5) ? a : b;
    switches += &world != last ? 1 : 0;
    last = &world;
    world.Round();
    SCOPED_TRACE(round);
    ExpectMatchesOracle(index, world.Context(), information_agnostic);
    ASSERT_EQ(index.rebuilds(), switches);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndKeys, PendingIndexOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(PendingIndex, EnqueuedAndCancelledBeforeTheRound) {
  QueueWorld world(11);
  PendingIndex index;
  for (int round = 0; round < 20; ++round) {
    world.Round();
    ExpectMatchesOracle(index, world.Context(), false);
  }
  Job* gone = world.Arrive();
  world.Arrive();
  world.Cancel(gone);
  const SchedulerContext ctx = world.Context();
  ASSERT_EQ(std::count(ctx.pending.begin(), ctx.pending.end(), gone), 0);
  ASSERT_EQ(std::count(ctx.dequeued.begin(), ctx.dequeued.end(), gone), 1);
  ExpectMatchesOracle(index, ctx, false);
  EXPECT_EQ(index.rebuilds(), 1u);
}

TEST(PendingIndex, LaunchedAndRequeuedWithinOneInterval) {
  QueueWorld world(12);
  PendingIndex index;
  while (world.pending().size() < 8) {
    world.Arrive();
  }
  ExpectMatchesOracle(index, world.Context(), false);
  // Launched and requeued before the next round: the job leaves its old
  // place and rejoins its key's ties behind every job enqueued before it.
  Job* bounced = world.pending().front();
  world.Launch(bounced);
  world.Requeue(bounced);
  world.Arrive();
  const SchedulerContext ctx = world.Context();
  ASSERT_EQ(ctx.pending[ctx.pending.size() - 2], bounced);
  ASSERT_EQ(std::count(ctx.dequeued.begin(), ctx.dequeued.end(), bounced), 1);
  ExpectMatchesOracle(index, ctx, false);
  // Twice in one interval, then cancelled.
  world.Launch(bounced);
  world.Requeue(bounced);
  world.Launch(bounced);
  world.Requeue(bounced);
  world.Cancel(bounced);
  ExpectMatchesOracle(index, world.Context(), false);
  EXPECT_EQ(index.rebuilds(), 1u);
}

TEST(PendingIndex, SkippedRoundRebuilds) {
  QueueWorld world(13);
  PendingIndex index;
  for (int round = 0; round < 60; ++round) {
    world.Round();
    SchedulerContext ctx = world.Context();
    if (round % 7 == 3) {
      continue;  // this round's deltas never reach the index
    }
    SCOPED_TRACE(round);
    const std::uint64_t before = index.rebuilds();
    ExpectMatchesOracle(index, ctx, false);
    EXPECT_EQ(index.rebuilds(), before + (round % 7 == 4 || round == 0 ? 1 : 0));
  }
}

TEST(PendingIndex, SwitchingTheKeyRebuilds) {
  QueueWorld world(9);
  PendingIndex index;
  bool last = false;
  for (int round = 0; round < 100; ++round) {
    world.Round();
    const bool information_agnostic = round % 3 == 0;
    SCOPED_TRACE(round);
    const std::uint64_t before = index.rebuilds();
    ExpectMatchesOracle(index, world.Context(), information_agnostic);
    EXPECT_EQ(index.rebuilds(), before + (round == 0 || information_agnostic != last ? 1 : 0));
    last = information_agnostic;
  }
}

TEST(PendingIndex, DeltasThatDoNotAddUpRebuild) {
  // A requeue whose launch never reached the index: the deltas disagree with
  // the queue, and the index falls back to a full rebuild.
  QueueWorld world(14);
  PendingIndex index;
  while (world.pending().size() < 6) {
    world.Arrive();
  }
  ExpectMatchesOracle(index, world.Context(), false);
  Job* bounced = world.pending().back();
  world.Launch(bounced);
  world.Requeue(bounced);
  SchedulerContext ctx = world.Context();
  ASSERT_EQ(ctx.dequeued.size(), 1u);
  ctx.dequeued = {};
  ExpectMatchesOracle(index, ctx, false);
  EXPECT_EQ(index.rebuilds(), 2u);
}

TEST(PendingIndex, DrainWithoutArrivalsSkipsFewTombstones) {
  // Launches in phase-one order leave their tombstones at the head of the
  // long run, and with no arrivals nothing else folds the runs. The index
  // still folds before a reader has to skip more than sqrt(d P) of them.
  constexpr std::size_t kQueue = 10000;
  constexpr std::size_t kLaunches = 4;
  QueueWorld world(15);
  while (world.pending().size() < kQueue) {
    world.Arrive();
  }
  PendingIndex index;
  ExpectMatchesOracle(index, world.Context(), false);
  std::size_t most_visited = 0;
  for (int round = 0; !world.pending().empty(); ++round) {
    std::vector<Job*> head;
    PendingIndex::Cursor cursor = index.Order();
    while (head.size() < kLaunches) {
      const PendingIndex::Entry* entry = cursor.Next();
      if (entry == nullptr) {
        break;
      }
      head.push_back(entry->job);
    }
    for (Job* job : head) {
      world.Launch(job);
    }
    const SchedulerContext ctx = world.Context();
    if (round % 250 == 0) {
      SCOPED_TRACE(round);
      ExpectMatchesOracle(index, ctx, false);
    } else {
      index.Refresh(ctx, false);
    }
    PendingIndex::Cursor first = index.Order();
    if (first.Next() != nullptr) {
      most_visited = std::max(most_visited, first.visited());
    }
  }
  EXPECT_LE(most_visited, static_cast<std::size_t>(std::sqrt(kQueue * kLaunches)) + 1);
  EXPECT_EQ(index.rebuilds(), 1u);
}

TEST(PendingIndex, UnstampedOrUnorderedListsSortByPosition) {
  // Hand-built contexts need no stamps: ties then keep list order, as the
  // stable sort did.
  ClusterState cluster;
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<Job*> pending;
  SchedulerContext ctx;
  ctx.cluster = &cluster;
  for (int i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.id = JobId(i);
    spec.total_work = 100.0 * (1 + i % 3);
    spec.heterogeneous = i % 5 == 0;
    jobs.push_back(std::make_unique<Job>(spec));
    pending.push_back(jobs.back().get());
  }
  ctx.pending = pending;
  PendingIndex index;
  index.Refresh(ctx, false);
  EXPECT_EQ(JobsOf(index), OracleOrder(ctx.pending, false));
  // Stamped, then presented out of stamp order.
  for (auto& job : jobs) {
    job->StampQueueSeq();
  }
  std::reverse(pending.begin(), pending.end());
  index.Refresh(ctx, false);
  EXPECT_EQ(JobsOf(index), OracleOrder(ctx.pending, false));
  std::reverse(pending.begin(), pending.end());
  index.Refresh(ctx, false);
  EXPECT_EQ(JobsOf(index), OracleOrder(ctx.pending, false));
  index.Refresh(ctx, true);
  EXPECT_EQ(JobsOf(index), OracleOrder(ctx.pending, true));
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
    std::vector<Job*> pending;
    const int queued = static_cast<int>(rng.UniformInt(0, 40));
    for (int p = 0; p < queued; ++p) {
      Job* job = make_job(rng.NextBernoulli(0.15));
      job->StampQueueSeq();
      pending.push_back(job);
    }
    ctx.pending = pending;
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
