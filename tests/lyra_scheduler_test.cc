// Scheduler-level tests for LyraScheduler: option wiring, epoch behaviour,
// and invariants of a full schedule pass on randomized cluster states.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

class LyraSchedulerTest : public ::testing::Test {
 protected:
  void AddServers(int training, int loaned) {
    for (int i = 0; i < training; ++i) {
      cluster_.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
    }
    for (int i = 0; i < loaned; ++i) {
      cluster_.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
    }
  }

  Job* AddPending(std::int64_t id, double work, int min_w, int max_w, int gpw = 2,
                  bool fungible = true) {
    JobSpec spec;
    spec.id = JobId(id);
    spec.gpus_per_worker = gpw;
    spec.min_workers = min_w;
    spec.max_workers = max_w;
    spec.total_work = work;
    spec.fungible = fungible;
    jobs_.push_back(std::make_unique<Job>(spec));
    pending_.push_back(jobs_.back().get());
    return jobs_.back().get();
  }

  void Run(LyraScheduler& scheduler) {
    SchedulerContext ctx;
    ctx.cluster = &cluster_;
    ctx.pending = pending_;
    ctx.running = running_;
    ctx.throughput = &model_;
    scheduler.Schedule(ctx);
    // Promote placed jobs to running for follow-up epochs.
    std::vector<Job*> still_pending;
    for (Job* job : pending_) {
      if (cluster_.FindPlacement(job->id()) != nullptr) {
        job->Start(0.0, 1.0, PlacedWorkers(cluster_, *job));
        running_.push_back(job);
      } else {
        still_pending.push_back(job);
      }
    }
    pending_ = still_pending;
  }

  ClusterState cluster_;
  ThroughputModel model_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<Job*> pending_;
  std::vector<Job*> running_;
};

TEST_F(LyraSchedulerTest, NamesReflectTunedOption) {
  LyraScheduler plain;
  EXPECT_STREQ(plain.name(), "Lyra");
  EXPECT_FALSE(plain.tunes_hyperparameters());
  LyraSchedulerOptions options;
  options.tuned_jobs = true;
  LyraScheduler tuned(options);
  EXPECT_STREQ(tuned.name(), "Lyra+TunedJobs");
  EXPECT_TRUE(tuned.tunes_hyperparameters());
}

TEST_F(LyraSchedulerTest, SingleEpochLaunchesAndScalesOut) {
  AddServers(2, 0);
  AddPending(0, 1000.0, 2, 4);
  LyraScheduler scheduler;
  Run(scheduler);
  EXPECT_EQ(PlacedWorkers(cluster_, *jobs_[0]), 4);  // base 2 + flexible 2
  EXPECT_EQ(scheduler.last_stats().launched, 1);
  EXPECT_EQ(scheduler.last_stats().scale_outs, 2);
}

TEST_F(LyraSchedulerTest, DisableElasticScalingStopsAtBase) {
  AddServers(2, 0);
  AddPending(0, 1000.0, 2, 4);
  LyraSchedulerOptions options;
  options.disable_elastic_scaling = true;
  LyraScheduler scheduler(options);
  Run(scheduler);
  EXPECT_EQ(PlacedWorkers(cluster_, *jobs_[0]), 2);
}

TEST_F(LyraSchedulerTest, DisableElasticScalingShrinksExistingFlexible) {
  AddServers(1, 0);
  Job* job = AddPending(0, 1000.0, 1, 4);
  LyraScheduler grow;
  Run(grow);
  ASSERT_GT(PlacedFlexibleWorkers(cluster_, *job), 0);

  LyraSchedulerOptions options;
  options.disable_elastic_scaling = true;
  LyraScheduler shrink(options);
  Run(shrink);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster_, *job), 0);
  EXPECT_EQ(PlacedWorkers(cluster_, *job), 1);
}

TEST_F(LyraSchedulerTest, SecondEpochRebalancesTowardShorterJobs) {
  AddServers(1, 0);
  // Epoch 1: a lone elastic job absorbs the server.
  Job* hog = AddPending(0, 100000.0, 1, 4);
  LyraScheduler scheduler;
  Run(scheduler);
  ASSERT_EQ(PlacedWorkers(cluster_, *hog), 4);
  // Epoch 2: an inelastic job arrives; the base demand outranks the hog's
  // flexible workers, which are harvested.
  AddPending(1, 100.0, 3, 3, 2);
  Run(scheduler);
  EXPECT_NE(cluster_.FindPlacement(JobId(1)), nullptr);
  EXPECT_LT(PlacedWorkers(cluster_, *hog), 4);
  EXPECT_GE(PlacedWorkers(cluster_, *hog), 1);  // base is untouchable
}

TEST_F(LyraSchedulerTest, InformationAgnosticVariantStillSchedules) {
  AddServers(2, 1);
  AddPending(0, 1000.0, 2, 4);
  AddPending(1, 500.0, 1, 1, 4, false);
  LyraSchedulerOptions options;
  options.information_agnostic = true;
  LyraScheduler scheduler(options);
  Run(scheduler);
  EXPECT_NE(cluster_.FindPlacement(JobId(0)), nullptr);
  EXPECT_NE(cluster_.FindPlacement(JobId(1)), nullptr);
}

TEST_F(LyraSchedulerTest, GreedyPhase2VariantStillSchedules) {
  AddServers(2, 0);
  AddPending(0, 1000.0, 2, 4);
  LyraSchedulerOptions options;
  options.greedy_phase2 = true;
  LyraScheduler scheduler(options);
  Run(scheduler);
  EXPECT_EQ(PlacedWorkers(cluster_, *jobs_[0]), 4);
}

TEST_F(LyraSchedulerTest, ElasticJobLandsOnLoanedServersWhenAvailable) {
  AddServers(2, 2);
  AddPending(0, 1000.0, 1, 2);
  LyraScheduler scheduler;
  Run(scheduler);
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  ASSERT_NE(p, nullptr);
  for (const auto& [server_id, share] : p->shares) {
    EXPECT_EQ(cluster_.server(server_id).pool(), ServerPool::kOnLoan);
  }
}

// Property: a full epoch never overcommits any server, never exceeds a job's
// max workers, and never mixes GPU types within a non-heterogeneous job.
// (Base/flexible separation on loaned servers is a best-effort preference —
// it falls back to mixing when the flexible group is full — so it is checked
// in the targeted placement tests, not here.)
class LyraEpochProperty : public ::testing::TestWithParam<int> {};

TEST_P(LyraEpochProperty, InvariantsHoldOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  ClusterState cluster;
  const int training = static_cast<int>(rng.UniformInt(2, 8));
  const int loaned = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < training; ++i) {
    cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  }
  for (int i = 0; i < loaned; ++i) {
    cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  }

  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<Job*> pending;
  SchedulerContext ctx;
  ctx.cluster = &cluster;
  ThroughputModel model;
  ctx.throughput = &model;
  const int num_jobs = static_cast<int>(rng.UniformInt(1, 12));
  for (int j = 0; j < num_jobs; ++j) {
    JobSpec spec;
    spec.id = JobId(j);
    spec.gpus_per_worker = static_cast<int>(rng.UniformInt(1, 4));
    spec.min_workers = static_cast<int>(rng.UniformInt(1, 4));
    spec.max_workers = spec.min_workers * (rng.NextBernoulli(0.5) ? 2 : 1);
    spec.total_work = rng.Uniform(100.0, 10000.0);
    spec.fungible = rng.NextBernoulli(0.5);
    spec.heterogeneous = rng.NextBernoulli(0.1);
    jobs.push_back(std::make_unique<Job>(spec));
    pending.push_back(jobs.back().get());
  }
  ctx.pending = pending;

  LyraScheduler scheduler;
  scheduler.Schedule(ctx);

  for (const Server& server : cluster.servers()) {
    ASSERT_LE(server.used_gpus(), server.num_gpus());
    ASSERT_GE(server.used_gpus(), 0);
  }
  for (const auto& job : jobs) {
    const JobPlacement* p = cluster.FindPlacement(job->id());
    if (p == nullptr) {
      continue;
    }
    EXPECT_LE(PlacedWorkers(cluster, *job), job->spec().max_workers);
    EXPECT_GE(PlacedWorkers(cluster, *job), job->spec().min_workers);
    // Non-heterogeneous jobs never span GPU types.
    if (!job->spec().heterogeneous) {
      GpuType type;
      EXPECT_TRUE(CurrentGpuType(cluster, job->id(), &type));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LyraEpochProperty, ::testing::Range(1, 21));

}  // namespace
}  // namespace lyra
