// Tests for the elastic-demand helpers (nominal worker accounting).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/elastic_util.h"

namespace lyra {
namespace {

std::unique_ptr<Job> MakeJob(std::int64_t id, int min_w, int max_w, int gpw = 2) {
  JobSpec spec;
  spec.id = JobId(id);
  spec.gpus_per_worker = gpw;
  spec.min_workers = min_w;
  spec.max_workers = max_w;
  spec.total_work = 1000.0;
  spec.fungible = true;
  return std::make_unique<Job>(spec);
}

TEST(ElasticUtil, PlacedWorkersOnTraining) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  auto job = MakeJob(0, 2, 4);
  EXPECT_EQ(PlacedWorkers(cluster, *job), 0);
  cluster.Place(JobId(0), ServerId(0), 4, false);
  EXPECT_EQ(PlacedWorkers(cluster, *job), 2);
  cluster.Place(JobId(0), ServerId(0), 2, true);
  EXPECT_EQ(PlacedWorkers(cluster, *job), 3);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster, *job), 1);
}

TEST(ElasticUtil, PlacedWorkersNormalizeT4) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  auto job = MakeJob(0, 2, 4);
  // 6 physical workers x 2 GPUs on T4 = 12 GPUs = 2 nominal workers.
  cluster.Place(JobId(0), ServerId(0), 8, false);
  cluster.Place(JobId(0), ServerId(1), 4, false);
  EXPECT_EQ(PlacedWorkers(cluster, *job), 2);
}

TEST(ElasticUtil, ShrinkFlexibleToTarget) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  auto job = MakeJob(0, 1, 4);
  cluster.Place(JobId(0), ServerId(0), 2, false);
  cluster.Place(JobId(0), ServerId(0), 4, true);
  cluster.Place(JobId(0), ServerId(1), 2, true);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster, *job), 3);
  const int released = ShrinkFlexibleTo(cluster, *job, 1);
  EXPECT_EQ(released, 4);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster, *job), 1);
  // Base demand untouched.
  EXPECT_EQ(cluster.FindPlacement(JobId(0))->base_gpus(), 2);
}

TEST(ElasticUtil, ShrinkToCurrentIsNoop) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  auto job = MakeJob(0, 1, 4);
  cluster.Place(JobId(0), ServerId(0), 2, true);
  EXPECT_EQ(ShrinkFlexibleTo(cluster, *job, 1), 0);
}

TEST(ElasticUtil, ShrinkUnplacedJobIsNoop) {
  ClusterState cluster;
  auto job = MakeJob(0, 1, 4);
  EXPECT_EQ(ShrinkFlexibleTo(cluster, *job, 0), 0);
}

TEST(ElasticUtil, ShrinkWalksPastAnEmptiedFlexibleOnlyShare) {
  ClusterState cluster;
  for (int s = 0; s < 4; ++s) {
    cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  }
  auto job = MakeJob(0, 1, 8);
  cluster.Place(JobId(0), ServerId(0), 2, false);
  cluster.Place(JobId(0), ServerId(1), 2, true);
  cluster.Place(JobId(0), ServerId(2), 4, true);
  cluster.Place(JobId(0), ServerId(3), 2, false);
  cluster.Place(JobId(0), ServerId(3), 2, true);
  ASSERT_EQ(PlacedFlexibleWorkers(cluster, *job), 4);

  // Server 1's flexible-only share empties and leaves the map; the walk goes
  // on to server 2 and stops there after one worker, leaving server 3 alone.
  EXPECT_EQ(ShrinkFlexibleTo(cluster, *job, 2), 4);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster, *job), 2);
  const JobPlacement* placement = cluster.FindPlacement(JobId(0));
  ASSERT_NE(placement, nullptr);
  const SortedIdMap<ServerId, GpuShare> expected = {
      {ServerId(0), GpuShare{2, 0}},
      {ServerId(2), GpuShare{0, 2}},
      {ServerId(3), GpuShare{2, 2}},
  };
  EXPECT_EQ(placement->shares, expected);
  EXPECT_EQ(placement->flexible_gpus(), 4);
  EXPECT_EQ(cluster.server(ServerId(1)).free_gpus(), 8);
  EXPECT_EQ(cluster.server(ServerId(2)).free_gpus(), 6);
}

TEST(ElasticUtil, HarvestTakesRoundRobinAcrossJobs) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  auto job_a = MakeJob(0, 1, 4);
  auto job_b = MakeJob(1, 1, 4);
  cluster.Place(JobId(0), ServerId(0), 2, false);
  cluster.Place(JobId(0), ServerId(0), 4, true);
  cluster.Place(JobId(1), ServerId(1), 2, false);
  cluster.Place(JobId(1), ServerId(1), 4, true);
  std::vector<Job*> running = {job_a.get(), job_b.get()};
  const int released = HarvestFlexibleGpus(cluster, running, 4);
  EXPECT_GE(released, 4);
  // Round-robin: both jobs lost one worker rather than one losing both.
  EXPECT_EQ(PlacedFlexibleWorkers(cluster, *job_a), 1);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster, *job_b), 1);
}

TEST(ElasticUtil, HarvestStopsWhenNothingFlexibleRemains) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  auto job = MakeJob(0, 2, 4);
  cluster.Place(JobId(0), ServerId(0), 4, false);
  std::vector<Job*> running = {job.get()};
  EXPECT_EQ(HarvestFlexibleGpus(cluster, running, 100), 0);
  EXPECT_EQ(cluster.FindPlacement(JobId(0))->total_gpus(), 4);
}

// Uncached worker credit: one walk of the shares per question.
int RecountCredit(const ClusterState& cluster, JobId job, int gpus_per_worker,
                  bool flexible_only) {
  const JobPlacement* placement = cluster.FindPlacement(job);
  if (placement == nullptr) {
    return 0;
  }
  double credit = 0.0;
  for (const auto& [server_id, share] : placement->shares) {
    const int gpus = flexible_only ? share.flexible_gpus : share.total();
    credit += static_cast<double>(gpus) / gpus_per_worker *
              GpuComputeFactor(cluster.server(server_id).gpu_type());
  }
  return static_cast<int>(std::floor(credit + 0.5));
}

void ExpectCreditsMatchRecount(const ClusterState& cluster,
                               const std::vector<std::unique_ptr<Job>>& jobs,
                               int step) {
  for (const auto& job : jobs) {
    const int gpw = job->spec().gpus_per_worker;
    ASSERT_EQ(PlacedWorkers(cluster, *job), RecountCredit(cluster, job->id(), gpw, false))
        << "step " << step << " job " << job->id().value << " gpw " << gpw;
    ASSERT_EQ(PlacedFlexibleWorkers(cluster, *job),
              RecountCredit(cluster, job->id(), gpw, true))
        << "step " << step << " job " << job->id().value << " gpw " << gpw;
  }
}

// PlacedWorkers/PlacedFlexibleWorkers cache their answer on the placement at
// its stamp. Random placement churn on V100 training and T4 on-loan servers
// must never leave a stale answer, including for one placement read under
// two gpus_per_worker values and after a Clone() diverges.
TEST(ElasticUtil, CachedCreditMatchesRecount) {
  Rng rng(2024);
  ClusterState cluster;
  std::vector<ServerId> servers;
  for (int s = 0; s < 4; ++s) {
    servers.push_back(cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
    servers.push_back(cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
  }
  // Jobs 0..5, plus a second view of each of jobs 0..2 with another
  // gpus_per_worker: the same placement, asked two ways.
  std::vector<std::unique_ptr<Job>> jobs;
  static constexpr int kGpusPerWorker[] = {1, 2, 4};
  for (int j = 0; j < 6; ++j) {
    jobs.push_back(MakeJob(j, 1, 8, kGpusPerWorker[j % 3]));
  }
  for (int j = 0; j < 3; ++j) {
    jobs.push_back(MakeJob(j, 1, 8, kGpusPerWorker[(j + 1) % 3]));
  }
  int removals = 0;
  for (int step = 0; step < 3000; ++step) {
    const JobId job(rng.UniformInt(0, 5));
    const ServerId server = servers[static_cast<std::size_t>(rng.UniformInt(0, 7))];
    const double op = rng.Uniform(0.0, 1.0);
    if (op < 0.5) {
      const int free = cluster.server(server).free_gpus();
      if (free > 0) {
        cluster.Place(job, server, static_cast<int>(rng.UniformInt(1, free)),
                      rng.NextBernoulli(0.6));
      }
    } else if (op < 0.8) {
      removals += cluster.RemoveFlexible(job, server, static_cast<int>(rng.UniformInt(1, 4)));
    } else if (op < 0.9) {
      removals += cluster.RemoveAllFlexible(job);
    } else {
      cluster.RemoveJob(job);
    }
    ExpectCreditsMatchRecount(cluster, jobs, step);
    if (step % 500 == 499) {
      // A clone carries the cache; mutating it must not touch the original.
      ClusterState clone = cluster.Clone();
      ExpectCreditsMatchRecount(clone, jobs, step);
      for (ServerId id : servers) {
        const int free = clone.server(id).free_gpus();
        if (free > 0) {
          clone.Place(JobId(rng.UniformInt(0, 5)), id, free, /*flexible=*/true);
        }
      }
      for (int j = 0; j < 6; ++j) {
        clone.RemoveFlexible(JobId(j), servers[static_cast<std::size_t>(rng.UniformInt(0, 7))], 1);
      }
      ExpectCreditsMatchRecount(clone, jobs, step);
      ExpectCreditsMatchRecount(cluster, jobs, step);
    }
  }
  cluster.AuditInvariants();
  EXPECT_GT(removals, 500);
}

}  // namespace
}  // namespace lyra
