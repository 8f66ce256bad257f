// Unit tests for the cluster model: Server and ClusterState invariants.
#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"

namespace lyra {
namespace {

TEST(Gpu, ComputeFactors) {
  EXPECT_DOUBLE_EQ(GpuComputeFactor(GpuType::kTrainingV100), 1.0);
  EXPECT_DOUBLE_EQ(GpuComputeFactor(GpuType::kInferenceT4), 1.0 / 3.0);
}

TEST(Server, PlaceAndRemoveTracksUsage) {
  Server s(ServerId(0), GpuType::kTrainingV100, 8, ServerPool::kTraining);
  EXPECT_TRUE(s.idle());
  s.Place(JobId(1), 4, /*flexible=*/false);
  EXPECT_EQ(s.used_gpus(), 4);
  EXPECT_EQ(s.free_gpus(), 4);
  EXPECT_EQ(s.num_jobs(), 1);
  s.Place(JobId(2), 2, /*flexible=*/true);
  EXPECT_EQ(s.used_gpus(), 6);
  EXPECT_TRUE(s.HasFlexibleGpus());
  s.RemoveJob(JobId(1));
  EXPECT_EQ(s.used_gpus(), 2);
  s.RemoveJob(JobId(2));
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.HasFlexibleGpus());
}

TEST(Server, JobGpusSumsBaseAndFlexible) {
  Server s(ServerId(0), GpuType::kTrainingV100, 8, ServerPool::kTraining);
  s.Place(JobId(1), 2, false);
  s.Place(JobId(1), 4, true);
  EXPECT_EQ(s.JobGpus(JobId(1)), 6);
  EXPECT_EQ(s.JobGpus(JobId(9)), 0);
  EXPECT_EQ(s.num_jobs(), 1);
}

TEST(Server, RemoveFlexiblePartial) {
  Server s(ServerId(0), GpuType::kTrainingV100, 8, ServerPool::kTraining);
  s.Place(JobId(1), 2, false);
  s.Place(JobId(1), 4, true);
  EXPECT_EQ(s.RemoveFlexible(JobId(1), 2), 2);
  EXPECT_EQ(s.used_gpus(), 4);
  // Removing more than remaining flexible caps at what exists.
  EXPECT_EQ(s.RemoveFlexible(JobId(1), 10), 2);
  EXPECT_EQ(s.used_gpus(), 2);
  EXPECT_EQ(s.RemoveFlexible(JobId(1), 1), 0);
}

TEST(Server, RemoveFlexibleErasesEmptyEntry) {
  Server s(ServerId(0), GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  s.Place(JobId(1), 4, true);
  EXPECT_EQ(s.RemoveFlexible(JobId(1), 4), 4);
  EXPECT_EQ(s.num_jobs(), 0);
  EXPECT_TRUE(s.idle());
}

class ClusterStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      training_.push_back(cluster_.AddServer(GpuType::kTrainingV100, 8,
                                             ServerPool::kTraining));
    }
    for (int i = 0; i < 3; ++i) {
      inference_.push_back(cluster_.AddServer(GpuType::kInferenceT4, 8,
                                              ServerPool::kInference));
    }
  }

  ClusterState cluster_;
  std::vector<ServerId> training_;
  std::vector<ServerId> inference_;
};

TEST_F(ClusterStateTest, PoolsAndCapacities) {
  EXPECT_EQ(cluster_.num_servers(), 7);
  EXPECT_EQ(cluster_.TotalGpus(ServerPool::kTraining), 32);
  EXPECT_EQ(cluster_.TotalGpus(ServerPool::kInference), 24);
  EXPECT_EQ(cluster_.TotalGpus(ServerPool::kOnLoan), 0);
  EXPECT_EQ(cluster_.TrainingSideTotalGpus(), 32);
  EXPECT_EQ(cluster_.ServersInPool(ServerPool::kTraining).size(), 4u);
}

TEST_F(ClusterStateTest, PlaceKeepsBothIndexesInSync) {
  cluster_.Place(JobId(1), training_[0], 4, false);
  cluster_.Place(JobId(1), training_[1], 4, false);
  const JobPlacement* p = cluster_.FindPlacement(JobId(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->total_gpus(), 8);
  EXPECT_EQ(p->num_servers(), 2);
  EXPECT_EQ(cluster_.NumServersHosting(JobId(1)), 2);
  EXPECT_EQ(cluster_.server(training_[0]).JobGpus(JobId(1)), 4);
  EXPECT_EQ(cluster_.UsedGpus(ServerPool::kTraining), 8);
}

TEST_F(ClusterStateTest, RemoveJobClearsEverywhere) {
  cluster_.Place(JobId(1), training_[0], 4, false);
  cluster_.Place(JobId(1), training_[1], 2, true);
  cluster_.RemoveJob(JobId(1));
  EXPECT_EQ(cluster_.FindPlacement(JobId(1)), nullptr);
  EXPECT_EQ(cluster_.UsedGpus(ServerPool::kTraining), 0);
  EXPECT_TRUE(cluster_.server(training_[0]).idle());
}

TEST_F(ClusterStateTest, RemoveJobWithoutPlacementIsNoop) {
  cluster_.RemoveJob(JobId(99));
  EXPECT_EQ(cluster_.UsedGpus(ServerPool::kTraining), 0);
}

TEST_F(ClusterStateTest, RemoveAllFlexibleKeepsBase) {
  cluster_.Place(JobId(1), training_[0], 4, false);
  cluster_.Place(JobId(1), training_[1], 2, true);
  cluster_.Place(JobId(1), training_[2], 2, true);
  EXPECT_EQ(cluster_.RemoveAllFlexible(JobId(1)), 4);
  const JobPlacement* p = cluster_.FindPlacement(JobId(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->total_gpus(), 4);
  EXPECT_EQ(p->flexible_gpus(), 0);
  EXPECT_EQ(p->base_gpus(), 4);
}

TEST_F(ClusterStateTest, RemoveAllFlexibleOnFlexOnlyJobRemovesPlacement) {
  cluster_.Place(JobId(1), training_[0], 4, true);
  EXPECT_EQ(cluster_.RemoveAllFlexible(JobId(1)), 4);
  EXPECT_EQ(cluster_.FindPlacement(JobId(1)), nullptr);
}

TEST_F(ClusterStateTest, LoanAndReturnLifecycle) {
  EXPECT_TRUE(cluster_.LoanServer(inference_[0]).ok());
  EXPECT_EQ(cluster_.server(inference_[0]).pool(), ServerPool::kOnLoan);
  EXPECT_EQ(cluster_.ServersInPool(ServerPool::kOnLoan).size(), 1u);
  EXPECT_EQ(cluster_.TrainingVisibleServers().size(), 5u);
  EXPECT_TRUE(cluster_.ReturnServer(inference_[0]).ok());
  EXPECT_EQ(cluster_.server(inference_[0]).pool(), ServerPool::kInference);
}

TEST_F(ClusterStateTest, CannotLoanTrainingServer) {
  EXPECT_FALSE(cluster_.LoanServer(training_[0]).ok());
}

TEST_F(ClusterStateTest, CannotLoanTwice) {
  EXPECT_TRUE(cluster_.LoanServer(inference_[0]).ok());
  EXPECT_FALSE(cluster_.LoanServer(inference_[0]).ok());
}

TEST_F(ClusterStateTest, CannotReturnBusyServer) {
  ASSERT_TRUE(cluster_.LoanServer(inference_[0]).ok());
  cluster_.Place(JobId(1), inference_[0], 2, false);
  EXPECT_FALSE(cluster_.ReturnServer(inference_[0]).ok());
  cluster_.RemoveJob(JobId(1));
  EXPECT_TRUE(cluster_.ReturnServer(inference_[0]).ok());
}

TEST_F(ClusterStateTest, CannotReturnNonLoanedServer) {
  EXPECT_FALSE(cluster_.ReturnServer(inference_[0]).ok());
  EXPECT_FALSE(cluster_.ReturnServer(training_[0]).ok());
}

TEST_F(ClusterStateTest, NormalizedFreeCapacityWeighsT4) {
  ASSERT_TRUE(cluster_.LoanServer(inference_[0]).ok());
  // 32 free V100 + 8 T4 at 1/3.
  EXPECT_NEAR(cluster_.TrainingSideFreeNormalized(), 32.0 + 8.0 / 3.0, 1e-9);
}

TEST_F(ClusterStateTest, CloneIsDeepAndIndependent) {
  cluster_.Place(JobId(1), training_[0], 4, false);
  ClusterState copy = cluster_.Clone();
  copy.RemoveJob(JobId(1));
  EXPECT_EQ(copy.FindPlacement(JobId(1)), nullptr);
  EXPECT_NE(cluster_.FindPlacement(JobId(1)), nullptr);
  EXPECT_EQ(cluster_.UsedGpus(ServerPool::kTraining), 4);
}

TEST_F(ClusterStateTest, PartialFlexibleRemoveUpdatesJobIndex) {
  cluster_.Place(JobId(1), training_[0], 2, false);
  cluster_.Place(JobId(1), training_[0], 4, true);
  EXPECT_EQ(cluster_.RemoveFlexible(JobId(1), training_[0], 2), 2);
  const JobPlacement* p = cluster_.FindPlacement(JobId(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flexible_gpus(), 2);
  EXPECT_EQ(p->base_gpus(), 2);
}

// Randomized consistency fuzz: apply random place/remove sequences and check
// the server-side and job-side views always agree.
TEST(ClusterStateFuzz, ViewsStayConsistentUnderRandomOperations) {
  Rng rng(2024);
  ClusterState cluster;
  std::vector<ServerId> servers;
  for (int i = 0; i < 10; ++i) {
    servers.push_back(cluster.AddServer(
        i < 6 ? GpuType::kTrainingV100 : GpuType::kInferenceT4, 8,
        i < 6 ? ServerPool::kTraining : ServerPool::kOnLoan));
  }
  const int kJobs = 20;
  for (int step = 0; step < 3000; ++step) {
    const JobId job(rng.UniformInt(0, kJobs - 1));
    const ServerId server = servers[static_cast<std::size_t>(rng.UniformInt(0, 9))];
    const int action = static_cast<int>(rng.UniformInt(0, 3));
    if (action == 0) {
      const int free = cluster.server(server).free_gpus();
      if (free > 0) {
        cluster.Place(job, server, static_cast<int>(rng.UniformInt(1, free)),
                      rng.NextBernoulli(0.5));
      }
    } else if (action == 1) {
      cluster.RemoveJob(job);
    } else if (action == 2) {
      cluster.RemoveFlexible(job, server, static_cast<int>(rng.UniformInt(1, 8)));
    } else {
      cluster.RemoveAllFlexible(job);
    }

    // Invariant: per-server used == sum of shares; job index mirrors servers.
    int total_used = 0;
    for (const Server& s : cluster.servers()) {
      int server_sum = 0;
      for (const auto& [j, share] : s.jobs()) {
        server_sum += share.total();
        const JobPlacement* p = cluster.FindPlacement(j);
        ASSERT_NE(p, nullptr);
        auto it = p->shares.find(s.id());
        ASSERT_NE(it, p->shares.end());
        ASSERT_EQ(it->second.total(), share.total());
      }
      ASSERT_EQ(server_sum, s.used_gpus());
      ASSERT_LE(s.used_gpus(), s.num_gpus());
      ASSERT_GE(s.used_gpus(), 0);
      total_used += server_sum;
    }
    int placement_sum = 0;
    for (const auto& [j, p] : cluster.placements()) {
      ASSERT_GT(p.total_gpus(), 0);
      placement_sum += p.total_gpus();
    }
    ASSERT_EQ(placement_sum, total_used);
  }
}

TEST(NewPlacementLog, ListsJobsThatGainedAPlacement) {
  ClusterState cluster;
  const ServerId a = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId b = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.Place(JobId(1), a, 2, false);
  EXPECT_TRUE(cluster.new_placements().empty());  // unarmed: nothing kept

  cluster.ArmNewPlacementLog();
  cluster.Place(JobId(2), a, 2, false);
  cluster.Place(JobId(2), b, 2, true);   // already placed: not listed again
  cluster.Place(JobId(1), b, 1, true);   // placed before: not new
  {
    ClusterTransaction txn(cluster);
    cluster.RemoveJob(JobId(1));
    cluster.Place(JobId(3), b, 1, false);
    txn.Rollback();  // job 1 regains its placement, job 3 loses its own
  }
  cluster.RemoveJob(JobId(2));
  cluster.Place(JobId(2), a, 1, false);
  EXPECT_EQ(cluster.new_placements(),
            (std::vector<JobId>{JobId(2), JobId(3), JobId(1), JobId(2)}));
  EXPECT_EQ(cluster.FindPlacement(JobId(3)), nullptr);
  cluster.ClearNewPlacements();
  EXPECT_TRUE(cluster.new_placements().empty());
}

}  // namespace
}  // namespace lyra
