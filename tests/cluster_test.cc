// Unit tests for the cluster model: Server and ClusterState invariants.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

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
  EXPECT_TRUE(s.HasBaseGpus());
  EXPECT_FALSE(s.HasFlexibleGpus());
  s.Place(JobId(2), 2, /*flexible=*/true);
  EXPECT_EQ(s.used_gpus(), 6);
  EXPECT_EQ(s.flexible_gpus(), 2);
  EXPECT_TRUE(s.HasFlexibleGpus());
  s.RemoveJob(JobId(1));
  EXPECT_EQ(s.used_gpus(), 2);
  EXPECT_FALSE(s.HasBaseGpus());
  EXPECT_TRUE(s.HasFlexibleGpus());
  EXPECT_EQ(s.RemoveFlexible(JobId(2), 1), 1);
  EXPECT_EQ(s.flexible_gpus(), 1);
  s.RemoveJob(JobId(2));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.flexible_gpus(), 0);
  EXPECT_FALSE(s.HasFlexibleGpus());
  EXPECT_FALSE(s.HasBaseGpus());
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

// The ordered (id, share) entries of a sorted list or a std::map.
template <typename Map>
std::vector<std::pair<std::int64_t, GpuShare>> Entries(const Map& map) {
  std::vector<std::pair<std::int64_t, GpuShare>> out;
  for (const auto& [id, share] : map) {
    out.emplace_back(id.value, share);
  }
  return out;
}

// Both sides of the placement index walk in ascending id, exactly like a
// std::map oracle kept beside them, through out-of-order inserts, a grown
// share, a partial flexible removal and a job removal.
TEST_F(ClusterStateTest, ShareListsStayAscendingLikeAMap) {
  std::map<ServerId, GpuShare> job_oracle;  // job 5's shares
  std::map<ServerId, std::map<JobId, GpuShare>> server_oracle;
  const JobId job(5);
  auto place = [&](JobId j, ServerId server, int gpus, bool flexible) {
    cluster_.Place(j, server, gpus, flexible);
    GpuShare& share = server_oracle[server][j];
    (flexible ? share.flexible_gpus : share.base_gpus) += gpus;
    if (j == job) {
      job_oracle[server] = share;
    }
  };
  auto expect_matches = [&](const char* step) {
    SCOPED_TRACE(step);
    cluster_.AuditInvariants();
    const JobPlacement* p = cluster_.FindPlacement(job);
    if (job_oracle.empty()) {
      EXPECT_EQ(p, nullptr);
    } else {
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(Entries(p->shares), Entries(job_oracle));
    }
    for (const Server& srv : cluster_.servers()) {
      EXPECT_EQ(Entries(srv.jobs()), Entries(server_oracle[srv.id()])) << "server "
                                                                       << srv.id().value;
    }
  };

  // Servers 3, 0, 6, 1 in that order; on server 0, jobs 9, 5 and 2.
  place(JobId(9), training_[0], 1, false);
  place(job, training_[3], 2, false);
  place(job, training_[0], 2, false);
  place(job, inference_[2], 3, true);
  place(job, training_[1], 1, true);
  place(JobId(2), training_[0], 1, true);
  expect_matches("out-of-order places");

  place(job, training_[0], 2, true);  // grows an existing share
  expect_matches("grown share");

  EXPECT_EQ(cluster_.RemoveFlexible(job, training_[0], 1), 1);
  job_oracle[training_[0]].flexible_gpus -= 1;
  server_oracle[training_[0]][job] = job_oracle[training_[0]];
  EXPECT_EQ(cluster_.RemoveFlexible(job, training_[1], 1), 1);  // empties the share
  job_oracle.erase(training_[1]);
  server_oracle[training_[1]].erase(job);
  expect_matches("partial flexible removal");

  cluster_.RemoveJob(job);
  for (const auto& [server, share] : job_oracle) {
    server_oracle[server].erase(job);
  }
  job_oracle.clear();
  expect_matches("job removal");
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

// FindPlacement answers from an index by job id, kept beside the map that
// owns the placements. Under random churn (ids placed, erased and placed
// again, sparse ids beyond any placed so far), through clones and a move,
// every id must read exactly the map's placement, or null when the map has
// none: an index slot left set after an erase, or pointing into another
// cluster's map, fails here.
void ExpectIndexMatchesMap(const ClusterState& cluster, std::int64_t max_id) {
  for (std::int64_t id = -1; id <= max_id + 2; ++id) {
    const auto it = cluster.placements().find(JobId(id));
    const JobPlacement* want = it == cluster.placements().end() ? nullptr : &it->second;
    ASSERT_EQ(cluster.FindPlacement(JobId(id)), want) << "job " << id;
  }
  cluster.AuditInvariants();
}

TEST(ClusterPlacementIndex, MatchesTheMapUnderChurnClonesAndMoves) {
  Rng rng(4141);
  ClusterState cluster;
  std::vector<ServerId> servers;
  for (int i = 0; i < 12; ++i) {
    servers.push_back(cluster.AddServer(
        i < 8 ? GpuType::kTrainingV100 : GpuType::kInferenceT4, 8,
        i < 8 ? ServerPool::kTraining : ServerPool::kOnLoan));
  }
  constexpr std::int64_t kMaxId = 300;
  for (int step = 0; step < 4000; ++step) {
    // Mostly a small set of ids, so erased ids are placed again; now and
    // then a sparse one far above the rest.
    const JobId job(rng.NextBernoulli(0.05) ? rng.UniformInt(0, kMaxId)
                                            : rng.UniformInt(0, 24));
    const ServerId server = servers[static_cast<std::size_t>(rng.UniformInt(0, 11))];
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        const int free = cluster.server(server).free_gpus();
        if (free > 0) {
          cluster.Place(job, server, static_cast<int>(rng.UniformInt(1, free)),
                        rng.NextBernoulli(0.5));
        }
        break;
      }
      case 1:
        cluster.RemoveJob(job);
        break;
      case 2:
        cluster.RemoveFlexible(job, server, static_cast<int>(rng.UniformInt(1, 8)));
        break;
      default:
        cluster.RemoveAllFlexible(job);
        break;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesMap(cluster, kMaxId));

    if (step % 250 == 0 && !cluster.placements().empty()) {
      // A clone indexes its own map; emptying it leaves the original whole.
      ClusterState copy = cluster.Clone();
      ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesMap(copy, kMaxId));
      for (const auto& [id, placement] : cluster.placements()) {
        ASSERT_NE(copy.FindPlacement(id), &placement);
        ASSERT_EQ(copy.FindPlacement(id)->shares, placement.shares);
      }
      std::vector<JobId> placed;
      for (const auto& [id, placement] : copy.placements()) {
        placed.push_back(id);
      }
      for (const JobId id : placed) {
        copy.RemoveJob(id);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesMap(copy, kMaxId));
      ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesMap(cluster, kMaxId));
      for (const JobId id : placed) {
        ASSERT_NE(cluster.FindPlacement(id), nullptr);
      }
    }
    if (step % 1000 == 999) {
      // The map's nodes move with it, and the index with them.
      ClusterState moved = std::move(cluster);
      cluster = std::move(moved);
      ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesMap(cluster, kMaxId));
    }
  }
}

TEST(ChangeLog, ListsJobsWhosePlacementMovedOrVanished) {
  ClusterState cluster;
  const ServerId a = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId b = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.Place(JobId(1), a, 2, false);
  EXPECT_TRUE(cluster.changed().empty());  // unarmed: nothing kept

  cluster.ArmChangeLog();
  cluster.Place(JobId(2), a, 2, false);  // a new placement
  cluster.Place(JobId(2), b, 2, true);   // moved again: not listed twice
  cluster.Place(JobId(1), b, 1, true);   // placed before arming, moved now
  cluster.Place(JobId(3), b, 1, false);
  cluster.RemoveJob(JobId(3));           // erased after it moved: listed once
  EXPECT_EQ(cluster.changed(), (std::vector<JobId>{JobId(2), JobId(1), JobId(3)}));
  EXPECT_EQ(cluster.FindPlacement(JobId(3)), nullptr);
  cluster.ClearChanged();
  EXPECT_TRUE(cluster.changed().empty());

  EXPECT_EQ(cluster.RemoveFlexible(JobId(2), a, 2), 0);  // nothing moved
  EXPECT_TRUE(cluster.changed().empty());
  cluster.RemoveFlexible(JobId(2), b, 2);  // a scale-in draws a new stamp
  cluster.RemoveFlexible(JobId(1), b, 1);  // a share goes, the placement stays
  cluster.RemoveJob(JobId(1));             // already listed
  cluster.Place(JobId(1), a, 1, false);    // erased and placed again: twice
  cluster.Place(JobId(4), b, 2, true);
  EXPECT_EQ(cluster.changed(),
            (std::vector<JobId>{JobId(2), JobId(1), JobId(1), JobId(4)}));
  cluster.ClearChanged();

  cluster.RemoveFlexible(JobId(4), b, 2);  // its only share: the placement goes
  EXPECT_EQ(cluster.FindPlacement(JobId(4)), nullptr);
  EXPECT_EQ(cluster.changed(), (std::vector<JobId>{JobId(4)}));
}

}  // namespace
}  // namespace lyra
