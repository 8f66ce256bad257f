// Tests for server reclaiming (§4): preemption-cost definitions, the greedy
// heuristic, the Random/SCF/Optimal comparators, and the worked example of
// Fig 5 / Table 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/lyra/reclaim.h"

namespace lyra {
namespace {

// Builds the six-server example of Fig 5 / Table 1 on on-loan servers:
//   job a: 4 GPUs on s1 + 4 on s2        job c: 8 on s4 + 2 on s5
//   job b: 8 GPUs on s3                  job d: 2 on s5 + 8 on s6
struct Fig5Cluster {
  ClusterState cluster;
  std::vector<ServerId> servers;  // s1..s6 at indices 0..5
  JobId a{0}, b{1}, c{2}, d{3};

  Fig5Cluster() {
    for (int i = 0; i < 6; ++i) {
      servers.push_back(
          cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
    }
    cluster.Place(a, servers[0], 4, false);
    cluster.Place(a, servers[1], 4, false);
    cluster.Place(b, servers[2], 8, false);
    cluster.Place(c, servers[3], 8, false);
    cluster.Place(c, servers[4], 2, false);
    cluster.Place(d, servers[4], 2, false);
    cluster.Place(d, servers[5], 8, false);
  }
};

TEST(PreemptionCost, Table1ServerFractions) {
  Fig5Cluster f;
  // Table 1, last column: 0.5, 0.5, 1, 0.5, 1, 0.5.
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(f.cluster, f.servers[0]), 0.5);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(f.cluster, f.servers[1]), 0.5);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(f.cluster, f.servers[2]), 1.0);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(f.cluster, f.servers[3]), 0.5);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(f.cluster, f.servers[4]), 1.0);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(f.cluster, f.servers[5]), 0.5);
}

TEST(PreemptionCost, Table1JobCounts) {
  Fig5Cluster f;
  // Table 1, second column: 1, 1, 1, 1, 2, 1.
  EXPECT_DOUBLE_EQ(ServerJobCountCost(f.cluster, f.servers[0]), 1.0);
  EXPECT_DOUBLE_EQ(ServerJobCountCost(f.cluster, f.servers[4]), 2.0);
}

TEST(PreemptionCost, Table1GpuFractions) {
  Fig5Cluster f;
  // Table 1, third column: 0.5, 0.5, 1, 0.8, 0.4, 0.8.
  EXPECT_DOUBLE_EQ(ServerGpuFractionCost(f.cluster, f.servers[0]), 0.5);
  EXPECT_DOUBLE_EQ(ServerGpuFractionCost(f.cluster, f.servers[3]), 0.8);
  EXPECT_NEAR(ServerGpuFractionCost(f.cluster, f.servers[4]), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(ServerGpuFractionCost(f.cluster, f.servers[5]), 0.8);
}

TEST(PreemptionCost, FlexibleOnlyJobsAreFree) {
  ClusterState cluster;
  const ServerId s = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  cluster.Place(JobId(1), s, 4, /*flexible=*/true);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(cluster, s), 0.0);
  cluster.Place(JobId(2), s, 2, /*flexible=*/false);
  EXPECT_DOUBLE_EQ(ServerPreemptionCost(cluster, s), 1.0);
}

TEST(LyraReclaim, Fig5ExampleReclaimsTwoServersWithOnePreemption) {
  Fig5Cluster f;
  LyraReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(f.cluster, 2);
  // Optimal: vacate s1 and s2, preempting only job a.
  EXPECT_EQ(result.preempted.size(), 1u);
  EXPECT_EQ(result.preempted[0], f.a);
  EXPECT_EQ(result.vacated.size(), 2u);
  EXPECT_EQ(result.collateral_gpus, 0);
}

TEST(OptimalReclaim, Fig5ExampleMatches) {
  Fig5Cluster f;
  OptimalReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(f.cluster, 2);
  EXPECT_EQ(result.preempted.size(), 1u);
  EXPECT_EQ(result.preempted[0], f.a);
}

TEST(LyraReclaim, ReclaimOneServerPicksCheapest) {
  Fig5Cluster f;
  LyraReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(f.cluster, 1);
  ASSERT_EQ(result.preempted.size(), 1u);
  // Any of the 0.5-cost servers is acceptable; never job b (cost 1) or s5.
  EXPECT_NE(result.preempted[0], f.b);
}

TEST(LyraReclaim, ScalesInFlexibleOnlyServersFirstWithoutPreemption) {
  ClusterState cluster;
  std::vector<ServerId> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
  }
  // s0: flexible-only workers of job 1; s1/s2: base workers of jobs 2/3.
  cluster.Place(JobId(1), servers[0], 4, true);
  cluster.Place(JobId(1), servers[1], 2, false);
  cluster.Place(JobId(2), servers[1], 4, false);
  cluster.Place(JobId(3), servers[2], 8, false);

  LyraReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(cluster, 1);
  EXPECT_TRUE(result.preempted.empty());
  ASSERT_EQ(result.scaled_in.size(), 1u);
  EXPECT_EQ(result.scaled_in[0], JobId(1));
  ASSERT_EQ(result.vacated.size(), 1u);
  EXPECT_EQ(result.vacated[0], servers[0]);
  // Job 1 keeps its base workers on s1.
  EXPECT_EQ(cluster.FindPlacement(JobId(1))->total_gpus(), 2);
}

TEST(LyraReclaim, CollateralAccountsGpusOutsideVacatedSet) {
  ClusterState cluster;
  const ServerId loaned = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  const ServerId training = cluster.AddServer(GpuType::kTrainingV100, 8,
                                              ServerPool::kTraining);
  cluster.Place(JobId(1), loaned, 4, false);
  cluster.Place(JobId(1), training, 4, false);

  LyraReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(cluster, 1);
  ASSERT_EQ(result.preempted.size(), 1u);
  EXPECT_EQ(result.collateral_gpus, 4);  // the training-side GPUs were wasted
}

TEST(LyraReclaim, StopsWhenNothingLeftToVacate) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  LyraReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(cluster, 5);
  EXPECT_TRUE(result.preempted.empty());
  EXPECT_TRUE(result.vacated.empty());  // server was already idle
}

TEST(ScfReclaim, PicksSmallestJobCountFirst) {
  ClusterState cluster;
  const ServerId s0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  const ServerId s1 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  // s0 hosts 3 jobs, s1 hosts 1.
  cluster.Place(JobId(1), s0, 2, false);
  cluster.Place(JobId(2), s0, 2, false);
  cluster.Place(JobId(3), s0, 2, false);
  cluster.Place(JobId(4), s1, 8, false);

  ScfReclaimPolicy policy;
  const ReclaimResult result = policy.Reclaim(cluster, 1);
  ASSERT_EQ(result.vacated.size(), 1u);
  EXPECT_EQ(result.vacated[0], s1);
  EXPECT_EQ(result.preempted.size(), 1u);
}

TEST(RandomReclaim, VacatesRequestedCount) {
  Fig5Cluster f;
  RandomReclaimPolicy policy(7);
  const ReclaimResult result = policy.Reclaim(f.cluster, 3);
  EXPECT_GE(result.vacated.size(), 3u);
}

TEST(VacateServer, MechanicsPreemptBaseAndScaleFlexible) {
  ClusterState cluster;
  const ServerId s0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  const ServerId s1 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  cluster.Place(JobId(1), s0, 2, false);  // base -> preempted everywhere
  cluster.Place(JobId(1), s1, 2, false);
  cluster.Place(JobId(2), s0, 2, true);   // flexible-only -> scaled in
  cluster.Place(JobId(2), s1, 2, false);

  ReclaimResult result;
  VacateServer(cluster, s0, result);
  EXPECT_TRUE(cluster.server(s0).idle());
  ASSERT_EQ(result.preempted.size(), 1u);
  EXPECT_EQ(result.preempted[0], JobId(1));
  ASSERT_EQ(result.scaled_in.size(), 1u);
  EXPECT_EQ(result.scaled_in[0], JobId(2));
  // Job 2's base share on s1 survives.
  EXPECT_EQ(cluster.FindPlacement(JobId(2))->total_gpus(), 2);
  EXPECT_EQ(cluster.FindPlacement(JobId(1)), nullptr);
}

// Random instances: count preemptions under each policy. The heuristic must
// never beat the exhaustive optimum, and should beat Random on average.
class ReclaimComparisonProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReclaimComparisonProperty, LyraNeverBeatsOptimalAndBeatsRandomOnAverage) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  int lyra_total = 0;
  int random_total = 0;
  for (int instance = 0; instance < 10; ++instance) {
    // Build a random on-loan topology: 8 servers, jobs spanning 1-3 servers.
    auto build = [&](std::uint64_t seed) {
      Rng local(seed);
      ClusterState cluster;
      std::vector<ServerId> servers;
      for (int i = 0; i < 8; ++i) {
        servers.push_back(
            cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
      }
      for (int j = 0; j < 10; ++j) {
        const int spans = static_cast<int>(local.UniformInt(1, 3));
        const int start = static_cast<int>(local.UniformInt(0, 7));
        for (int k = 0; k < spans; ++k) {
          const Server& server =
              cluster.server(servers[static_cast<std::size_t>((start + k) % 8)]);
          if (server.free_gpus() >= 2) {
            cluster.Place(JobId(j), server.id(), 2, false);
          }
        }
      }
      return cluster;
    };
    const std::uint64_t seed = rng.NextU64();
    const int demand = static_cast<int>(rng.UniformInt(1, 4));

    ClusterState for_lyra = build(seed);
    ClusterState for_random = build(seed);
    ClusterState for_optimal = build(seed);

    LyraReclaimPolicy lyra;
    RandomReclaimPolicy random(seed);
    OptimalReclaimPolicy optimal;
    const auto lyra_result = lyra.Reclaim(for_lyra, demand);
    const auto random_result = random.Reclaim(for_random, demand);
    const auto optimal_result = optimal.Reclaim(for_optimal, demand);

    EXPECT_GE(lyra_result.preempted.size(), optimal_result.preempted.size());
    lyra_total += static_cast<int>(lyra_result.preempted.size());
    random_total += static_cast<int>(random_result.preempted.size());
  }
  EXPECT_LE(lyra_total, random_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReclaimComparisonProperty, ::testing::Range(1, 9));

// The collateral estimate reads the placements; VacateServer on a Clone()
// applies the vacate and measures. On random clusters (training and loaned
// servers, multi-server jobs, base and flexible shares mixed, some on one
// server) the two must agree for every occupied on-loan server.
TEST(CollateralEstimate, MatchesVacateOnAClone) {
  int checks = 0;
  int emptied_neighbours = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    ClusterState cluster;
    for (int i = 0; i < 4; ++i) {
      cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
    }
    for (int i = 0; i < 8; ++i) {
      const ServerId id = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference);
      if (rng.NextBernoulli(0.75)) {
        ASSERT_TRUE(cluster.LoanServer(id).ok());
      }
    }
    const std::vector<ServerId> visible = cluster.TrainingVisibleServers();
    for (int j = 0; j < 16; ++j) {
      const int spans = static_cast<int>(rng.UniformInt(1, 4));
      for (int k = 0; k < spans; ++k) {
        const ServerId id = visible[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(visible.size()) - 1))];
        const int free = cluster.server(id).free_gpus();
        if (free > 0) {
          cluster.Place(JobId(j), id, static_cast<int>(rng.UniformInt(1, std::min(free, 4))),
                        k > 0 && rng.NextBernoulli(0.5));
        }
      }
    }
    for (ServerId id : cluster.ServersInPool(ServerPool::kOnLoan)) {
      if (cluster.server(id).idle()) {
        continue;
      }
      ClusterState copy = cluster.Clone();
      ReclaimResult vacated;
      VacateServer(copy, id, vacated);
      EXPECT_EQ(CollateralEstimate(cluster, id), vacated.collateral_gpus)
          << "seed " << seed << " server " << id.value;
      ++checks;
      emptied_neighbours += vacated.vacated.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(checks, 1000);
  EXPECT_GT(emptied_neighbours, 0);
}

}  // namespace
}  // namespace lyra
