// Chaos property test: a long random interleaving of placement, scaling,
// loan/return, reclaim, server crashes (vacate + mark-down) and repairs,
// cross-checked after every step against a health-aware brute-force recount
// of every counter, membership index and free-slot bucket, and against the
// placements' stamps for the changed-placement log. This extends
// tests/cluster_churn_test.cc with the fault surface: down servers must
// vanish from capacity and pool membership exactly.
//
// The op count defaults to 10000 and can be raised for the weekly long-chaos
// CI leg via LYRA_CHAOS_OPS. The whole file also runs under ASan/UBSan as
// sanitized/fault_chaos_sanitized_test.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"
#include "src/lyra/reclaim.h"
#include "tests/change_log_oracle.h"
#include "tests/free_slot_oracle.h"

namespace lyra {
namespace {

// Health-aware brute-force recounts: down servers contribute nothing (the
// churn-test brutes predate server health and iterate every server).
int BruteTotalGpus(const ClusterState& cluster, ServerPool pool) {
  int total = 0;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      total += s.num_gpus();
    }
  }
  return total;
}

int BruteUsedGpus(const ClusterState& cluster, ServerPool pool) {
  int total = 0;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      total += s.used_gpus();
    }
  }
  return total;
}

std::vector<ServerId> BruteServersInPool(const ClusterState& cluster,
                                         ServerPool pool) {
  std::vector<ServerId> out;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      out.push_back(s.id());
    }
  }
  return out;
}

int BruteServersDown(const ClusterState& cluster) {
  int down = 0;
  for (const Server& s : cluster.servers()) {
    if (!s.up()) {
      ++down;
    }
  }
  return down;
}

void ExpectMatchesBruteForce(const ClusterState& cluster) {
  for (ServerPool pool :
       {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
    EXPECT_EQ(cluster.TotalGpus(pool), BruteTotalGpus(cluster, pool));
    EXPECT_EQ(cluster.UsedGpus(pool), BruteUsedGpus(cluster, pool));
    EXPECT_EQ(cluster.FreeGpus(pool),
              BruteTotalGpus(cluster, pool) - BruteUsedGpus(cluster, pool));
    EXPECT_EQ(cluster.ServersInPool(pool), BruteServersInPool(cluster, pool));
  }
  EXPECT_EQ(cluster.NumServersDown(), BruteServersDown(cluster));
  EXPECT_EQ(cluster.TrainingSideUsedGpus(),
            BruteUsedGpus(cluster, ServerPool::kTraining) +
                BruteUsedGpus(cluster, ServerPool::kOnLoan));
  cluster.AuditInvariants();
}

JobId RandomPlacedJob(const ClusterState& cluster, Rng& rng) {
  if (cluster.placements().empty()) {
    return JobId();
  }
  std::vector<JobId> jobs;
  jobs.reserve(cluster.placements().size());
  for (const auto& [job, placement] : cluster.placements()) {
    jobs.push_back(job);
  }
  std::sort(jobs.begin(), jobs.end());
  return jobs[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1))];
}

ServerId RandomServer(const std::vector<ServerId>& ids, Rng& rng) {
  return ids[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
}

int ChaosOps() {
  const char* env = std::getenv("LYRA_CHAOS_OPS");
  if (env != nullptr && *env != '\0') {
    const int ops = std::atoi(env);
    if (ops > 0) {
      return ops;
    }
  }
  return 10000;
}

class FaultChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultChaosTest, RandomFaultChurnKeepsCountersExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  ClusterState cluster;
  std::vector<ServerId> all;
  for (int s = 0; s < 16; ++s) {
    all.push_back(
        cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
  }
  for (int s = 0; s < 10; ++s) {
    all.push_back(
        cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference));
  }
  ExpectMatchesBruteForce(cluster);
  cluster.ArmChangeLog();
  ChangeLogOracle change_log;
  change_log.Clear(cluster);

  const int ops = ChaosOps() / 2;  // two seeds share the budget
  int next_job = 0;
  for (int step = 0; step < ops; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 10));
    switch (op) {
      case 0:
      case 1:
      case 2: {  // Place on a random up, training-visible server.
        const ServerId id = RandomServer(all, rng);
        const Server& srv = cluster.server(id);
        if (!srv.up() || srv.pool() == ServerPool::kInference ||
            srv.free_gpus() == 0) {
          break;
        }
        const int gpus = static_cast<int>(rng.UniformInt(1, srv.free_gpus()));
        JobId job = rng.NextBernoulli(0.5) ? JobId(next_job++)
                                           : RandomPlacedJob(cluster, rng);
        if (!job.valid()) {
          job = JobId(next_job++);
        }
        cluster.Place(job, id, gpus, rng.NextBernoulli(0.4));
        break;
      }
      case 3: {  // Remove a whole job.
        const JobId job = RandomPlacedJob(cluster, rng);
        cluster.RemoveJob(job.valid() ? job : JobId(999999));
        break;
      }
      case 4: {  // Scale a job in on one of its servers.
        const JobId job = RandomPlacedJob(cluster, rng);
        if (!job.valid()) {
          break;
        }
        const JobPlacement* placement = cluster.FindPlacement(job);
        ASSERT_NE(placement, nullptr);
        auto it = placement->shares.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<std::int64_t>(
                                    placement->shares.size()) - 1));
        cluster.RemoveFlexible(job, it->first,
                               static_cast<int>(rng.UniformInt(1, 8)));
        break;
      }
      case 5: {  // Loan an up inference server.
        const auto& inference = cluster.ServersInPool(ServerPool::kInference);
        if (inference.empty()) {
          break;
        }
        EXPECT_TRUE(cluster.LoanServer(RandomServer(inference, rng)).ok());
        break;
      }
      case 6: {  // Return an on-loan server; only an idle one goes back.
        const auto& loaned = cluster.ServersInPool(ServerPool::kOnLoan);
        if (loaned.empty()) {
          break;
        }
        const ServerId id = RandomServer(loaned, rng);
        const bool expect_ok = cluster.server(id).idle();
        EXPECT_EQ(cluster.ReturnServer(id).ok(), expect_ok);
        break;
      }
      case 7: {  // Server crash: vacate the victim, then take it down.
        const ServerId id = RandomServer(all, rng);
        if (!cluster.IsServerUp(id)) {
          break;
        }
        ReclaimResult damage;
        VacateServer(cluster, id, damage);
        ASSERT_TRUE(cluster.server(id).idle());
        EXPECT_TRUE(cluster.MarkServerDown(id).ok());
        EXPECT_FALSE(cluster.MarkServerDown(id).ok());  // already down
        break;
      }
      case 8: {  // Repair a random down server.
        std::vector<ServerId> down;
        for (const Server& s : cluster.servers()) {
          if (!s.up()) {
            down.push_back(s.id());
          }
        }
        if (down.empty()) {
          break;
        }
        EXPECT_TRUE(cluster.MarkServerUp(RandomServer(down, rng)).ok());
        break;
      }
      case 9: {  // Reclaim pressure over whatever is loaned out.
        if (step % 7 != 0) {
          break;
        }
        LyraReclaimPolicy policy;
        policy.Reclaim(cluster,
                       static_cast<int>(rng.UniformInt(1, 4)));
        break;
      }
      case 10: {  // Vacate without a crash (pure reclaim-path mutation).
        const ServerId id = RandomServer(all, rng);
        if (!cluster.IsServerUp(id)) {
          break;
        }
        ReclaimResult damage;
        VacateServer(cluster, id, damage);
        break;
      }
    }
    if (step % 10 == 0) {
      ExpectMatchesBruteForce(cluster);
    } else {
      cluster.AuditInvariants();
    }
    ExpectFreeSlotsMatchBruteForce(cluster);
    change_log.ExpectListsEveryMove(cluster);
    if (step % 6 == 5) {
      change_log.Clear(cluster);
    }
    if (step % 50 == 0) {
      ExpectCloneIndexesOnItsOwn(cluster, static_cast<std::uint64_t>(step));
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "counter drift at chaos step " << step << " (op " << op << ")";
    }
  }
  ExpectMatchesBruteForce(cluster);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaosTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace lyra
