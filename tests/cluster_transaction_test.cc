// ClusterTransaction correctness: randomized mutation sequences applied
// inside a transaction and rolled back must restore the exact
// pre-transaction state — placements, per-pool counters, membership indices
// — as judged field-by-field against a Clone() taken before the transaction
// and by AuditInvariants(). Also covers commit, nesting (LIFO), destructor
// rollback, and the speculative placement check built on top.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

// Field-by-field equality of two cluster states (topology, occupancy,
// counters, and indices — everything except the undo log).
void ExpectStatesEqual(const ClusterState& actual, const ClusterState& expected) {
  ASSERT_EQ(actual.num_servers(), expected.num_servers());
  for (int i = 0; i < actual.num_servers(); ++i) {
    const Server& a = actual.servers()[static_cast<std::size_t>(i)];
    const Server& e = expected.servers()[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.id(), e.id());
    EXPECT_EQ(a.gpu_type(), e.gpu_type());
    EXPECT_EQ(a.num_gpus(), e.num_gpus());
    EXPECT_EQ(a.pool(), e.pool()) << "server " << i;
    EXPECT_EQ(a.used_gpus(), e.used_gpus()) << "server " << i;
    EXPECT_EQ(a.jobs(), e.jobs()) << "server " << i;
  }

  ASSERT_EQ(actual.placements().size(), expected.placements().size());
  for (const auto& [job, placement] : expected.placements()) {
    const JobPlacement* other = actual.FindPlacement(job);
    ASSERT_NE(other, nullptr) << "job " << job.value;
    EXPECT_EQ(other->shares, placement.shares) << "job " << job.value;
  }

  for (ServerPool pool :
       {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
    EXPECT_EQ(actual.TotalGpus(pool), expected.TotalGpus(pool));
    EXPECT_EQ(actual.UsedGpus(pool), expected.UsedGpus(pool));
    EXPECT_EQ(actual.FreeGpus(pool), expected.FreeGpus(pool));
    EXPECT_EQ(actual.ServersInPool(pool), expected.ServersInPool(pool));
    EXPECT_EQ(actual.ServersWithFreeGpus(pool), expected.ServersWithFreeGpus(pool));
  }
  EXPECT_EQ(actual.TrainingSideFreeGpus(), expected.TrainingSideFreeGpus());
  EXPECT_NEAR(actual.TrainingSideFreeNormalized(),
              expected.TrainingSideFreeNormalized(), 1e-9);
  actual.AuditInvariants();
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

// One random mutation drawn from every transactional operation. `next_job`
// grows fresh job ids so Place can both create and grow placements.
void RandomMutation(ClusterState& cluster, Rng& rng, int& next_job) {
  switch (rng.UniformInt(0, 6)) {
    case 0:
    case 1: {  // Place on a random training-visible server with capacity.
      std::vector<ServerId> visible = cluster.TrainingVisibleServers();
      if (visible.empty()) {
        break;
      }
      const ServerId id = visible[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(visible.size()) - 1))];
      const Server& srv = cluster.server(id);
      if (srv.free_gpus() == 0) {
        break;
      }
      JobId job = rng.NextBernoulli(0.5) ? JobId(next_job++)
                                         : RandomPlacedJob(cluster, rng);
      if (!job.valid()) {
        job = JobId(next_job++);
      }
      cluster.Place(job, id, static_cast<int>(rng.UniformInt(1, srv.free_gpus())),
                    rng.NextBernoulli(0.4));
      break;
    }
    case 2: {  // Preempt a whole job.
      const JobId job = RandomPlacedJob(cluster, rng);
      cluster.RemoveJob(job.valid() ? job : JobId(999999));  // no-op when absent
      break;
    }
    case 3: {  // Scale a job in on one of its servers.
      const JobId job = RandomPlacedJob(cluster, rng);
      if (!job.valid()) {
        break;
      }
      const JobPlacement* placement = cluster.FindPlacement(job);
      auto it = placement->shares.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<std::int64_t>(placement->shares.size()) - 1));
      cluster.RemoveFlexible(job, it->first, static_cast<int>(rng.UniformInt(1, 8)));
      break;
    }
    case 4: {  // Scale a job in everywhere.
      const JobId job = RandomPlacedJob(cluster, rng);
      if (job.valid()) {
        cluster.RemoveAllFlexible(job);
      }
      break;
    }
    case 5: {  // Loan an inference server.
      const auto& inference = cluster.ServersInPool(ServerPool::kInference);
      if (inference.empty()) {
        break;
      }
      EXPECT_TRUE(cluster
                      .LoanServer(inference[static_cast<std::size_t>(rng.UniformInt(
                          0, static_cast<std::int64_t>(inference.size()) - 1))])
                      .ok());
      break;
    }
    case 6: {  // Return an idle on-loan server (may be guard-rejected).
      const auto& loaned = cluster.ServersInPool(ServerPool::kOnLoan);
      if (loaned.empty()) {
        break;
      }
      const ServerId id = loaned[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(loaned.size()) - 1))];
      if (cluster.server(id).idle()) {
        // Under an open transaction the idleness may be speculative, in which
        // case ReturnServer refuses (see ReturnServerRejectsSpeculativeIdleness
        // below); out of a transaction an idle on-loan server always returns.
        const Status status = cluster.ReturnServer(id);
        if (!cluster.InTransaction()) {
          EXPECT_TRUE(status.ok());
        } else {
          EXPECT_TRUE(status.ok() || !cluster.CommittedIdle(id));
        }
      }
      break;
    }
  }
}

// Cluster with occupied training servers, some loaned (occupied and idle)
// inference servers, and multi-server jobs — every transition reachable.
ClusterState SeedCluster(Rng& rng, int& next_job) {
  ClusterState cluster;
  for (int s = 0; s < 12; ++s) {
    cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  }
  for (int s = 0; s < 8; ++s) {
    cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference);
  }
  for (int i = 0; i < 60; ++i) {
    RandomMutation(cluster, rng, next_job);
  }
  // Crashes are never transactional, so take a few idle servers down here:
  // transactions then run over a fleet with down servers in it.
  for (int i = 0; i < 3; ++i) {
    const ServerId id(rng.UniformInt(0, cluster.num_servers() - 1));
    if (cluster.IsServerUp(id) && cluster.server(id).idle()) {
      EXPECT_TRUE(cluster.MarkServerDown(id).ok());
    }
  }
  cluster.AuditInvariants();
  return cluster;
}

class TransactionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TransactionPropertyTest, RollbackRestoresExactState) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  int next_job = 0;
  ClusterState cluster = SeedCluster(rng, next_job);
  const ClusterState reference = cluster.Clone();

  for (int round = 0; round < 20; ++round) {
    ClusterTransaction txn(cluster);
    EXPECT_TRUE(cluster.InTransaction());
    const int ops = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < ops; ++i) {
      RandomMutation(cluster, rng, next_job);
    }
    cluster.AuditInvariants();  // consistent even mid-transaction
    txn.Rollback();
    EXPECT_FALSE(cluster.InTransaction());
    EXPECT_EQ(cluster.UndoLogSize(), 0u);
    ExpectStatesEqual(cluster, reference);
    if (::testing::Test::HasFailure()) {
      FAIL() << "state drift after rollback in round " << round;
    }
  }
}

TEST_P(TransactionPropertyTest, CommitKeepsMutationsAndClearsLog) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
  int next_job = 0;
  ClusterState cluster = SeedCluster(rng, next_job);

  // Run the same mutation stream against a clone under an identically
  // committed transaction: committing must keep every mutation. (The
  // reference stream also runs transacted because ReturnServer is guard-
  // restricted under an open transaction — a plain replay could legally
  // return a server the transacted run refused to.)
  ClusterState expected = cluster.Clone();
  Rng expected_rng = rng;
  int expected_next_job = next_job;

  ClusterTransaction txn(cluster);
  for (int i = 0; i < 50; ++i) {
    RandomMutation(cluster, rng, next_job);
  }
  EXPECT_GT(txn.ops(), 0u);
  txn.Commit();
  EXPECT_FALSE(cluster.InTransaction());
  EXPECT_EQ(cluster.UndoLogSize(), 0u);
  EXPECT_EQ(txn.ops(), 0u);  // closed transactions hold nothing

  {
    ClusterTransaction expected_txn(expected);
    for (int i = 0; i < 50; ++i) {
      RandomMutation(expected, expected_rng, expected_next_job);
    }
    expected_txn.Commit();
  }
  ExpectStatesEqual(cluster, expected);
}

TEST_P(TransactionPropertyTest, NestedTransactionsRollBackLifo) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843 + 11);
  int next_job = 0;
  ClusterState cluster = SeedCluster(rng, next_job);
  const ClusterState before_outer = cluster.Clone();

  ClusterTransaction outer(cluster);
  for (int i = 0; i < 10; ++i) {
    RandomMutation(cluster, rng, next_job);
  }
  const ClusterState before_inner = cluster.Clone();

  {  // Inner rollback undoes only the inner suffix.
    ClusterTransaction inner(cluster);
    for (int i = 0; i < 10; ++i) {
      RandomMutation(cluster, rng, next_job);
    }
    inner.Rollback();
    ExpectStatesEqual(cluster, before_inner);
    EXPECT_TRUE(cluster.InTransaction());  // outer still open
  }

  {  // An inner commit only surrenders the inner rollback point...
    ClusterTransaction inner(cluster);
    for (int i = 0; i < 10; ++i) {
      RandomMutation(cluster, rng, next_job);
    }
    inner.Commit();
  }
  // ...the outer rollback still undoes everything, committed suffix included.
  outer.Rollback();
  ExpectStatesEqual(cluster, before_outer);
  EXPECT_FALSE(cluster.InTransaction());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransactionPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(ClusterTransactionTest, DestructorRollsBackOpenTransaction) {
  ClusterState cluster;
  const ServerId t0 = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ClusterState reference = cluster.Clone();
  {
    ClusterTransaction txn(cluster);
    cluster.Place(JobId(0), t0, 4, false);
    EXPECT_EQ(txn.ops(), 1u);
    EXPECT_TRUE(txn.open());
    // No Commit/Rollback: destruction abandons the speculation.
  }
  ExpectStatesEqual(cluster, reference);
}

TEST(ClusterTransactionTest, RollbackRestoresPoolTransitions) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId i0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference);
  const ServerId l0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  const ClusterState reference = cluster.Clone();

  ClusterTransaction txn(cluster);
  ASSERT_TRUE(cluster.LoanServer(i0).ok());
  cluster.Place(JobId(1), i0, 2, true);   // occupy the freshly loaned server
  ASSERT_TRUE(cluster.ReturnServer(l0).ok());
  txn.Rollback();
  ExpectStatesEqual(cluster, reference);
  EXPECT_EQ(cluster.server(i0).pool(), ServerPool::kInference);
  EXPECT_EQ(cluster.server(l0).pool(), ServerPool::kOnLoan);
}

// Regression: ReturnServer used to accept a server whose idleness existed
// only inside an open transaction (e.g. a speculative what-if removed its
// jobs). The return reported success, then the rollback silently moved the
// server back on loan — the caller had acted on a state change that never
// happened. Such returns are now rejected until the removal commits.
TEST(ClusterTransactionTest, ReturnServerRejectsSpeculativeIdleness) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId l0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  cluster.Place(JobId(7), l0, 4, false);  // committed occupancy
  const ClusterState reference = cluster.Clone();

  {
    ClusterTransaction txn(cluster);
    cluster.RemoveJob(JobId(7));  // speculative: makes l0 *look* idle
    ASSERT_TRUE(cluster.server(l0).idle());
    EXPECT_FALSE(cluster.CommittedIdle(l0));
    EXPECT_FALSE(cluster.ReturnServer(l0).ok());  // the fix under test
    EXPECT_EQ(cluster.server(l0).pool(), ServerPool::kOnLoan);
    txn.Rollback();
  }
  ExpectStatesEqual(cluster, reference);

  // A server placed *and* vacated inside the same transaction nets out to
  // committed-idle, so returning it stays legal (RollbackRestoresPoolTransitions
  // depends on this), and so does a return after the removal commits.
  {
    ClusterTransaction txn(cluster);
    cluster.RemoveJob(JobId(7));
    txn.Commit();
  }
  EXPECT_TRUE(cluster.CommittedIdle(l0));
  EXPECT_TRUE(cluster.ReturnServer(l0).ok());
  EXPECT_EQ(cluster.server(l0).pool(), ServerPool::kInference);
  cluster.AuditInvariants();
}

// Health-state accounting: a down server's capacity leaves the counters and
// membership index, placement and loaning refuse it, and recovery restores
// everything — with AuditInvariants holding at every step.
TEST(ClusterHealthTest, DownServerLeavesCountersAndComesBack) {
  ClusterState cluster;
  const ServerId t0 = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId t1 = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId i0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference);
  cluster.Place(JobId(1), t1, 4, false);

  EXPECT_FALSE(cluster.MarkServerDown(t1).ok());  // occupied: vacate first
  ASSERT_TRUE(cluster.MarkServerDown(t0).ok());
  EXPECT_FALSE(cluster.IsServerUp(t0));
  EXPECT_EQ(cluster.NumServersDown(), 1);
  EXPECT_EQ(cluster.TotalGpus(ServerPool::kTraining), 8);
  EXPECT_EQ(cluster.TrainingSideFreeGpus(), 4);
  EXPECT_EQ(cluster.ServersInPool(ServerPool::kTraining),
            std::vector<ServerId>{t1});
  EXPECT_FALSE(cluster.MarkServerDown(t0).ok());  // already down
  cluster.AuditInvariants();

  // Down inference servers can be neither loaned nor returned.
  ASSERT_TRUE(cluster.MarkServerDown(i0).ok());
  EXPECT_FALSE(cluster.LoanServer(i0).ok());
  EXPECT_FALSE(cluster.ReturnServer(i0).ok());
  ASSERT_TRUE(cluster.MarkServerUp(i0).ok());

  ASSERT_TRUE(cluster.MarkServerUp(t0).ok());
  EXPECT_FALSE(cluster.MarkServerUp(t0).ok());  // already up
  EXPECT_EQ(cluster.NumServersDown(), 0);
  EXPECT_EQ(cluster.TotalGpus(ServerPool::kTraining), 16);
  EXPECT_EQ(cluster.TrainingSideFreeGpus(), 12);
  cluster.AuditInvariants();
}

TEST(ClusterTransactionTest, WouldPlaceWorkersMatchesRealPlacementWithoutMutating) {
  ClusterState cluster;
  std::vector<ServerId> training;
  for (int s = 0; s < 4; ++s) {
    training.push_back(
        cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
  }
  // Fragment the cluster: 6 GPUs free per server, 24 total.
  for (int s = 0; s < 4; ++s) {
    cluster.Place(JobId(100 + s), training[static_cast<std::size_t>(s)], 2, false);
  }
  const ClusterState reference = cluster.Clone();

  PlaceRequest fits;
  fits.job = JobId(0);
  fits.gpus_per_worker = 4;
  fits.workers = 4;  // 16 GPUs, 4 per server: fits
  EXPECT_TRUE(WouldPlaceWorkers(cluster, fits));
  ExpectStatesEqual(cluster, reference);  // the check left no trace

  PlaceRequest too_big = fits;
  too_big.gpus_per_worker = 8;  // no server has 8 free despite 24 total
  too_big.workers = 2;
  EXPECT_FALSE(WouldPlaceWorkers(cluster, too_big));
  ExpectStatesEqual(cluster, reference);

  // The verdicts match what TryPlaceWorkers actually does.
  EXPECT_FALSE(TryPlaceWorkers(cluster, too_big));
  EXPECT_TRUE(TryPlaceWorkers(cluster, fits));
  EXPECT_NE(cluster.FindPlacement(JobId(0)), nullptr);
}

}  // namespace
}  // namespace lyra
