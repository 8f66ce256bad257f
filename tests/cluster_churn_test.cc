// Randomized churn over every ClusterState mutation point, cross-checking
// the incremental counters, pool membership and free-server indices, and the
// placement stamps against brute-force recomputation and AuditInvariants()
// after each operation. This is the
// safety net for the O(1) accounting: any drift between a counter and the
// server vector fails here long before it would skew a simulation.
#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/reclaim.h"
#include "src/predict/predictor.h"
#include "src/sched/fifo.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

// Down servers leave every counter and index (DESIGN.md §7).
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

std::vector<ServerId> BruteServersInPool(const ClusterState& cluster, ServerPool pool) {
  std::vector<ServerId> out;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      out.push_back(s.id());
    }
  }
  return out;
}

std::vector<ServerId> BruteServersWithFreeGpus(const ClusterState& cluster,
                                               ServerPool pool) {
  std::vector<ServerId> out;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool && s.free_gpus() > 0) {
      out.push_back(s.id());
    }
  }
  return out;
}

double BruteTrainingSideFreeNormalized(const ClusterState& cluster) {
  double total = 0.0;
  for (const Server& s : cluster.servers()) {
    if (s.up() && (s.pool() == ServerPool::kTraining || s.pool() == ServerPool::kOnLoan)) {
      total += s.free_gpus() * GpuComputeFactor(s.gpu_type());
    }
  }
  return total;
}

void ExpectMatchesBruteForce(const ClusterState& cluster) {
  for (ServerPool pool :
       {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
    EXPECT_EQ(cluster.TotalGpus(pool), BruteTotalGpus(cluster, pool));
    EXPECT_EQ(cluster.UsedGpus(pool), BruteUsedGpus(cluster, pool));
    EXPECT_EQ(cluster.FreeGpus(pool),
              BruteTotalGpus(cluster, pool) - BruteUsedGpus(cluster, pool));
    EXPECT_EQ(cluster.ServersInPool(pool), BruteServersInPool(cluster, pool));
    EXPECT_EQ(cluster.ServersWithFreeGpus(pool), BruteServersWithFreeGpus(cluster, pool));
    EXPECT_EQ(cluster.NumServersInPool(pool),
              static_cast<int>(BruteServersInPool(cluster, pool).size()));
  }
  EXPECT_EQ(cluster.TrainingSideTotalGpus(),
            BruteTotalGpus(cluster, ServerPool::kTraining) +
                BruteTotalGpus(cluster, ServerPool::kOnLoan));
  EXPECT_EQ(cluster.TrainingSideUsedGpus(),
            BruteUsedGpus(cluster, ServerPool::kTraining) +
                BruteUsedGpus(cluster, ServerPool::kOnLoan));
  EXPECT_EQ(cluster.TrainingSideFreeGpus(),
            cluster.TrainingSideTotalGpus() - cluster.TrainingSideUsedGpus());
  EXPECT_NEAR(cluster.TrainingSideFreeNormalized(),
              BruteTrainingSideFreeNormalized(cluster), 1e-9);
  cluster.AuditInvariants();
}

// Picks a random placed job id, or an invalid id when nothing is placed.
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

// Placement stamps: a job whose stamp did not move across an operation must
// hold exactly the shares it held before it.
using StampedShares = std::map<JobId, std::pair<std::uint64_t, std::map<ServerId, GpuShare>>>;

StampedShares CaptureStamps(const ClusterState& cluster) {
  StampedShares out;
  for (const auto& [job, placement] : cluster.placements()) {
    out[job] = {placement.stamp, placement.shares};
  }
  return out;
}

void ExpectStampsTrackShares(const StampedShares& before, const ClusterState& cluster) {
  for (const auto& [job, placement] : cluster.placements()) {
    EXPECT_GT(placement.stamp, 0u);
    const auto it = before.find(job);
    if (it != before.end() && it->second.first == placement.stamp) {
      EXPECT_EQ(it->second.second, placement.shares) << "job " << job.value;
    }
  }
}

class ClusterChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterChurnTest, RandomizedChurnKeepsCountersExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  ClusterState cluster;
  std::vector<ServerId> all;
  for (int s = 0; s < 24; ++s) {
    all.push_back(cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
  }
  for (int s = 0; s < 16; ++s) {
    all.push_back(cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference));
  }
  ExpectMatchesBruteForce(cluster);

  int next_job = 0;
  for (int step = 0; step < 1500; ++step) {
    const StampedShares stamps = CaptureStamps(cluster);
    const int op = static_cast<int>(rng.UniformInt(0, 10));
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Place on a random server with capacity.
        const ServerId id = all[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(all.size()) - 1))];
        const Server& srv = cluster.server(id);
        if (srv.pool() == ServerPool::kInference || srv.free_gpus() == 0 || !srv.up()) {
          break;  // inference and down servers host no training workers
        }
        const int gpus =
            static_cast<int>(rng.UniformInt(1, srv.free_gpus()));
        // Mix fresh jobs with growth of already-placed ones.
        JobId job;
        if (rng.NextBernoulli(0.5)) {
          job = JobId(next_job++);
        } else {
          job = RandomPlacedJob(cluster, rng);
          if (!job.valid()) {
            job = JobId(next_job++);
          }
        }
        cluster.Place(job, id, gpus, rng.NextBernoulli(0.4));
        break;
      }
      case 4: {  // Remove a whole job.
        const JobId job = RandomPlacedJob(cluster, rng);
        cluster.RemoveJob(job.valid() ? job : JobId(9999));  // no-op when absent
        break;
      }
      case 5: {  // Scale a job in on one of its servers.
        const JobId job = RandomPlacedJob(cluster, rng);
        if (!job.valid()) {
          break;
        }
        const JobPlacement* placement = cluster.FindPlacement(job);
        ASSERT_NE(placement, nullptr);
        const auto& shares = placement->shares;
        auto it = shares.begin();
        std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(shares.size()) - 1));
        cluster.RemoveFlexible(job, it->first, static_cast<int>(rng.UniformInt(1, 8)));
        break;
      }
      case 6: {  // Scale a job in everywhere.
        const JobId job = RandomPlacedJob(cluster, rng);
        if (job.valid()) {
          cluster.RemoveAllFlexible(job);
        }
        break;
      }
      case 7: {  // Loan an inference server.
        const auto& inference = cluster.ServersInPool(ServerPool::kInference);
        if (inference.empty()) {
          break;
        }
        const ServerId id = inference[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(inference.size()) - 1))];
        EXPECT_TRUE(cluster.LoanServer(id).ok());
        break;
      }
      case 8: {  // Return an idle on-loan server (no-op when occupied).
        const auto& loaned = cluster.ServersInPool(ServerPool::kOnLoan);
        if (loaned.empty()) {
          break;
        }
        const ServerId id = loaned[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(loaned.size()) - 1))];
        if (cluster.server(id).idle()) {
          EXPECT_TRUE(cluster.ReturnServer(id).ok());
        } else {
          EXPECT_FALSE(cluster.ReturnServer(id).ok());
        }
        break;
      }
      case 9: {  // Occasionally grow the fleet.
        if (step % 97 == 0) {
          const bool training = rng.NextBernoulli(0.5);
          all.push_back(cluster.AddServer(
              training ? GpuType::kTrainingV100 : GpuType::kInferenceT4,
              static_cast<int>(rng.UniformInt(4, 8)),
              training ? ServerPool::kTraining : ServerPool::kInference));
        }
        break;
      }
      case 10: {  // Crash an idle server or recover a down one.
        const ServerId id = all[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(all.size()) - 1))];
        if (!cluster.IsServerUp(id)) {
          EXPECT_TRUE(cluster.MarkServerUp(id).ok());
        } else if (cluster.server(id).idle()) {
          EXPECT_TRUE(cluster.MarkServerDown(id).ok());
        } else {
          EXPECT_FALSE(cluster.MarkServerDown(id).ok());
        }
        break;
      }
    }
    ExpectStampsTrackShares(stamps, cluster);
    if (step % 10 == 0) {
      ExpectMatchesBruteForce(cluster);
    } else {
      cluster.AuditInvariants();
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "counter drift at churn step " << step;
    }
  }
  ExpectMatchesBruteForce(cluster);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterChurnTest, ::testing::Values(1, 2, 3, 4));

TEST(ClusterChurnTest, CloneCarriesCountersAndIndependence) {
  ClusterState cluster;
  const ServerId t0 = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId i0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference);
  cluster.Place(JobId(0), t0, 4, false);
  ASSERT_TRUE(cluster.LoanServer(i0).ok());
  cluster.Place(JobId(0), i0, 2, true);

  ClusterState copy = cluster.Clone();
  ExpectMatchesBruteForce(copy);
  EXPECT_EQ(copy.UsedGpus(ServerPool::kTraining), 4);
  EXPECT_EQ(copy.UsedGpus(ServerPool::kOnLoan), 2);

  // Mutating the clone must not leak into the original (and vice versa).
  copy.RemoveJob(JobId(0));
  ExpectMatchesBruteForce(copy);
  ExpectMatchesBruteForce(cluster);
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kTraining), 4);
  EXPECT_EQ(copy.UsedGpus(ServerPool::kTraining), 0);
}

TEST(ClusterChurnTest, ReclaimPoliciesPreserveInvariants) {
  // Drive the reclaim policies (which vacate via RemoveJob/RemoveFlexible)
  // and audit afterwards: reclaiming is the most mutation-heavy path.
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    ClusterState cluster;
    std::vector<ServerId> ids;
    for (int s = 0; s < 12; ++s) {
      ids.push_back(cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
    }
    for (int j = 0; j < 20; ++j) {
      const int spans = static_cast<int>(rng.UniformInt(1, 3));
      const int start = static_cast<int>(rng.UniformInt(0, 11));
      for (int k = 0; k < spans; ++k) {
        const Server& server =
            cluster.server(ids[static_cast<std::size_t>((start + k) % 12)]);
        if (server.free_gpus() >= 2) {
          cluster.Place(JobId(j), server.id(), 2, k > 0 && j % 3 == 0);
        }
      }
    }
    cluster.AuditInvariants();
    LyraReclaimPolicy policy;
    policy.Reclaim(cluster, 4);
    ExpectMatchesBruteForce(cluster);
  }
}

TEST(ClusterChurnTest, EndToEndSimulationPreservesInvariants) {
  // A small end-to-end simulation exercises the scheduler/orchestrator
  // mutation paths; the final cluster must still audit clean.
  SyntheticTraceOptions trace_options;
  trace_options.duration = 0.5 * kDay;
  trace_options.training_gpus = 10 * 8;
  trace_options.seed = 7;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();

  SimulatorOptions options;
  options.training_servers = 10;
  options.enable_loaning = false;
  FifoScheduler scheduler;
  Simulator simulator(options, trace, &scheduler, nullptr, nullptr);
  const SimulationResult result = simulator.Run();
  EXPECT_GT(result.finished_jobs, 0u);
  EXPECT_GT(result.events_processed, 0u);
  simulator.cluster().AuditInvariants();
}

// The simulator's start scan stops after placements().size() - running
// newly placed jobs, and Lyra's pending index relies on the queue being in
// stamp order. Both rest on invariants checked here between chunks of a
// contended Lyra run with loaning (reclaim requeues), server crashes and
// online cancels: every running job, and nothing else, holds a placement,
// and the pending queue is strictly ascending in queue_seq.
TEST(ClusterChurnTest, SteppedLyraRunKeepsQueueAndPlacementInvariants) {
  SyntheticTraceOptions trace_options;
  trace_options.duration = 1 * kDay;
  trace_options.training_gpus = 12 * 8;
  trace_options.target_utilization = 2.0;
  trace_options.seed = 5;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();

  DiurnalTrafficOptions traffic;
  traffic.duration = 6 * kDay;
  InferenceClusterOptions inference;
  inference.num_servers = 14;
  SimulatorOptions options;
  options.training_servers = 6;  // the trace is sized for 12
  options.faults.enabled = true;
  options.faults.server_mtbf = 3 * kHour;
  LyraScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator simulator(options, trace, &scheduler, &reclaim,
                      std::make_unique<InferenceCluster>(
                          inference, DiurnalTrafficModel(traffic),
                          std::make_unique<SeasonalNaivePredictor>()));
  Rng rng(17);
  std::size_t max_pending = 0;
  for (TimeSec t = 0.0; t < 2 * kDay; t += 10 * kMinute) {
    simulator.StepUntil(t);
    const std::vector<Job*>& pending = simulator.pending_jobs();
    max_pending = std::max(max_pending, pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      EXPECT_EQ(pending[i]->state(), JobState::kPending);
      if (i > 0) {
        ASSERT_LT(pending[i - 1]->queue_seq(), pending[i]->queue_seq());
      }
    }
    std::size_t running = 0;
    for (const auto& job : simulator.jobs()) {
      const bool placed = simulator.cluster().FindPlacement(job->id()) != nullptr;
      ASSERT_EQ(placed, job->state() == JobState::kRunning) << "job " << job->id().value;
      running += placed ? 1 : 0;
    }
    ASSERT_EQ(simulator.cluster().placements().size(), running);
    if (!pending.empty() && rng.NextBernoulli(0.3)) {
      const Job* victim = pending[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(pending.size()) - 1))];
      ASSERT_TRUE(simulator.CancelJob(victim->id()).ok());
    }
  }
  const SimulationResult result = simulator.Finalize();
  EXPECT_GT(result.preemptions, 0);
  EXPECT_GT(max_pending, 5u);
  simulator.cluster().AuditInvariants();
}

}  // namespace
}  // namespace lyra
