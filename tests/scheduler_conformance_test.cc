// Conformance property suite: every scheduler implementation must uphold the
// same placement contracts on randomized instances — no server overcommit, no
// allocation outside [0 or min, max] workers, no GPU-type mixing for
// non-heterogeneous jobs, no loaned placement for non-fungible jobs, and no
// touching of running jobs' base demand (the non-preemptive rule, §5.2).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/common/rng.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/sched/afs.h"
#include "src/sched/elastic_util.h"
#include "src/sched/fifo.h"
#include "src/sched/gandiva.h"
#include "src/sched/opportunistic.h"
#include "src/sched/placement_util.h"
#include "src/sched/pollux.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

enum class Kind { kFifo, kSjf, kGandiva, kAfs, kPollux, kLyra, kLyraAgnostic };

std::unique_ptr<JobScheduler> Make(Kind kind) {
  switch (kind) {
    case Kind::kFifo:
      return std::make_unique<FifoScheduler>();
    case Kind::kSjf:
      return std::make_unique<SjfScheduler>();
    case Kind::kGandiva:
      return std::make_unique<GandivaScheduler>();
    case Kind::kAfs:
      return std::make_unique<AfsScheduler>();
    case Kind::kPollux: {
      PolluxOptions options;
      options.iterations = 30;
      options.ga_interval = 0.0;
      return std::make_unique<PolluxScheduler>(options);
    }
    case Kind::kLyra:
      return std::make_unique<LyraScheduler>();
    case Kind::kLyraAgnostic: {
      LyraSchedulerOptions options;
      options.information_agnostic = true;
      return std::make_unique<LyraScheduler>(options);
    }
  }
  return nullptr;
}

class SchedulerConformance
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulerConformance, PlacementContractsHold) {
  const auto [kind_index, seed] = GetParam();
  const Kind kind = static_cast<Kind>(kind_index);
  Rng rng(static_cast<std::uint64_t>(seed) * 1717 + kind_index);

  ClusterState cluster;
  const int training = static_cast<int>(rng.UniformInt(2, 6));
  const int loaned = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < training; ++i) {
    cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  }
  for (int i = 0; i < loaned; ++i) {
    cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  }

  // A mix of running and pending jobs.
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<Job*> pending;
  std::vector<Job*> running;
  SchedulerContext ctx;
  ctx.now = 600.0;
  ctx.cluster = &cluster;
  ThroughputModel model;
  ctx.throughput = &model;
  const int num_jobs = static_cast<int>(rng.UniformInt(2, 10));
  for (int j = 0; j < num_jobs; ++j) {
    JobSpec spec;
    spec.id = JobId(j);
    spec.submit_time = rng.Uniform(0.0, 500.0);
    spec.gpus_per_worker = static_cast<int>(rng.UniformInt(1, 4));
    spec.min_workers = static_cast<int>(rng.UniformInt(1, 3));
    spec.max_workers = spec.min_workers * (rng.NextBernoulli(0.6) ? 2 : 1);
    spec.requested_workers = spec.min_workers;
    spec.total_work = rng.Uniform(100.0, 20000.0);
    spec.fungible = rng.NextBernoulli(0.4);
    jobs.push_back(std::make_unique<Job>(spec));
    Job* job = jobs.back().get();
    // Start roughly half of the jobs at base demand on the training pool.
    if (rng.NextBernoulli(0.5) &&
        TryPlaceWorkers(cluster, BaseRequest(*job, spec.min_workers,
                                             PoolPreference::kTrainingOnly))) {
      job->Start(0.0, spec.min_workers, spec.min_workers);
      running.push_back(job);
    } else {
      cluster.RemoveJob(job->id());  // in case of partial placement
      pending.push_back(job);
    }
  }
  ctx.pending = pending;
  ctx.running = running;

  // Snapshot running jobs' base GPUs: schedulers must never reduce them.
  std::vector<std::pair<JobId, int>> base_before;
  for (const Job* job : ctx.running) {
    base_before.emplace_back(job->id(),
                             cluster.FindPlacement(job->id())->base_gpus());
  }

  std::unique_ptr<JobScheduler> scheduler = Make(kind);
  scheduler->Schedule(ctx);

  // Contract 1: no server overcommit.
  for (const Server& server : cluster.servers()) {
    ASSERT_LE(server.used_gpus(), server.num_gpus()) << scheduler->name();
    ASSERT_GE(server.used_gpus(), 0) << scheduler->name();
  }
  // Contract 2: allocations within bounds; contract 3: type uniformity;
  // contract 4: no loaned placement for non-fungible jobs.
  for (const auto& job : jobs) {
    const JobPlacement* p = cluster.FindPlacement(job->id());
    if (p == nullptr) {
      continue;
    }
    const int workers = PlacedWorkers(cluster, *job);
    EXPECT_LE(workers, job->spec().max_workers) << scheduler->name();
    EXPECT_GE(workers, 1) << scheduler->name();
    GpuType type;
    EXPECT_TRUE(CurrentGpuType(cluster, job->id(), &type)) << scheduler->name();
    if (!job->spec().fungible && !job->spec().heterogeneous) {
      for (const auto& [server_id, share] : p->shares) {
        EXPECT_NE(cluster.server(server_id).pool(), ServerPool::kOnLoan)
            << scheduler->name();
      }
    }
  }
  // Contract 5: non-preemptive — running jobs keep at least their base GPUs.
  for (const auto& [job_id, base_gpus] : base_before) {
    const JobPlacement* p = cluster.FindPlacement(job_id);
    ASSERT_NE(p, nullptr) << scheduler->name();
    EXPECT_GE(p->base_gpus(), base_gpus) << scheduler->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulersAndSeeds, SchedulerConformance,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(1, 9)));

// --- Fault matrix ------------------------------------------------------------
//
// Every scheduler must survive every fault class end-to-end: a full
// simulation with aggressive fault rates has to finish with AuditInvariants
// clean and zero leaked GPU shares — placements exist exactly for running
// jobs, their servers are all up, and the counters match the placements.

enum class FaultClass { kServerCrash, kWorkerFailure, kRevocationStorm };

std::unique_ptr<InferenceCluster> SmallInference(int servers) {
  DiurnalTrafficOptions traffic;
  traffic.duration = 3 * kDay;
  traffic.trough = 0.3;
  traffic.peak = 0.6;
  traffic.noise_sigma = 0.0;
  traffic.bursts_per_day = 0.0;
  traffic.weekend_dip = 0.0;
  InferenceClusterOptions options;
  options.num_servers = servers;
  options.server_packing_spread = 1.0;
  return std::make_unique<InferenceCluster>(options, DiurnalTrafficModel(traffic),
                                            nullptr);
}

class SchedulerFaultMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulerFaultMatrix, SurvivesFaultsWithoutLeakingShares) {
  const auto [kind_index, fault_index] = GetParam();
  const Kind kind = static_cast<Kind>(kind_index);
  const FaultClass fault = static_cast<FaultClass>(fault_index);

  TestbedTraceOptions trace_options;
  trace_options.num_jobs = 30;
  trace_options.num_elastic_jobs = 6;
  trace_options.max_demand_gpus = 16;
  trace_options.submission_window = 4 * kHour;
  trace_options.max_duration = kHour;
  trace_options.seed = 7 + static_cast<std::uint64_t>(kind_index);
  const Trace trace = MakeTestbedTrace(trace_options);

  SimulatorOptions options;
  options.training_servers = 6;
  options.enable_loaning = true;
  options.faults.enabled = true;
  options.faults.seed = 17 + static_cast<std::uint64_t>(fault_index);
  switch (fault) {
    case FaultClass::kServerCrash:
      options.faults.server_mtbf = 2 * kHour;  // fleet-wide: frequent crashes
      options.faults.server_mttr = 30 * kMinute;
      break;
    case FaultClass::kWorkerFailure:
      options.faults.worker_mtbf = 10 * kMinute;
      options.faults.worker_restart_delay = 5 * kMinute;
      break;
    case FaultClass::kRevocationStorm:
      options.faults.storm_mtbf = kHour;
      options.faults.storm_fraction = 0.6;
      break;
  }

  std::unique_ptr<JobScheduler> scheduler = Make(kind);
  LyraReclaimPolicy reclaim;
  Simulator simulator(options, trace, scheduler.get(), &reclaim,
                      SmallInference(4));
  const SimulationResult result = simulator.Run();

  const ClusterState& cluster = simulator.cluster();
  cluster.AuditInvariants();

  // The configured fault class actually fired (rates are aggressive enough
  // that a silent no-op run would be a wiring bug).
  switch (fault) {
    case FaultClass::kServerCrash:
      EXPECT_GT(result.faults.server_crashes, 0) << scheduler->name();
      break;
    case FaultClass::kWorkerFailure:
      EXPECT_GT(result.faults.worker_failures, 0) << scheduler->name();
      break;
    case FaultClass::kRevocationStorm:
      // Firings are recorded even when the storm catches an empty loan pool.
      EXPECT_GT(result.faults.revocation_storms, 0) << scheduler->name();
      break;
  }

  // Zero leaked GPU shares: a placement exists iff the job is running, only
  // on up servers, and the placements sum exactly to the used counters.
  int placed_gpus = 0;
  for (const auto& job : simulator.jobs()) {
    const JobPlacement* placement = cluster.FindPlacement(job->id());
    if (job->state() == JobState::kRunning) {
      ASSERT_NE(placement, nullptr) << scheduler->name();
      for (const auto& [server_id, share] : placement->shares) {
        EXPECT_TRUE(cluster.IsServerUp(server_id)) << scheduler->name();
      }
      placed_gpus += placement->total_gpus();
    } else {
      EXPECT_EQ(placement, nullptr)
          << scheduler->name() << " leaked job " << job->id().value;
    }
  }
  EXPECT_EQ(placed_gpus, cluster.TrainingSideUsedGpus()) << scheduler->name();
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kInference), 0) << scheduler->name();
  EXPECT_GE(result.finished_jobs, 1u) << scheduler->name();
}

INSTANTIATE_TEST_SUITE_P(AllSchedulersAndFaults, SchedulerFaultMatrix,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(0, 3)));

}  // namespace
}  // namespace lyra
