// Microbenchmarks (google-benchmark) for the §5.2 / §7.3 runtime claims:
//   - the multiple-choice knapsack DP at production scale (paper: 0.02 s at
//     354 items and 245 GPUs),
//   - Lyra's greedy reclaiming vs the exhaustive optimal (paper: 1-3 ms vs
//     ~420,000x more),
//   - supporting primitives (preemption cost, BFD placement incl. AFS-shaped
//     one-worker grants, a baseline's harvest, a warm Lyra round, LSTM step),
//   - ClusterState capacity queries, pool listings and place/remove churn at
//     1000-server scale,
//   - the service's JSON reply encoders.
//
// google-benchmark is the only timer: for a machine-readable report pass
// --benchmark_out=BENCH_micro_perf.json --benchmark_out_format=json.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/lyra/allocation.h"
#include "src/lyra/mckp.h"
#include "src/lyra/placement.h"
#include "src/lyra/reclaim.h"
#include "src/predict/lstm.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace {

std::vector<lyra::MckpGroup> RandomMckp(int total_items, std::uint64_t seed) {
  lyra::Rng rng(seed);
  std::vector<lyra::MckpGroup> groups;
  int items = 0;
  while (items < total_items) {
    lyra::MckpGroup group;
    const int n = static_cast<int>(rng.UniformInt(2, 8));
    for (int i = 0; i < n; ++i) {
      group.items.push_back(
          {static_cast<int>(rng.UniformInt(1, 16)), rng.Uniform(1.0, 5000.0)});
    }
    items += n;
    groups.push_back(std::move(group));
  }
  return groups;
}

void BM_MckpPaperScale(benchmark::State& state) {
  // The exact instance size from §5.2: 354 items, 245 GPUs of capacity.
  const auto groups = RandomMckp(354, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::SolveMckp(groups, 245));
  }
}
BENCHMARK(BM_MckpPaperScale);

void BM_MckpByCapacity(benchmark::State& state) {
  const auto groups = RandomMckp(400, 7);
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::SolveMckp(groups, capacity));
  }
}
BENCHMARK(BM_MckpByCapacity)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// A scheduler-shaped phase-two instance: one group per elastic job, item
// k = "grow by k workers" weighing k * gpus per worker, valued by the concave
// JCT reduction. The paper-scale Lyra run (scale 1.0, 15 days) measures 75
// groups, 393 items and capacity 403 per solve on average, with gpus per
// worker in {1, 2, 4}; Arg(403) is that capacity, and Arg(4096) covers every
// group's largest item, so the solver's region is a band. The instance itself
// keeps its original draw (80 groups, 1-8 extra workers, gpus per worker up
// to 8) so its numbers compare across commits. The solver is reused across
// iterations as the scheduler reuses it across rounds.
void TimeSchedulerShaped(benchmark::State& state, lyra::MckpSolver& solver) {
  const int capacity = static_cast<int>(state.range(0));
  lyra::Rng rng(13);
  solver.Clear(capacity);
  for (int g = 0; g < 80; ++g) {
    static constexpr int kGpusPerWorker[] = {1, 2, 4, 8};
    const int gpw = kGpusPerWorker[rng.UniformInt(0, 3)];
    const int min_workers = static_cast<int>(rng.UniformInt(1, 8));
    const int extra = static_cast<int>(rng.UniformInt(1, 8));
    const double work = rng.Uniform(100.0, 1e6);
    solver.AddGroup();
    for (int k = 1; k <= extra && k * gpw <= capacity; ++k) {
      solver.AddItem(k * gpw, work / min_workers - work / (min_workers + k));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve().total_value);
  }
}

// With the row-kernel build the CPU selects.
void BM_MckpSchedulerShaped(benchmark::State& state) {
  lyra::MckpSolver solver;
  TimeSchedulerShaped(state, solver);
}
BENCHMARK(BM_MckpSchedulerShaped)->Arg(193)->Arg(403)->Arg(1013)->Arg(4096);

// The same solves through each build of the row kernel. On an AVX2 host the
// avx2 row must beat the baseline row: an AVX2 build that lost its target
// (32-byte vectors split into baseline instructions) shows here as slower.
void BM_MckpKernel(benchmark::State& state, lyra::MckpKernel kernel) {
  if (kernel == lyra::MckpKernel::kAvx2 && !lyra::MckpAvx2Supported()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  lyra::MckpSolver solver(kernel);
  TimeSchedulerShaped(state, solver);
}
BENCHMARK_CAPTURE(BM_MckpKernel, baseline, lyra::MckpKernel::kBaseline)
    ->Arg(193)
    ->Arg(403)
    ->Arg(1013);
BENCHMARK_CAPTURE(BM_MckpKernel, avx2, lyra::MckpKernel::kAvx2)->Arg(193)->Arg(403)->Arg(1013);

// One warm Lyra allocation round (both phases) with range(0) pending jobs.
// 110 servers are full of elastic jobs, each holding one flexible worker, so
// phase one launches a few jobs from the freed capacity and phase two runs
// the knapsack. The persistent pending index keeps the queue's order across
// rounds and the queue does not change between them, so after the first
// round the queue costs nothing but phase one's walk.
void BM_TwoPhaseAllocate(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  lyra::Rng rng(17);
  lyra::ClusterState cluster;
  std::vector<std::unique_ptr<lyra::Job>> jobs;
  std::vector<lyra::Job*> queue;
  std::vector<lyra::Job*> running;
  lyra::SchedulerContext ctx;
  ctx.cluster = &cluster;
  ctx.queue_id = lyra::NewQueueId();
  const auto make_job = [&](int gpus_per_worker, int min_workers, int max_workers) {
    lyra::JobSpec spec;
    spec.id = lyra::JobId(static_cast<std::int64_t>(jobs.size()));
    spec.gpus_per_worker = gpus_per_worker;
    spec.min_workers = min_workers;
    spec.max_workers = max_workers;
    spec.fungible = rng.NextBernoulli(0.3);
    spec.total_work = rng.Uniform(100.0, 1e6);
    jobs.push_back(std::make_unique<lyra::Job>(spec));
    return jobs.back().get();
  };
  for (int s = 0; s < 110; ++s) {
    const lyra::ServerId server =
        cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
    lyra::Job* job = make_job(2, 3, 6);
    cluster.Place(job->id(), server, 6, /*flexible=*/false);
    cluster.Place(job->id(), server, 2, /*flexible=*/true);
    running.push_back(job);
  }
  ctx.running = running;
  static constexpr int kGpusPerWorker[] = {1, 2, 4, 8};
  for (int p = 0; p < pending; ++p) {
    const int min_workers = static_cast<int>(rng.UniformInt(1, 4));
    lyra::Job* job = make_job(kGpusPerWorker[rng.UniformInt(0, 3)], min_workers,
                              min_workers + static_cast<int>(rng.UniformInt(0, 4)));
    job->StampQueueSeq();
    queue.push_back(job);
  }
  ctx.pending = queue;
  lyra::MckpSolver solver;
  lyra::PendingIndex index;
  lyra::AllocationDecision decision;
  for (auto _ : state) {
    ++ctx.round;
    lyra::TwoPhaseAllocate(ctx, {}, solver, index, decision);
    benchmark::DoNotOptimize(decision.launches.size());
  }
}
BENCHMARK(BM_TwoPhaseAllocate)->Arg(64)->Arg(8192);

// One warm Lyra placement round over range(0) running elastic jobs whose
// knapsack targets equal their current flexible workers, so nothing moves:
// it measures only the reads of ApplyAllocation's scale-in and scale-out
// passes. Each job holds base and flexible GPUs on its own training server
// and flexible GPUs on the next one; a quarter of them also hold a T4
// on-loan server's worth of flexible workers, so credits are fractional.
void BM_ApplyAllocationSteady(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lyra::ClusterState cluster;
  std::vector<lyra::ServerId> training;
  std::vector<lyra::ServerId> loaned;
  for (int s = 0; s < n; ++s) {
    training.push_back(
        cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining));
  }
  for (int s = 0; s < n / 4; ++s) {
    loaned.push_back(
        cluster.AddServer(lyra::GpuType::kInferenceT4, 8, lyra::ServerPool::kOnLoan));
  }
  std::vector<std::unique_ptr<lyra::Job>> jobs;
  for (int j = 0; j < n; ++j) {
    lyra::JobSpec spec;
    spec.id = lyra::JobId(j);
    spec.gpus_per_worker = 2;
    spec.min_workers = 2;
    spec.max_workers = 8;
    spec.fungible = true;
    spec.total_work = 1e5;
    jobs.push_back(std::make_unique<lyra::Job>(spec));
    const auto u = static_cast<std::size_t>(j);
    cluster.Place(spec.id, training[u], 4, /*flexible=*/false);
    cluster.Place(spec.id, training[u], 2, /*flexible=*/true);
    cluster.Place(spec.id, training[(u + 1) % training.size()], 2, /*flexible=*/true);
    if (u < loaned.size()) {
      cluster.Place(spec.id, loaned[u], 6, /*flexible=*/true);
    }
  }
  lyra::AllocationDecision decision;
  for (const auto& job : jobs) {
    const int current = lyra::PlacedFlexibleWorkers(cluster, *job);
    decision.flexible_targets.push_back({.job = job.get(), .target = current, .current = current});
  }
  lyra::SchedulerContext ctx;
  ctx.cluster = &cluster;
  for (auto _ : state) {
    const lyra::PlacementStats stats = lyra::ApplyAllocation(ctx, decision);
    benchmark::DoNotOptimize(stats.scale_ins + stats.scale_outs);
  }
}
BENCHMARK(BM_ApplyAllocationSteady)->Arg(256)->Arg(1024);

lyra::ClusterState ReclaimInstance(int servers, std::uint64_t seed) {
  lyra::Rng rng(seed);
  lyra::ClusterState cluster;
  std::vector<lyra::ServerId> ids;
  for (int s = 0; s < servers; ++s) {
    ids.push_back(
        cluster.AddServer(lyra::GpuType::kInferenceT4, 8, lyra::ServerPool::kOnLoan));
  }
  const int jobs = servers * 3 / 2;
  for (int j = 0; j < jobs; ++j) {
    const int spans = static_cast<int>(rng.UniformInt(1, 3));
    const int start = static_cast<int>(rng.UniformInt(0, servers - 1));
    for (int k = 0; k < spans; ++k) {
      const auto& server =
          cluster.server(ids[static_cast<std::size_t>((start + k) % servers)]);
      if (server.free_gpus() >= 2) {
        cluster.Place(lyra::JobId(j), server.id(), 2, false);
      }
    }
  }
  return cluster;
}

void BM_LyraReclaimHeuristic(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster = ReclaimInstance(servers, 11);
    lyra::LyraReclaimPolicy policy;
    state.ResumeTiming();
    benchmark::DoNotOptimize(policy.Reclaim(cluster, servers / 3));
  }
}
BENCHMARK(BM_LyraReclaimHeuristic)->Arg(16)->Arg(64)->Arg(256);

void BM_OptimalReclaimExhaustive(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster = ReclaimInstance(servers, 11);
    lyra::OptimalReclaimPolicy policy;
    state.ResumeTiming();
    benchmark::DoNotOptimize(policy.Reclaim(cluster, servers / 3));
  }
}
// The exhaustive search is exponential: 20 servers is already expensive.
BENCHMARK(BM_OptimalReclaimExhaustive)->Arg(12)->Arg(16)->Arg(20);

void BM_ServerPreemptionCost(benchmark::State& state) {
  const lyra::ClusterState cluster = ReclaimInstance(256, 13);
  const auto servers = cluster.ServersInPool(lyra::ServerPool::kOnLoan);
  for (auto _ : state) {
    double total = 0.0;
    for (lyra::ServerId id : servers) {
      total += lyra::ServerPreemptionCost(cluster, id);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ServerPreemptionCost);

void BM_BestFitPlacement(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster;
    for (int s = 0; s < 443; ++s) {
      cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
    }
    state.ResumeTiming();
    // Place 100 8-GPU jobs best-fit across the full production-scale cluster.
    for (int j = 0; j < 100; ++j) {
      lyra::PlaceRequest request;
      request.job = lyra::JobId(j);
      request.gpus_per_worker = 8;
      request.workers = 1;
      benchmark::DoNotOptimize(lyra::TryPlaceWorkers(cluster, request));
    }
  }
}
BENCHMARK(BM_BestFitPlacement);

// AFS-shaped grants: AFS's greedy loop grants one flexible worker at a time
// through TryPlaceWorkers. The cluster is paper-sized (443 V100 training
// servers plus 260 on-loan T4 servers, 8 GPUs each) and mostly full: ~80% of
// the servers full, the rest partly used by base or flexible fillers. The
// granted job is fungible and holds a base worker on training GPUs, so each
// grant stays on them; it is released after every grant to hold the state.
void BM_TryPlaceWorkersAfsGrant(benchmark::State& state) {
  lyra::ClusterState cluster;
  lyra::Rng rng(29);
  std::int64_t filler = 1;
  const auto add = [&](int count, lyra::GpuType type, lyra::ServerPool pool) {
    for (int s = 0; s < count; ++s) {
      const lyra::ServerId id = cluster.AddServer(type, 8, pool);
      const int used = rng.NextBernoulli(0.8) ? 8 : static_cast<int>(rng.UniformInt(0, 7));
      if (used > 0) {
        cluster.Place(lyra::JobId(filler++), id, used, /*flexible=*/rng.NextBernoulli(0.5));
      }
    }
  };
  add(443, lyra::GpuType::kTrainingV100, lyra::ServerPool::kTraining);
  add(260, lyra::GpuType::kInferenceT4, lyra::ServerPool::kOnLoan);
  lyra::PlaceRequest grant;
  grant.job = lyra::JobId(0);
  grant.gpus_per_worker = 2;
  grant.workers = 1;
  grant.flexible = true;
  grant.fungible = true;
  grant.preference = lyra::PoolPreference::kTrainingFirst;
  lyra::PlaceRequest base = grant;
  base.flexible = false;
  LYRA_CHECK(lyra::TryPlaceWorkers(cluster, base));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::TryPlaceWorkers(cluster, grant));
    cluster.RemoveAllFlexible(grant.job);
  }
}
BENCHMARK(BM_TryPlaceWorkersAfsGrant);

// A baseline's failed launch (PlaceOrHarvest): 443 full V100 training
// servers, each running one job; every sixth job is elastic and holds one
// 2-GPU flexible worker on its server. The launch asks for range(0) 8-GPU
// workers, which fit nowhere: with one, the harvest shrinks four of the 74
// flexible workers and stops; with 24 (192 GPUs), it takes all 74 and makes
// one more pass. The retry fails again either way. The shrunk workers are
// put back, untimed, after every launch.
void BM_HarvestFlexibleGpus(benchmark::State& state) {
  lyra::ClusterState cluster;
  std::vector<std::unique_ptr<lyra::Job>> jobs;
  std::vector<lyra::Job*> holders;
  std::vector<lyra::Job*> running;
  lyra::SchedulerContext ctx;
  ctx.cluster = &cluster;
  for (int s = 0; s < 443; ++s) {
    const lyra::ServerId id =
        cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
    const bool elastic = s % 6 == 0;
    lyra::JobSpec spec;
    spec.id = lyra::JobId(s + 1);
    spec.gpus_per_worker = 2;
    spec.min_workers = elastic ? 3 : 4;
    spec.max_workers = elastic ? 6 : 4;
    spec.total_work = 1e5;
    jobs.push_back(std::make_unique<lyra::Job>(spec));
    cluster.Place(spec.id, id, 6, /*flexible=*/false);
    cluster.Place(spec.id, id, 2, /*flexible=*/elastic);
    running.push_back(jobs.back().get());
    if (elastic) {
      holders.push_back(jobs.back().get());
    }
  }
  ctx.running = running;
  lyra::JobSpec launch;
  launch.id = lyra::JobId(0);
  launch.gpus_per_worker = 8;
  launch.min_workers = static_cast<int>(state.range(0));
  launch.max_workers = launch.min_workers;
  launch.total_work = 1e5;
  const lyra::Job job(launch);
  const lyra::PlaceRequest request = lyra::BaseRequest(job, launch.min_workers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::PlaceOrHarvest(ctx, request));
    state.PauseTiming();
    for (lyra::Job* holder : holders) {
      if (lyra::PlacedFlexibleWorkers(cluster, *holder) == 0) {
        const lyra::JobPlacement* placement = cluster.FindPlacement(holder->id());
        cluster.Place(holder->id(), placement->shares.begin()->first, 2, true);
      }
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_HarvestFlexibleGpus)->Arg(1)->Arg(24);

// --- ClusterState hot operations at 1000-server scale ----------------------
//
// The scheduler tick queries capacity and lists pools many times per event;
// ClusterState answers both from maintained counters and pool indices.

lyra::ClusterState BigCluster(int servers, std::uint64_t seed) {
  lyra::Rng rng(seed);
  lyra::ClusterState cluster;
  std::vector<lyra::ServerId> training;
  for (int s = 0; s < servers; ++s) {
    // 70/30 training/inference mix; a slice of inference is out on loan.
    if (s % 10 < 7) {
      training.push_back(cluster.AddServer(lyra::GpuType::kTrainingV100, 8,
                                           lyra::ServerPool::kTraining));
    } else {
      const lyra::ServerId id = cluster.AddServer(
          lyra::GpuType::kInferenceT4, 8, lyra::ServerPool::kInference);
      if (s % 30 == 9) {
        (void)cluster.LoanServer(id);
      }
    }
  }
  // ~60% occupancy, 1-8 GPUs per job, one server per job.
  for (int j = 0; j < servers; ++j) {
    const lyra::ServerId id = training[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(training.size()) - 1))];
    const auto& server = cluster.server(id);
    if (server.free_gpus() > 0) {
      cluster.Place(lyra::JobId(j), id,
                    static_cast<int>(rng.UniformInt(1, server.free_gpus())),
                    j % 4 == 0);
    }
  }
  return cluster;
}

constexpr lyra::ServerPool kAllPools[] = {lyra::ServerPool::kTraining,
                                          lyra::ServerPool::kInference,
                                          lyra::ServerPool::kOnLoan};

void BM_CapacityQueriesIncremental(benchmark::State& state) {
  const lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    int sum = 0;
    for (lyra::ServerPool pool : kAllPools) {
      sum += cluster.TotalGpus(pool) + cluster.UsedGpus(pool) + cluster.FreeGpus(pool);
    }
    sum += cluster.TrainingSideFreeGpus();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CapacityQueriesIncremental)->Arg(1000);

void BM_PoolListingIndexed(benchmark::State& state) {
  const lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    std::size_t n = 0;
    for (lyra::ServerPool pool : kAllPools) {
      n += cluster.ServersInPool(pool).size();  // const ref, no allocation
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_PoolListingIndexed)->Arg(1000);

// Mutation + query churn: the shape of a scheduler tick — place, query the
// training-side headroom, remove — repeated across the cluster. With the
// incremental counters the queries are O(1).
void BM_ChurnIncremental(benchmark::State& state) {
  lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  const auto& training = cluster.ServersInPool(lyra::ServerPool::kTraining);
  int next = 1 << 20;
  for (auto _ : state) {
    int headroom = 0;
    for (std::size_t i = 0; i < training.size(); ++i) {
      const lyra::ServerId id = training[i];
      if (cluster.server(id).free_gpus() == 0) continue;
      const lyra::JobId job(next++);
      cluster.Place(job, id, 1, true);
      headroom += cluster.TrainingSideFreeGpus();
      cluster.RemoveJob(job);
    }
    benchmark::DoNotOptimize(headroom);
  }
}
BENCHMARK(BM_ChurnIncremental)->Arg(1000);

// Batch worker placement: one 400-worker launch on a 443-server cluster.
// The best-fit placer answers each worker from the free-slot index.
void BM_BatchPlaceBestFit(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster;
    for (int s = 0; s < 443; ++s) {
      cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
    }
    lyra::PlaceRequest request;
    request.job = lyra::JobId(0);
    request.gpus_per_worker = 8;
    request.workers = 400;
    state.ResumeTiming();
    benchmark::DoNotOptimize(lyra::TryPlaceWorkers(cluster, request));
  }
}
BENCHMARK(BM_BatchPlaceBestFit);

// A cluster_stats-shaped reply: the document the service serializes most on
// its hot path (nested objects, mixed numbers/strings/bools).
lyra::JsonValue ServiceReplyDoc() {
  lyra::JsonValue pool = lyra::JsonValue::MakeObject();
  pool.Set("servers", lyra::JsonValue::MakeNumber(22));
  pool.Set("total_gpus", lyra::JsonValue::MakeNumber(176));
  pool.Set("used_gpus", lyra::JsonValue::MakeNumber(131));
  pool.Set("free_gpus", lyra::JsonValue::MakeNumber(45));
  lyra::JsonValue cluster = lyra::JsonValue::MakeObject();
  cluster.Set("training", pool);
  cluster.Set("on_loan", pool);
  cluster.Set("inference", std::move(pool));
  lyra::JsonValue jobs = lyra::JsonValue::MakeObject();
  jobs.Set("total", lyra::JsonValue::MakeNumber(1234));
  jobs.Set("pending", lyra::JsonValue::MakeNumber(17));
  jobs.Set("running", lyra::JsonValue::MakeNumber(980));
  jobs.Set("finished", lyra::JsonValue::MakeNumber(201));
  jobs.Set("cancelled", lyra::JsonValue::MakeNumber(36));
  lyra::JsonValue reply = lyra::JsonValue::MakeObject();
  reply.Set("ok", lyra::JsonValue::MakeBool(true));
  reply.Set("time", lyra::JsonValue::MakeNumber(86400.125));
  reply.Set("driver", lyra::JsonValue::MakeString("virtual"));
  reply.Set("cluster", std::move(cluster));
  reply.Set("jobs", std::move(jobs));
  return reply;
}

// Serialization with the size-estimating reserve (one allocation per Dump).
void BM_JsonDumpReply(benchmark::State& state) {
  const lyra::JsonValue reply = ServiceReplyDoc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reply.Dump());
  }
}
BENCHMARK(BM_JsonDumpReply);

// The event-loop variant: append into a reused payload buffer, amortizing
// even the single allocation away.
void BM_JsonAppendToReply(benchmark::State& state) {
  const lyra::JsonValue reply = ServiceReplyDoc();
  std::string payload;
  for (auto _ : state) {
    payload.clear();
    reply.AppendTo(payload);
    benchmark::DoNotOptimize(payload.data());
  }
}
BENCHMARK(BM_JsonAppendToReply);

void BM_LstmTrainStep(benchmark::State& state) {
  lyra::LstmOptions options;
  lyra::LstmNetwork network(options);
  std::vector<double> window(10, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.TrainStep(window, 0.6));
  }
}
BENCHMARK(BM_LstmTrainStep);

void BM_LstmForward(benchmark::State& state) {
  lyra::LstmOptions options;
  lyra::LstmNetwork network(options);
  std::vector<double> window(10, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.Forward(window));
  }
}
BENCHMARK(BM_LstmForward);

}  // namespace

BENCHMARK_MAIN();
