// Tests for Lyra's BFD worker placement (§5.3) and the shared placement
// utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/lyra/placement.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

std::unique_ptr<Job> MakeJob(std::int64_t id, int min_w, int max_w, int gpw = 2,
                             bool fungible = false, bool heterogeneous = false) {
  JobSpec spec;
  spec.id = JobId(id);
  spec.gpus_per_worker = gpw;
  spec.min_workers = min_w;
  spec.max_workers = max_w;
  spec.total_work = 1000.0;
  spec.fungible = fungible;
  spec.heterogeneous = heterogeneous;
  return std::make_unique<Job>(spec);
}

// The flexible targets TwoPhaseAllocate builds: a running job holds its
// PlacedFlexibleWorkers as the decision is made, a launch none.
FlexibleTarget RunningTarget(const ClusterState& cluster, Job* job, int target) {
  return {.job = job, .target = target, .current = PlacedFlexibleWorkers(cluster, *job)};
}

FlexibleTarget LaunchTarget(Job* job, int target) {
  return {.job = job, .target = target, .launch = true};
}

// Applies `decision` to `cluster` as Lyra's scheduler does in a scenario
// that allows on-loan placement.
PlacementStats ApplyTo(ClusterState& cluster, const AllocationDecision& decision,
                       const LyraSchedulerOptions& options = {}) {
  SchedulerContext ctx;
  ctx.cluster = &cluster;
  return ApplyAllocation(ctx, decision, options);
}

class PlacementTest : public ::testing::Test {
 protected:
  std::vector<ServerId> AddServers(int count, GpuType type, ServerPool pool) {
    std::vector<ServerId> ids;
    for (int i = 0; i < count; ++i) {
      ids.push_back(cluster_.AddServer(type, 8, pool));
    }
    return ids;
  }

  PlacementStats Apply(const AllocationDecision& decision, bool naive = false) {
    LyraSchedulerOptions options;
    options.naive_placement = naive;
    return ApplyTo(cluster_, decision, options);
  }

  bool JobTouchesPool(JobId id, ServerPool pool) {
    const JobPlacement* p = cluster_.FindPlacement(id);
    if (p == nullptr) {
      return false;
    }
    for (const auto& [server_id, share] : p->shares) {
      if (cluster_.server(server_id).pool() == pool) {
        return true;
      }
    }
    return false;
  }

  ClusterState cluster_;
  std::vector<std::unique_ptr<Job>> jobs_;
};

TEST_F(PlacementTest, InelasticJobPrefersTrainingServers) {
  AddServers(2, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(2, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 2, 2, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kTraining));
  EXPECT_FALSE(JobTouchesPool(JobId(0), ServerPool::kOnLoan));
}

TEST_F(PlacementTest, ElasticFungibleJobPrefersLoanedServers) {
  AddServers(2, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(3, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 2, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kOnLoan));
  EXPECT_FALSE(JobTouchesPool(JobId(0), ServerPool::kTraining));
  // On T4s a nominal worker costs three physical workers: 1 worker * 2 GPUs
  // per worker * 3 = 6 physical GPUs.
  EXPECT_EQ(cluster_.FindPlacement(JobId(0))->total_gpus(), 6);
  EXPECT_EQ(PlacedWorkers(cluster_, *jobs_[0]), 1);
}

TEST_F(PlacementTest, ElasticNonFungibleStaysOnTraining) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(1, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 2, 2, /*fungible=*/false));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kTraining));
  EXPECT_FALSE(JobTouchesPool(JobId(0), ServerPool::kOnLoan));
}

TEST_F(PlacementTest, NaivePlacementSendsElasticToTrainingFirst) {
  AddServers(2, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(2, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 2, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision, /*naive=*/true);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kTraining));
}

TEST_F(PlacementTest, BaseAndFlexibleLandOnSeparateLoanedServers) {
  AddServers(4, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 4, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  decision.flexible_targets.push_back(LaunchTarget(jobs_[0].get(), 1));
  Apply(decision);
  // The base workers and the flexible workers must not share a server, so the
  // flexible group can be released without preemption (§5.3).
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  ASSERT_NE(p, nullptr);
  for (const auto& [server_id, share] : p->shares) {
    EXPECT_TRUE(share.base_gpus == 0 || share.flexible_gpus == 0)
        << "server " << server_id.value << " mixes base and flexible GPUs";
  }
  EXPECT_EQ(PlacedFlexibleWorkers(cluster_, *jobs_[0]), 1);
}

TEST_F(PlacementTest, ScaleInHappensBeforeLaunches) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  // Elastic job holds the whole server: 4 base + 4 flexible.
  jobs_.push_back(MakeJob(0, 2, 4, 2));
  cluster_.Place(JobId(0), ServerId(0), 4, false);
  cluster_.Place(JobId(0), ServerId(0), 4, true);
  // New inelastic job needs 4 GPUs.
  jobs_.push_back(MakeJob(1, 2, 2, 2));
  AllocationDecision decision;
  decision.flexible_targets.push_back(
      RunningTarget(cluster_, jobs_[0].get(), 0));  // shrink to base
  decision.launches.push_back(jobs_[1].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.scale_ins, 2);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_EQ(cluster_.FindPlacement(JobId(0))->total_gpus(), 4);
  EXPECT_EQ(cluster_.FindPlacement(JobId(1))->total_gpus(), 4);
}

// A mixed V100/T4 scale-in can undershoot its target: the decision read two
// flexible workers (2⅓ credit), and shrinking to one removes both V100
// workers, leaving ⅓. ApplyAllocation reads the shrunk job again, so the
// scale-out grows it back to one worker on the T4 server.
TEST_F(PlacementTest, ScaleOutMakesUpAShrinkThatUndershot) {
  const ServerId v100 = AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining)[0];
  const ServerId t4 = AddServers(1, GpuType::kInferenceT4, ServerPool::kOnLoan)[0];
  jobs_.push_back(MakeJob(0, 1, 4, 2, /*fungible=*/false, /*heterogeneous=*/true));
  cluster_.Place(JobId(0), v100, 2, false);
  cluster_.Place(JobId(0), v100, 4, true);
  cluster_.Place(JobId(0), t4, 2, true);
  AllocationDecision decision;
  decision.flexible_targets.push_back(RunningTarget(cluster_, jobs_[0].get(), 1));
  ASSERT_EQ(decision.flexible_targets[0].current, 2);
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.scale_ins, 1);
  EXPECT_EQ(stats.scale_outs, 1);
  EXPECT_EQ(cluster_.server(v100).JobGpus(JobId(0)), 2);  // base only
  EXPECT_EQ(cluster_.server(t4).JobGpus(JobId(0)), 8);
  EXPECT_EQ(PlacedFlexibleWorkers(cluster_, *jobs_[0]), 1);
}

TEST_F(PlacementTest, AllOrNothingLaunchFailureLeavesNoResidue) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  jobs_.push_back(MakeJob(0, 3, 3, 4));  // needs 12 GPUs, only 8 exist
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.launched, 0);
  EXPECT_EQ(stats.launch_failures, 1);
  EXPECT_EQ(cluster_.FindPlacement(JobId(0)), nullptr);
  EXPECT_EQ(cluster_.UsedGpus(ServerPool::kTraining), 0);
}

TEST_F(PlacementTest, BestFitPrefersTightestNonEmptyServer) {
  const auto servers = AddServers(3, GpuType::kTrainingV100, ServerPool::kTraining);
  // Pre-fill: server0 has 6 used (2 free), server1 has 4 used (4 free).
  cluster_.Place(JobId(90), servers[0], 6, false);
  cluster_.Place(JobId(91), servers[1], 4, false);
  jobs_.push_back(MakeJob(0, 1, 1, 2));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  // The 2-GPU worker best-fits server0's 2 free GPUs.
  EXPECT_EQ(cluster_.server(servers[0]).JobGpus(JobId(0)), 2);
}

TEST_F(PlacementTest, LargerPerWorkerJobsPlaceFirst) {
  const auto servers = AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  (void)servers;
  // An 8-GPU-worker job and two 1-GPU jobs compete for one 8-GPU server. In
  // BFD order the 8-GPU job places first and wins; arrival order would have
  // stranded it.
  jobs_.push_back(MakeJob(0, 1, 1, 1));
  jobs_.push_back(MakeJob(1, 1, 1, 8));
  jobs_.push_back(MakeJob(2, 1, 1, 1));
  AllocationDecision decision;
  decision.launches = {jobs_[0].get(), jobs_[1].get(), jobs_[2].get()};
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_NE(cluster_.FindPlacement(JobId(1)), nullptr);
}

TEST_F(PlacementTest, HeterogeneousBaseOnTrainingFlexibleOnLoaned) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(2, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 2, 4, 2, /*fungible=*/false, /*heterogeneous=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  decision.flexible_targets.push_back(LaunchTarget(jobs_[0].get(), 1));
  Apply(decision);
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  ASSERT_NE(p, nullptr);
  for (const auto& [server_id, share] : p->shares) {
    if (share.base_gpus > 0) {
      EXPECT_EQ(cluster_.server(server_id).pool(), ServerPool::kTraining);
    }
    if (share.flexible_gpus > 0) {
      EXPECT_EQ(cluster_.server(server_id).pool(), ServerPool::kOnLoan);
    }
  }
}

TEST_F(PlacementTest, NonHeterogeneousJobNeverMixesGpuTypes) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(1, GpuType::kInferenceT4, ServerPool::kOnLoan);
  // 3 workers x 2 GPUs = 6 GPUs; neither pool alone has... actually both do.
  // Constrain: fill training partially so only 4 free there.
  cluster_.Place(JobId(99), ServerId(0), 4, false);
  jobs_.push_back(MakeJob(0, 3, 3, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  if (p != nullptr) {
    GpuType type;
    EXPECT_TRUE(CurrentGpuType(cluster_, JobId(0), &type));
  }
}

// --- placement_util coverage -----------------------------------------------

TEST(PlacementUtil, TryPlaceAllOrNothing) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  PlaceRequest request;
  request.job = JobId(0);
  request.gpus_per_worker = 4;
  request.workers = 3;  // 12 GPUs > 8
  EXPECT_FALSE(TryPlaceWorkers(cluster, request));
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kTraining), 0);
  request.workers = 2;
  EXPECT_TRUE(TryPlaceWorkers(cluster, request));
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kTraining), 8);
}

TEST(PlacementUtil, GrowthPinsGpuType) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  // Job already runs on T4; growth must not use the training pool even if
  // preferred.
  cluster.Place(JobId(0), ServerId(1), 2, false);
  PlaceRequest request;
  request.job = JobId(0);
  request.gpus_per_worker = 2;
  request.workers = 2;  // needs 2 nominal workers; T4 has 3 slots * 1/3 = 1
  request.fungible = true;
  request.preference = PoolPreference::kTrainingFirst;
  EXPECT_FALSE(TryPlaceWorkers(cluster, request));
  request.workers = 1;
  EXPECT_TRUE(TryPlaceWorkers(cluster, request));
  GpuType type;
  ASSERT_TRUE(CurrentGpuType(cluster, JobId(0), &type));
  EXPECT_EQ(type, GpuType::kInferenceT4);
}

TEST(PlacementUtil, ProfileForComputesMixAndFactor) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  JobSpec spec;
  spec.id = JobId(0);
  spec.gpus_per_worker = 2;
  spec.min_workers = 1;
  spec.max_workers = 4;
  spec.total_work = 100.0;
  spec.heterogeneous = true;
  Job job(spec);
  cluster.Place(JobId(0), ServerId(0), 2, false);
  cluster.Place(JobId(0), ServerId(1), 2, false);
  const PlacementProfile profile = ProfileFor(cluster, job);
  EXPECT_EQ(profile.workers, 2);
  EXPECT_NEAR(profile.mean_gpu_factor, (1.0 + 1.0 / 3.0) / 2.0, 1e-12);
  EXPECT_TRUE(profile.spans_heterogeneous);
}


// --- Free-server index -------------------------------------------------------
//
// Placement answers each worker from ClusterState's free-slot index. The
// reference below is the rule it implements, run over whole pools with a
// per-worker rescan: each worker goes to the server with the smallest
// (tier, empty, free GPUs, position) among those with room for it. On a
// cluster where most servers are full, both must place the same workers on
// the same servers.

// Adds `count` servers of one pool, 8 GPUs each: ~80% full (base and flexible
// fillers, and some servers shared by a base and a flexible filler), the rest
// partially used or empty.
void AddMostlyFullServers(ClusterState& cluster, Rng& rng, int count, GpuType type,
                          ServerPool pool, std::int64_t& filler) {
  for (int s = 0; s < count; ++s) {
    const ServerId id = cluster.AddServer(type, 8, pool);
    const int used = rng.NextBernoulli(0.8) ? 8 : static_cast<int>(rng.UniformInt(0, 7));
    const int flexible = static_cast<int>(rng.UniformInt(0, used));
    if (used - flexible > 0) {
      cluster.Place(JobId(filler++), id, used - flexible, /*flexible=*/false);
    }
    if (flexible > 0) {
      cluster.Place(JobId(filler++), id, flexible, /*flexible=*/true);
    }
  }
}

// 60 mostly full training servers, plus 60 on-loan ones with `with_loaned`.
ClusterState MostlyFullCluster(Rng& rng, bool with_loaned = false) {
  ClusterState cluster;
  std::int64_t filler = 1000;
  AddMostlyFullServers(cluster, rng, 60, GpuType::kTrainingV100, ServerPool::kTraining,
                       filler);
  if (with_loaned) {
    AddMostlyFullServers(cluster, rng, 60, GpuType::kInferenceT4, ServerPool::kOnLoan,
                         filler);
  }
  return cluster;
}

// How the reference ranks servers: `tier` is evaluated once per server before
// the first worker, as the candidate sets are, and the k-th pool's tiers are
// raised by k * pool_tier_step.
struct ReferenceRule {
  std::vector<ServerPool> pools;
  int (*tier)(const Server&) = nullptr;
  int pool_tier_step = 0;
  bool empty_last = false;
  bool all_or_nothing = false;
};

// Places workers of `gpw` GPUs for `job` by full-pool rescan until `workers`
// nominal worker credit is placed (a worker on an inference GPU counts 1/3)
// or no server has room. With `all_or_nothing`, nothing is placed unless the
// pools have room for all of it. Returns whether the credit was reached.
bool ReferencePlace(ClusterState& cluster, JobId job, int gpw, int workers, bool flexible,
                    const ReferenceRule& rule) {
  std::vector<ServerId> servers;
  std::vector<int> tiers;
  double room = 0.0;
  for (std::size_t p = 0; p < rule.pools.size(); ++p) {
    for (ServerId id : cluster.ServersInPool(rule.pools[p])) {
      const Server& server = cluster.server(id);
      servers.push_back(id);
      tiers.push_back(rule.tier(server) + static_cast<int>(p) * rule.pool_tier_step);
      room += (server.free_gpus() / gpw) * GpuComputeFactor(server.gpu_type());
    }
  }
  if (rule.all_or_nothing && room + kCreditEpsilon < workers) {
    return false;
  }
  double credit = 0.0;
  while (credit + kCreditEpsilon < workers) {
    std::size_t best = servers.size();
    std::tuple<int, bool, int, std::size_t> best_key;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const Server& server = cluster.server(servers[i]);
      if (server.free_gpus() < gpw) {
        continue;
      }
      const std::tuple<int, bool, int, std::size_t> key{
          tiers[i], rule.empty_last && server.idle(), server.free_gpus(), i};
      if (best == servers.size() || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    if (best == servers.size()) {
      return false;
    }
    cluster.Place(job, servers[best], gpw, flexible);
    credit += GpuComputeFactor(cluster.server(servers[best]).gpu_type());
  }
  return true;
}

void ExpectSamePlacement(const ClusterState& actual, const ClusterState& expected,
                         JobId job) {
  const JobPlacement* a = actual.FindPlacement(job);
  const JobPlacement* e = expected.FindPlacement(job);
  ASSERT_EQ(a == nullptr, e == nullptr) << "job " << job.value;
  if (a != nullptr) {
    EXPECT_EQ(a->shares, e->shares) << "job " << job.value;
  }
  actual.AuditInvariants();
}

// The tiers walk the server's shares rather than read its counters, so the
// oracle does not share the placer's bookkeeping.
int NoTier(const Server&) { return 0; }
int BaseDemandTier(const Server& server) {
  for (const auto& [job, share] : server.jobs()) {
    if (share.flexible_gpus > 0) {
      return 1;
    }
  }
  return 0;
}
int FlexibleDemandTier(const Server& server) {
  for (const auto& [job, share] : server.jobs()) {
    if (share.base_gpus > 0) {
      return 1;
    }
  }
  return 0;
}

TEST(FreeServerIndex, PlaceBaseMatchesFullPoolScan) {
  int launched = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ClusterState cluster = MostlyFullCluster(rng);
    const std::vector<ServerId>& training = cluster.ServersInPool(ServerPool::kTraining);
    ASSERT_TRUE(std::any_of(training.begin(), training.end(), [&](ServerId id) {
      return cluster.server(id).free_gpus() == 0;  // some server is full
    }));
    const int gpw = static_cast<int>(rng.UniformInt(1, 4));
    const int workers = static_cast<int>(rng.UniformInt(1, 12));
    // Elastic, so grouped placement puts base demand on flexible-free
    // servers first; non-fungible, so the training pool is its only pool.
    const std::unique_ptr<Job> job = MakeJob(1, workers, workers + 2, gpw);
    ClusterState expected = cluster.Clone();

    AllocationDecision decision;
    decision.launches.push_back(job.get());
    ApplyTo(cluster, decision);
    ReferencePlace(expected, job->id(), gpw, workers, false,
                   {.pools = {ServerPool::kTraining},
                    .tier = BaseDemandTier,
                    .empty_last = true,
                    .all_or_nothing = true});
    ExpectSamePlacement(cluster, expected, job->id());
    launched += cluster.FindPlacement(job->id()) != nullptr ? 1 : 0;
  }
  EXPECT_GT(launched, 10);  // both outcomes are exercised
  EXPECT_LT(launched, 40);
}

TEST(FreeServerIndex, PlaceFlexibleMatchesFullPoolScan) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ClusterState cluster = MostlyFullCluster(rng);
    const int gpw = static_cast<int>(rng.UniformInt(1, 3));
    const std::unique_ptr<Job> job = MakeJob(1, 1, 20, gpw);
    // The job's base worker runs on the first server with room for it, which
    // pins its growth to training GPUs.
    for (ServerId id : cluster.ServersInPool(ServerPool::kTraining)) {
      if (cluster.server(id).free_gpus() >= gpw) {
        cluster.Place(job->id(), id, gpw, /*flexible=*/false);
        break;
      }
    }
    if (cluster.FindPlacement(job->id()) == nullptr) {
      continue;
    }
    const int target = static_cast<int>(rng.UniformInt(1, 19));
    ClusterState expected = cluster.Clone();

    AllocationDecision decision;
    decision.flexible_targets.push_back(RunningTarget(cluster, job.get(), target));
    ApplyTo(cluster, decision);
    ReferencePlace(expected, job->id(), gpw, target, true,
                   {.pools = {ServerPool::kTraining},
                    .tier = FlexibleDemandTier,
                    .empty_last = true});
    ExpectSamePlacement(cluster, expected, job->id());
  }
}

TEST(FreeServerIndex, TryPlaceWorkersMatchesFullPoolScan) {
  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ClusterState cluster = MostlyFullCluster(rng);
    PlaceRequest request;
    request.job = JobId(1);
    request.gpus_per_worker = static_cast<int>(rng.UniformInt(1, 4));
    request.workers = static_cast<int>(rng.UniformInt(1, 12));
    request.flexible = rng.NextBernoulli(0.5);
    request.preference = PoolPreference::kTrainingOnly;
    ClusterState expected = cluster.Clone();

    const bool placed = TryPlaceWorkers(cluster, request);
    ReferencePlace(expected, request.job, request.gpus_per_worker, request.workers,
                   request.flexible,
                   {.pools = {ServerPool::kTraining}, .tier = NoTier, .all_or_nothing = true});
    EXPECT_EQ(placed, expected.FindPlacement(request.job) != nullptr);
    ExpectSamePlacement(cluster, expected, request.job);
    successes += placed ? 1 : 0;
  }
  EXPECT_GT(successes, 10);
  EXPECT_LT(successes, 40);
}

// Training and on-loan pools together: the paths that merge two pools into
// one candidate set, and the fungible job that may use either.
TEST(FreeServerIndex, TwoPoolPlacementMatchesFullPoolScan) {
  int spanning = 0;
  int on_loan = 0;
  int merged_successes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const ClusterState cluster = MostlyFullCluster(rng, /*with_loaned=*/true);
    const int gpw = static_cast<int>(rng.UniformInt(1, 4));
    const int workers = static_cast<int>(rng.UniformInt(1, 16));
    const int target = static_cast<int>(rng.UniformInt(1, 12));

    // A heterogeneous elastic job: base demand on training servers, else
    // spanning both pools; flexible demand on-loan first.
    {
      const std::unique_ptr<Job> job =
          MakeJob(1, workers, workers + target, gpw, false, /*heterogeneous=*/true);
      ClusterState actual = cluster.Clone();
      ClusterState expected = cluster.Clone();
      AllocationDecision decision;
      decision.launches.push_back(job.get());
      decision.flexible_targets.push_back(LaunchTarget(job.get(), target));
      ApplyTo(actual, decision);

      const ReferenceRule base{.pools = {ServerPool::kTraining},
                               .tier = BaseDemandTier,
                               .empty_last = true,
                               .all_or_nothing = true};
      ReferenceRule spanning_base = base;
      spanning_base.pools = {ServerPool::kTraining, ServerPool::kOnLoan};
      spanning_base.pool_tier_step = 2;
      bool launched = ReferencePlace(expected, job->id(), gpw, workers, false, base);
      if (!launched) {
        launched = ReferencePlace(expected, job->id(), gpw, workers, false, spanning_base);
        spanning += launched ? 1 : 0;
      }
      if (launched) {
        ReferencePlace(expected, job->id(), gpw, target, true,
                       {.pools = {ServerPool::kOnLoan, ServerPool::kTraining},
                        .tier = FlexibleDemandTier,
                        .pool_tier_step = 2,
                        .empty_last = true});
      }
      ExpectSamePlacement(actual, expected, job->id());
    }

    // A fungible elastic job: base demand on-loan first, else training; its
    // flexible demand stays on the GPU type its base landed on.
    {
      const std::unique_ptr<Job> job =
          MakeJob(1, workers, workers + target, gpw, /*fungible=*/true);
      ClusterState actual = cluster.Clone();
      ClusterState expected = cluster.Clone();
      AllocationDecision decision;
      decision.launches.push_back(job.get());
      decision.flexible_targets.push_back(LaunchTarget(job.get(), target));
      ApplyTo(actual, decision);

      ReferenceRule base{.pools = {ServerPool::kOnLoan},
                         .tier = BaseDemandTier,
                         .empty_last = true,
                         .all_or_nothing = true};
      bool launched = ReferencePlace(expected, job->id(), gpw, workers, false, base);
      if (!launched) {
        base.pools = {ServerPool::kTraining};
        launched = ReferencePlace(expected, job->id(), gpw, workers, false, base);
      }
      GpuType type;
      if (launched && CurrentGpuType(expected, job->id(), &type)) {
        const ServerPool pool =
            type == GpuType::kInferenceT4 ? ServerPool::kOnLoan : ServerPool::kTraining;
        ReferencePlace(expected, job->id(), gpw, target, true,
                       {.pools = {pool}, .tier = FlexibleDemandTier, .empty_last = true});
        on_loan += pool == ServerPool::kOnLoan ? 1 : 0;
      }
      ExpectSamePlacement(actual, expected, job->id());
    }

    // A heterogeneous baseline request: one tier-0 group of both pools.
    {
      PlaceRequest request;
      request.job = JobId(1);
      request.gpus_per_worker = gpw;
      request.workers = workers + target;
      request.flexible = rng.NextBernoulli(0.5);
      request.heterogeneous = true;
      ClusterState actual = cluster.Clone();
      ClusterState expected = cluster.Clone();
      const bool placed = TryPlaceWorkers(actual, request);
      EXPECT_EQ(placed, ReferencePlace(expected, request.job, gpw, request.workers,
                                       request.flexible,
                                       {.pools = {ServerPool::kTraining, ServerPool::kOnLoan},
                                        .tier = NoTier,
                                        .all_or_nothing = true}));
      ExpectSamePlacement(actual, expected, request.job);
      merged_successes += placed ? 1 : 0;
    }
  }
  // Every path is exercised, both ways where it can fail.
  EXPECT_GT(spanning, 0);
  EXPECT_GT(on_loan, 0);
  EXPECT_LT(on_loan, 40);
  EXPECT_GT(merged_successes, 0);
  EXPECT_LT(merged_successes, 40);
}

// Adds 8-GPU servers of one pool whose free GPUs hold exactly `slots` workers
// of `gpw` GPUs in all, each server a random share of them plus a leftover
// smaller than a worker; the used GPUs are base or flexible fillers.
void AddServersWithSlots(ClusterState& cluster, Rng& rng, GpuType type, ServerPool pool,
                         int gpw, int slots, std::int64_t& filler) {
  while (slots > 0) {
    const ServerId id = cluster.AddServer(type, 8, pool);
    const int here = std::min(slots, static_cast<int>(rng.UniformInt(1, 8 / gpw)));
    const int free =
        here * gpw + static_cast<int>(rng.UniformInt(0, std::min(gpw - 1, 8 - here * gpw)));
    if (free < 8) {
      cluster.Place(JobId(filler++), id, 8 - free, /*flexible=*/rng.NextBernoulli(0.5));
    }
    slots -= here;
  }
}

// The all-or-nothing check counts whole worker slots per GPU type, while the
// reference sums each server's credit as a double. The true capacity is k/3
// for a whole k, so both give the same verdict: on-loan T4 slots worth
// 3w-1, 3w and 3w+1 thirds go against a w-worker request, on the on-loan pool
// alone and on the baselines' merged heterogeneous group (with a few V100
// slots in front, which the request adds to w).
TEST(FreeServerIndex, ThirdsBoundaryMatchesDoubleSum) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const int gpw = static_cast<int>(rng.UniformInt(1, 4));
    const int workers = static_cast<int>(rng.UniformInt(1, 12));
    const int v100_slots = static_cast<int>(rng.UniformInt(0, 3));
    for (int delta : {-1, 0, 1}) {
      ClusterState cluster;
      std::int64_t filler = 1000;
      AddServersWithSlots(cluster, rng, GpuType::kTrainingV100, ServerPool::kTraining, gpw,
                          v100_slots, filler);
      AddServersWithSlots(cluster, rng, GpuType::kInferenceT4, ServerPool::kOnLoan, gpw,
                          3 * workers + delta, filler);
      const bool fits = delta >= 0;
      {
        ClusterState actual = cluster.Clone();
        ClusterState expected = cluster.Clone();
        CandidatePools loaned;
        loaned.Add(ServerPool::kOnLoan);
        const bool placed = PlaceAllOrNothing(actual, JobId(1), gpw, workers,
                                              /*flexible=*/false, loaned);
        EXPECT_EQ(placed, ReferencePlace(expected, JobId(1), gpw, workers, false,
                                         {.pools = {ServerPool::kOnLoan},
                                          .tier = NoTier,
                                          .all_or_nothing = true}));
        EXPECT_EQ(placed, fits) << "seed " << seed << " delta " << delta;
        ExpectSamePlacement(actual, expected, JobId(1));
      }
      {
        PlaceRequest request;
        request.job = JobId(1);
        request.gpus_per_worker = gpw;
        request.workers = workers + v100_slots;
        request.flexible = rng.NextBernoulli(0.5);
        request.heterogeneous = true;
        ClusterState actual = cluster.Clone();
        ClusterState expected = cluster.Clone();
        const bool placed = TryPlaceWorkers(actual, request);
        EXPECT_EQ(placed,
                  ReferencePlace(expected, request.job, gpw, request.workers, request.flexible,
                                 {.pools = {ServerPool::kTraining, ServerPool::kOnLoan},
                                  .tier = NoTier,
                                  .all_or_nothing = true}));
        EXPECT_EQ(placed, fits) << "seed " << seed << " delta " << delta;
        ExpectSamePlacement(actual, expected, request.job);
      }
    }
  }
}

// Every job's shares on the two clusters are the same.
void ExpectSamePlacements(const ClusterState& actual, const ClusterState& expected) {
  ASSERT_EQ(actual.placements().size(), expected.placements().size());
  for (const auto& [job, placement] : expected.placements()) {
    const JobPlacement* a = actual.FindPlacement(job);
    ASSERT_NE(a, nullptr) << "job " << job.value;
    EXPECT_EQ(a->shares, placement.shares) << "job " << job.value;
  }
  actual.AuditInvariants();
}

// The index lives across calls: one cluster runs a sequence of them (launch,
// grow, scale in, grow again, a baseline launch, a crash and a recovery), and
// after each call every placement must match the full-pool rescan run on a
// twin cluster. A bucket left stale by an earlier call shows up as a
// different server choice.
TEST(FreeServerIndex, CallSequenceOnOneClusterMatchesFullPoolScan) {
  int grown_again = 0;
  int recovered_used = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    ClusterState actual = MostlyFullCluster(rng, /*with_loaned=*/true);
    ClusterState expected = actual.Clone();
    const int gpw = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<std::unique_ptr<Job>> jobs;

    // Moves a placed job to `target` flexible workers on the type it holds,
    // as ApplyAllocation does: scale in first, then grow back to the target
    // (a T4 scale-in can undershoot it).
    auto retarget = [&](Job& job, int target) {
      AllocationDecision decision;
      decision.flexible_targets.push_back(RunningTarget(actual, &job, target));
      ApplyTo(actual, decision);
      if (PlacedFlexibleWorkers(expected, job) > target) {
        ShrinkFlexibleTo(expected, job, target);
      }
      const int current = PlacedFlexibleWorkers(expected, job);
      GpuType type;
      if (current < target && CurrentGpuType(expected, job.id(), &type)) {
        const ServerPool pool =
            type == GpuType::kInferenceT4 ? ServerPool::kOnLoan : ServerPool::kTraining;
        ReferencePlace(expected, job.id(), gpw, target - current, true,
                       {.pools = {pool}, .tier = FlexibleDemandTier, .empty_last = true});
      }
      ExpectSamePlacements(actual, expected);
    };
    // Launches an elastic fungible job (on-loan first, else training) and
    // grows it to `target` flexible workers.
    auto launch = [&](int workers, int target) -> Job* {
      jobs.push_back(MakeJob(static_cast<std::int64_t>(jobs.size()) + 1, workers,
                             workers + target, gpw, /*fungible=*/true));
      Job& job = *jobs.back();
      AllocationDecision decision;
      decision.launches.push_back(jobs.back().get());
      ApplyTo(actual, decision);
      ReferenceRule base{.pools = {ServerPool::kOnLoan},
                         .tier = BaseDemandTier,
                         .empty_last = true,
                         .all_or_nothing = true};
      if (!ReferencePlace(expected, job.id(), gpw, workers, false, base)) {
        base.pools = {ServerPool::kTraining};
        ReferencePlace(expected, job.id(), gpw, workers, false, base);
      }
      ExpectSamePlacements(actual, expected);
      if (expected.FindPlacement(job.id()) == nullptr) {
        return nullptr;
      }
      retarget(job, target);
      return &job;
    };

    Job* first = launch(static_cast<int>(rng.UniformInt(1, 4)),
                        static_cast<int>(rng.UniformInt(2, 8)));
    launch(static_cast<int>(rng.UniformInt(1, 4)), static_cast<int>(rng.UniformInt(1, 6)));
    if (first != nullptr) {
      // Scale in, then grow again into what the scale-in freed.
      const int flex = PlacedFlexibleWorkers(expected, *first);
      const int lower = static_cast<int>(rng.UniformInt(0, std::max(0, flex - 1)));
      retarget(*first, lower);
      retarget(*first, flex + 1);
      grown_again += PlacedFlexibleWorkers(expected, *first) > lower ? 1 : 0;
    }

    // A baseline launch through TryPlaceWorkers: training, then on-loan.
    {
      PlaceRequest request;
      request.job = JobId(50);
      request.gpus_per_worker = gpw;
      request.workers = static_cast<int>(rng.UniformInt(1, 6));
      request.fungible = true;
      ClusterState reference = expected.Clone();
      const bool placed = TryPlaceWorkers(actual, request);
      const ReferenceRule training{
          .pools = {ServerPool::kTraining}, .tier = NoTier, .all_or_nothing = true};
      const ReferenceRule loaned{
          .pools = {ServerPool::kOnLoan}, .tier = NoTier, .all_or_nothing = true};
      EXPECT_EQ(placed,
                ReferencePlace(expected, request.job, gpw, request.workers, false, training) ||
                    ReferencePlace(expected, request.job, gpw, request.workers, false, loaned));
      ExpectSamePlacements(actual, expected);
    }

    // A crash: the busiest training server is vacated and goes down on both
    // clusters, a launch must avoid it, and after recovery its empty GPUs
    // are candidates again.
    ServerId victim;
    for (ServerId id : expected.ServersInPool(ServerPool::kTraining)) {
      if (!victim.valid() ||
          expected.server(id).num_jobs() > expected.server(victim).num_jobs()) {
        victim = id;
      }
    }
    for (ClusterState* cluster : {&actual, &expected}) {
      std::vector<JobId> hosted;
      for (const auto& [job, share] : cluster->server(victim).jobs()) {
        hosted.push_back(job);
      }
      for (JobId job : hosted) {
        cluster->RemoveJob(job);
      }
      ASSERT_TRUE(cluster->MarkServerDown(victim).ok());
    }
    ExpectSamePlacements(actual, expected);
    launch(static_cast<int>(rng.UniformInt(1, 4)), static_cast<int>(rng.UniformInt(1, 4)));
    ASSERT_TRUE(actual.MarkServerUp(victim).ok());
    ASSERT_TRUE(expected.MarkServerUp(victim).ok());
    ExpectSamePlacements(actual, expected);
    // Enough V100 workers that training must use the recovered server's
    // empty GPUs if nothing else holds them.
    PlaceRequest request;
    request.job = JobId(60);
    request.gpus_per_worker = gpw;
    request.workers = 8 / gpw;
    request.preference = PoolPreference::kTrainingOnly;
    const bool placed = TryPlaceWorkers(actual, request);
    EXPECT_EQ(placed, ReferencePlace(expected, request.job, gpw, request.workers, false,
                                     {.pools = {ServerPool::kTraining},
                                      .tier = NoTier,
                                      .all_or_nothing = true}));
    ExpectSamePlacements(actual, expected);
    recovered_used += actual.server(victim).idle() ? 0 : 1;
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << seed;
    }
  }
  EXPECT_GT(grown_again, 0);
  EXPECT_GT(recovered_used, 0);
}

}  // namespace
}  // namespace lyra
