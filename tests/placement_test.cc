// Tests for Lyra's BFD worker placement (§5.3) and the shared placement
// utilities.
#include <gtest/gtest.h>

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
    PlacementOptions options;
    options.naive = naive;
    return ApplyAllocation(cluster_, decision, options);
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
  decision.flexible_targets.emplace_back(jobs_[0].get(), 1);
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
  decision.flexible_targets.emplace_back(jobs_[0].get(), 0);  // shrink to base
  decision.launches.push_back(jobs_[1].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.scale_ins, 2);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_EQ(cluster_.FindPlacement(JobId(0))->total_gpus(), 4);
  EXPECT_EQ(cluster_.FindPlacement(JobId(1))->total_gpus(), 4);
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
  decision.flexible_targets.emplace_back(jobs_[0].get(), 1);
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

TEST(PlacementUtil, CountPlaceableWorkersNormalizesT4) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  PlaceRequest request;
  request.job = JobId(0);
  request.gpus_per_worker = 1;
  request.workers = 1;
  request.fungible = true;
  request.preference = PoolPreference::kLoanedOnly;
  // 8 physical 1-GPU workers at 1/3 credit each = 2 nominal workers.
  EXPECT_EQ(CountPlaceableWorkers(cluster, request), 2);
}

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
// Placement builds its candidates from ClusterState::ServersWithFreeGpus. The
// reference below is the rule it implements, run over the whole pool with a
// per-worker rescan: each worker goes to the server with the smallest
// (tier, empty, free GPUs, pool position) among those with room for it. On a
// cluster where most servers are full, both must place the same workers on
// the same servers.

// Training pool, 8 GPUs per server: ~80% full (base and flexible fillers,
// and some servers shared by a base and a flexible filler), the rest
// partially used or empty.
ClusterState MostlyFullCluster(Rng& rng) {
  ClusterState cluster;
  std::int64_t filler = 1000;
  for (int s = 0; s < 60; ++s) {
    const ServerId id = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
    const int used = rng.NextBernoulli(0.8) ? 8 : static_cast<int>(rng.UniformInt(0, 7));
    const int flexible = static_cast<int>(rng.UniformInt(0, used));
    if (used - flexible > 0) {
      cluster.Place(JobId(filler++), id, used - flexible, /*flexible=*/false);
    }
    if (flexible > 0) {
      cluster.Place(JobId(filler++), id, flexible, /*flexible=*/true);
    }
  }
  return cluster;
}

// Places `workers` workers of `gpw` GPUs for `job` on the training pool by
// full-pool rescan. `tier` is evaluated once per server before the first
// worker, as the candidate sets are. With `all_or_nothing`, nothing is placed
// unless every worker fits.
void ReferencePlace(ClusterState& cluster, JobId job, int gpw, int workers, bool flexible,
                    int (*tier)(const Server&), bool empty_last, bool all_or_nothing) {
  const std::vector<ServerId> pool = cluster.ServersInPool(ServerPool::kTraining);
  std::vector<int> tiers;
  int room = 0;
  for (ServerId id : pool) {
    tiers.push_back(tier(cluster.server(id)));
    room += cluster.server(id).free_gpus() / gpw;
  }
  if (all_or_nothing && room < workers) {
    return;
  }
  for (int w = 0; w < workers; ++w) {
    std::size_t best = pool.size();
    std::tuple<int, bool, int, std::size_t> best_key;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Server& server = cluster.server(pool[i]);
      if (server.free_gpus() < gpw) {
        continue;
      }
      const std::tuple<int, bool, int, std::size_t> key{
          tiers[i], empty_last && server.idle(), server.free_gpus(), i};
      if (best == pool.size() || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    if (best == pool.size()) {
      return;
    }
    cluster.Place(job, pool[best], gpw, flexible);
  }
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

int NoTier(const Server&) { return 0; }
int BaseDemandTier(const Server& server) { return server.HasFlexibleGpus() ? 1 : 0; }
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
    ASSERT_LT(cluster.ServersWithFreeGpus(ServerPool::kTraining).size(),
              cluster.ServersInPool(ServerPool::kTraining).size());
    const int gpw = static_cast<int>(rng.UniformInt(1, 4));
    const int workers = static_cast<int>(rng.UniformInt(1, 12));
    // Elastic, so grouped placement puts base demand on flexible-free
    // servers first; non-fungible, so the training pool is its only pool.
    const std::unique_ptr<Job> job = MakeJob(1, workers, workers + 2, gpw);
    ClusterState expected = cluster.Clone();

    AllocationDecision decision;
    decision.launches.push_back(job.get());
    ApplyAllocation(cluster, decision, PlacementOptions{});
    ReferencePlace(expected, job->id(), gpw, workers, false, BaseDemandTier,
                   /*empty_last=*/true, /*all_or_nothing=*/true);
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
    decision.flexible_targets.emplace_back(job.get(), target);
    ApplyAllocation(cluster, decision, PlacementOptions{});
    ReferencePlace(expected, job->id(), gpw, target, true, FlexibleDemandTier,
                   /*empty_last=*/true, /*all_or_nothing=*/false);
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
                   request.flexible, NoTier, /*empty_last=*/false,
                   /*all_or_nothing=*/true);
    EXPECT_EQ(placed, expected.FindPlacement(request.job) != nullptr);
    ExpectSamePlacement(cluster, expected, request.job);
    successes += placed ? 1 : 0;
  }
  EXPECT_GT(successes, 10);
  EXPECT_LT(successes, 40);
}

}  // namespace
}  // namespace lyra
