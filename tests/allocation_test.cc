// Tests for Lyra's two-phase allocation (§5.2), including the worked
// examples of Tables 2-4.
#include <gtest/gtest.h>

#include <memory>

#include "src/lyra/allocation.h"
#include "src/lyra/mckp.h"

namespace lyra {
namespace {

std::unique_ptr<Job> MakeJob(std::int64_t id, double work, int min_w, int max_w,
                             int gpw = 1, bool fungible = false) {
  JobSpec spec;
  spec.id = JobId(id);
  spec.gpus_per_worker = gpw;
  spec.min_workers = min_w;
  spec.max_workers = max_w;
  spec.total_work = work;
  spec.fungible = fungible;
  return std::make_unique<Job>(spec);
}

class AllocationTest : public ::testing::Test {
 protected:
  void AddTrainingServers(int count) {
    for (int i = 0; i < count; ++i) {
      cluster_.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
    }
  }

  SchedulerContext Context() {
    SchedulerContext ctx;
    ctx.cluster = &cluster_;
    ctx.throughput = &model_;
    pending_view_.clear();
    for (auto& job : pending_) {
      pending_view_.push_back(job.get());
    }
    ctx.pending = pending_view_;
    running_view_.clear();
    for (auto& job : running_) {
      running_view_.push_back(job.get());
    }
    ctx.running = running_view_;
    return ctx;
  }

  int FlexTargetOf(const AllocationDecision& decision, JobId id) {
    for (const FlexibleTarget& t : decision.flexible_targets) {
      if (t.job->id() == id) {
        return t.target;
      }
    }
    return -1;
  }

  bool Launches(const AllocationDecision& decision, JobId id) {
    for (const Job* job : decision.launches) {
      if (job->id() == id) {
        return true;
      }
    }
    return false;
  }

  ClusterState cluster_;
  ThroughputModel model_;
  std::vector<std::unique_ptr<Job>> pending_;
  std::vector<Job*> pending_view_;  // what ctx.pending views
  std::vector<Job*> running_view_;  // what ctx.running views
  std::vector<std::unique_ptr<Job>> running_;
};

// Tables 2-3: jobs A (w in [2,6], min time 50 at w=6) and B (w in [2,6], min
// time 20 at w=6) share 8 workers. Work: A = 300, B = 120. The best initial
// allocation is solution 2: favor B (A:2, B:6).
TEST_F(AllocationTest, Table2FavorsJobBInitially) {
  AddTrainingServers(1);  // 8 GPUs, 1 GPU per worker
  pending_.push_back(MakeJob(0, 300.0, 2, 6));
  pending_.push_back(MakeJob(1, 120.0, 2, 6));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_TRUE(Launches(decision, JobId(0)));
  ASSERT_TRUE(Launches(decision, JobId(1)));
  // Phase 2 splits the remaining 4 GPUs by JCT-reduction value: A's items are
  // worth 50/75/90/100 and B's 20/30/36/40, so the knapsack takes A+3 (90)
  // and B+1 (20) for 110 — the myopic optimum over this epoch. (The paper's
  // Table 3 reports the full-horizon optimum; the periodic scheduler closes
  // the gap at later epochs when B finishes and A absorbs its workers.)
  const int a_flex = FlexTargetOf(decision, JobId(0));
  const int b_flex = FlexTargetOf(decision, JobId(1));
  EXPECT_EQ(a_flex + b_flex, 4);
  EXPECT_EQ(a_flex, 3);
  EXPECT_EQ(b_flex, 1);
}

// Table 4: A (w in [2,3], min time 100 at w=3, work 300) and B (w in [2,6],
// min time 20 at w=6, work 120), 8 workers. Favoring A (A:3, B:5) yields
// avg JCT 62 vs 63.33 when favoring B — the SJF counter-example. The MCKP
// values: A +1 worker saves 300/2 - 300/3 = 50; B +1..+4 save 20/..: B at
// w=2 takes 60, +4 -> 20: saves 40. So A's single extra worker (50) beats
// B's fourth extra (items: +1 10, +2 18, +3 24, +4 40 ... compute: 60-120/3=20,
// 60-120/4=30, 60-120/5=36, 60-120/6=40). Capacity 4: best is A+1 (50) +
// B+3 (36) = 86 > B+4 (40) + nothing. So A is favored.
TEST_F(AllocationTest, Table4CounterExamplePrioritizesJobA) {
  AddTrainingServers(1);
  pending_.push_back(MakeJob(0, 300.0, 2, 3));
  pending_.push_back(MakeJob(1, 120.0, 2, 6));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  EXPECT_EQ(FlexTargetOf(decision, JobId(0)), 1);  // A scaled to its max of 3
  EXPECT_EQ(FlexTargetOf(decision, JobId(1)), 3);  // B gets the remainder
}

TEST_F(AllocationTest, Phase1IsShortestJobFirst) {
  AddTrainingServers(1);  // 8 GPUs
  pending_.push_back(MakeJob(0, 800.0, 6, 6));  // long, 6 GPUs
  pending_.push_back(MakeJob(1, 10.0, 6, 6));   // short, 6 GPUs
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  // Only one fits; SJF admits the short one.
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
}

TEST_F(AllocationTest, Phase1SkipsTooBigAndContinues) {
  AddTrainingServers(1);
  pending_.push_back(MakeJob(0, 10.0, 12, 12));  // will not fit ever (12 > 8)
  pending_.push_back(MakeJob(1, 500.0, 4, 4));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
}

TEST_F(AllocationTest, ElasticBaseDemandBeatsElasticFlexibleDemand) {
  AddTrainingServers(1);  // 8 GPUs
  // One running elastic job that could absorb everything, plus a pending
  // inelastic job. The pending base demand must win the capacity.
  running_.push_back(MakeJob(0, 1000.0, 4, 12));
  cluster_.Place(JobId(0), ServerId(0), 4, false);
  pending_.push_back(MakeJob(1, 100.0, 4, 4));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
  EXPECT_EQ(FlexTargetOf(decision, JobId(0)), 0);
}

TEST_F(AllocationTest, FlexibleWorkersCountAsReclaimableCapacity) {
  AddTrainingServers(1);
  // Running elastic job holds 4 base + 4 flexible GPUs: the cluster is full,
  // but the flexible half is available for resizing (§5.2).
  running_.push_back(MakeJob(0, 1000.0, 4, 8));
  cluster_.Place(JobId(0), ServerId(0), 4, false);
  cluster_.Place(JobId(0), ServerId(0), 4, true);
  pending_.push_back(MakeJob(1, 100.0, 4, 4));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
  // The elastic job must shrink back to base.
  EXPECT_EQ(FlexTargetOf(decision, JobId(0)), 0);
}

TEST_F(AllocationTest, NonFungibleJobsCannotUseLoanedCapacity) {
  AddTrainingServers(0);
  cluster_.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  pending_.push_back(MakeJob(0, 100.0, 2, 2, 1, /*fungible=*/false));
  pending_.push_back(MakeJob(1, 100.0, 2, 2, 1, /*fungible=*/true));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
}

TEST_F(AllocationTest, LoanedCapacityIsNormalized) {
  // One loaned T4 server = 8 physical GPUs = 8/3 normalized. A fungible job
  // needing 4 normalized GPUs must not be admitted on it.
  cluster_.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  pending_.push_back(MakeJob(0, 100.0, 4, 4, 1, /*fungible=*/true));
  pending_.push_back(MakeJob(1, 100.0, 2, 2, 1, /*fungible=*/true));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
}

TEST_F(AllocationTest, HeterogeneousJobsAreScheduledLast) {
  AddTrainingServers(1);
  auto hetero = MakeJob(0, 10.0, 8, 8);  // shortest, but heterogeneous
  const_cast<JobSpec&>(hetero->spec()).heterogeneous = true;
  pending_.push_back(std::move(hetero));
  pending_.push_back(MakeJob(1, 10000.0, 8, 8));  // long but normal priority
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
}

TEST_F(AllocationTest, NoElasticJobsMeansNoTargets) {
  AddTrainingServers(1);
  pending_.push_back(MakeJob(0, 100.0, 2, 2));
  SchedulerContext ctx = Context();
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  EXPECT_TRUE(decision.flexible_targets.empty());
}

TEST_F(AllocationTest, InformationAgnosticUsesLeastAttainedService) {
  AddTrainingServers(1);
  // Short job vs long job, both 6 GPUs, only one fits. SJF picks the short
  // one; the information-agnostic variant cannot know and ties on attained
  // service (both zero), keeping arrival order — so the long job (submitted
  // first) wins.
  pending_.push_back(MakeJob(0, 10000.0, 6, 6));
  pending_.push_back(MakeJob(1, 10.0, 6, 6));
  SchedulerContext ctx = Context();
  LyraSchedulerOptions options;
  options.information_agnostic = true;
  const AllocationDecision decision = TwoPhaseAllocate(ctx, options);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(0));
}

TEST_F(AllocationTest, InformationAgnosticPrefersLeastProgressedJobs) {
  AddTrainingServers(1);
  // A checkpointed job that already attained 500s of service was preempted
  // and re-queued; a fresh job with zero attained service must be admitted
  // first under least-attained-service, even though it arrived later.
  auto progressed = MakeJob(0, 1000.0, 6, 6);
  const_cast<JobSpec&>(progressed->spec()).checkpointing = true;
  progressed->Start(0.0, 1.0, 6);
  progressed->Preempt(500.0, 0.0);  // checkpoint keeps the 500s of progress
  auto fresh = MakeJob(1, 1000.0, 6, 6);
  pending_.push_back(std::move(progressed));
  pending_.push_back(std::move(fresh));
  SchedulerContext ctx = Context();
  LyraSchedulerOptions options;
  options.information_agnostic = true;
  const AllocationDecision decision = TwoPhaseAllocate(ctx, options);
  ASSERT_EQ(decision.launches.size(), 1u);
  EXPECT_EQ(decision.launches[0]->id(), JobId(1));
}

TEST_F(AllocationTest, GreedyPhase2RespectsCapacityAndBounds) {
  AddTrainingServers(1);
  pending_.push_back(MakeJob(0, 300.0, 2, 6));
  pending_.push_back(MakeJob(1, 120.0, 2, 6));
  SchedulerContext ctx = Context();
  LyraSchedulerOptions options;
  options.greedy_phase2 = true;
  const AllocationDecision decision = TwoPhaseAllocate(ctx, options);
  int total_flex_gpus = 0;
  for (const auto& [job, flex, current, launch] : decision.flexible_targets) {
    EXPECT_GE(flex, 0);
    EXPECT_LE(flex, job->spec().max_workers - job->spec().min_workers);
    total_flex_gpus += flex * job->spec().gpus_per_worker;
  }
  EXPECT_LE(total_flex_gpus, 4);  // 8 GPUs minus the two base demands
  EXPECT_EQ(total_flex_gpus, 4);  // and greedy fills everything that fits
}

TEST_F(AllocationTest, GreedyMatchesKnapsackOnUniformConcaveInstances) {
  // With equal per-worker GPU sizes and concave value curves the greedy
  // marginal rule is optimal, so both must produce the same total value.
  AddTrainingServers(1);
  pending_.push_back(MakeJob(0, 300.0, 2, 6));
  pending_.push_back(MakeJob(1, 120.0, 2, 6));
  SchedulerContext ctx = Context();
  const AllocationDecision knapsack = TwoPhaseAllocate(ctx);
  LyraSchedulerOptions options;
  options.greedy_phase2 = true;
  const AllocationDecision greedy = TwoPhaseAllocate(ctx, options);
  auto value = [&](const AllocationDecision& d) {
    double total = 0.0;
    for (const auto& [job, flex, current, launch] : d.flexible_targets) {
      total += job->EstimatedRemainingTime(job->spec().min_workers) -
               job->EstimatedRemainingTime(job->spec().min_workers + std::max(flex, 1)) *
                   (flex > 0 ? 1.0 : 0.0);
      if (flex == 0) {
        total += 0.0;
      }
    }
    return total;
  };
  EXPECT_NEAR(value(knapsack), value(greedy), 1e-9);
}

TEST_F(AllocationTest, RespectsDisallowedLoanedPlacement) {
  cluster_.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  pending_.push_back(MakeJob(0, 100.0, 1, 1, 1, /*fungible=*/true));
  SchedulerContext ctx = Context();
  ctx.allow_loaned_placement = false;
  const AllocationDecision decision = TwoPhaseAllocate(ctx);
  EXPECT_TRUE(decision.launches.empty());
}

TEST_F(AllocationTest, HugeMaxWorkersIsBoundedByCapacity) {
  // The daemon accepts any max_workers. Phase two builds only the items that
  // fit this round's 16 GPUs, so the knapsack and the greedy loop both see a
  // 15-item group and grant all 15 free GPUs, with the reused solver too.
  AddTrainingServers(2);
  pending_.push_back(MakeJob(0, 1e6, 1, 1000000, 1));
  SchedulerContext ctx = Context();
  MckpSolver solver;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(FlexTargetOf(TwoPhaseAllocate(ctx, {}, &solver), JobId(0)), 15);
  }
  LyraSchedulerOptions greedy;
  greedy.greedy_phase2 = true;
  EXPECT_EQ(FlexTargetOf(TwoPhaseAllocate(ctx, greedy), JobId(0)), 15);
}

}  // namespace
}  // namespace lyra
