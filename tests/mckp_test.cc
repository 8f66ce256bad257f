// Unit + property tests for the multiple-choice knapsack solver (§5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/lyra/mckp.h"

namespace lyra {
namespace {

MckpGroup Group(std::vector<MckpItem> items) { return MckpGroup{std::move(items)}; }

TEST(Mckp, EmptyProblem) {
  const MckpSolution s = SolveMckp({}, 10);
  EXPECT_EQ(s.total_value, 0.0);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(Mckp, ZeroCapacityTakesNothing) {
  const MckpSolution s = SolveMckp({Group({{1, 5.0}})}, 0);
  EXPECT_EQ(s.chosen[0], -1);
  EXPECT_EQ(s.total_value, 0.0);
}

TEST(Mckp, SingleGroupPicksBestAffordable) {
  const MckpSolution s =
      SolveMckp({Group({{1, 1.0}, {2, 3.0}, {5, 10.0}})}, 3);
  EXPECT_EQ(s.chosen[0], 1);
  EXPECT_DOUBLE_EQ(s.total_value, 3.0);
  EXPECT_EQ(s.total_weight, 2);
}

TEST(Mckp, AtMostOneItemPerGroup) {
  // Taking both items of group 0 (value 8) would beat the optimum if allowed.
  const MckpSolution s =
      SolveMckp({Group({{1, 4.0}, {1, 4.0}}), Group({{1, 5.0}})}, 2);
  EXPECT_DOUBLE_EQ(s.total_value, 9.0);
}

TEST(Mckp, GroupMaySkip) {
  const MckpSolution s = SolveMckp({Group({{3, 1.0}}), Group({{3, 100.0}})}, 3);
  EXPECT_EQ(s.chosen[0], -1);
  EXPECT_EQ(s.chosen[1], 0);
  EXPECT_DOUBLE_EQ(s.total_value, 100.0);
}

TEST(Mckp, IgnoresUnaffordableAndWorthlessItems) {
  const MckpSolution s =
      SolveMckp({Group({{100, 1000.0}, {1, 0.0}, {1, -5.0}, {2, 7.0}})}, 10);
  EXPECT_EQ(s.chosen[0], 3);
  EXPECT_DOUBLE_EQ(s.total_value, 7.0);
}

TEST(Mckp, PaperFigure6Instance) {
  // Fig 6: job A (2 GPUs/worker, one extra worker, value 6.67s) vs job B
  // (1 GPU/worker, up to 4 extra workers). With 2 free GPUs the knapsack
  // prefers A's single item (6.67) over B's 2-GPU item (30)? No: B's item at
  // weight 2 is worth 30 > 6.67, so B wins; with 6 GPUs both fit.
  const MckpGroup job_a = Group({{2, 6.67}});
  const MckpGroup job_b = Group({{1, 20.0}, {2, 30.0}, {3, 36.0}, {4, 40.0}});
  MckpSolution s = SolveMckp({job_a, job_b}, 2);
  EXPECT_EQ(s.chosen[0], -1);
  EXPECT_EQ(s.chosen[1], 1);
  EXPECT_DOUBLE_EQ(s.total_value, 30.0);

  s = SolveMckp({job_a, job_b}, 6);
  EXPECT_EQ(s.chosen[0], 0);
  EXPECT_EQ(s.chosen[1], 3);
  EXPECT_DOUBLE_EQ(s.total_value, 46.67);
}

TEST(Mckp, WeightAccountingMatchesChoices) {
  const MckpSolution s =
      SolveMckp({Group({{2, 5.0}, {4, 9.0}}), Group({{3, 7.0}})}, 7);
  int weight = 0;
  double value = 0.0;
  const std::vector<MckpGroup> groups = {Group({{2, 5.0}, {4, 9.0}}),
                                         Group({{3, 7.0}})};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (s.chosen[g] >= 0) {
      weight += groups[g].items[static_cast<std::size_t>(s.chosen[g])].weight;
      value += groups[g].items[static_cast<std::size_t>(s.chosen[g])].value;
    }
  }
  EXPECT_EQ(weight, s.total_weight);
  EXPECT_DOUBLE_EQ(value, s.total_value);
  EXPECT_LE(s.total_weight, 7);
}

// Exhaustive reference solver for small instances.
double BruteForce(const std::vector<MckpGroup>& groups, int capacity, std::size_t g = 0) {
  if (g == groups.size()) {
    return 0.0;
  }
  double best = BruteForce(groups, capacity, g + 1);  // skip group
  for (const MckpItem& item : groups[g].items) {
    if (item.weight <= capacity) {
      best = std::max(best,
                      item.value + BruteForce(groups, capacity - item.weight, g + 1));
    }
  }
  return best;
}

class MckpRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(MckpRandomProperty, MatchesBruteForceOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int instance = 0; instance < 20; ++instance) {
    const int num_groups = static_cast<int>(rng.UniformInt(1, 5));
    std::vector<MckpGroup> groups;
    for (int g = 0; g < num_groups; ++g) {
      MckpGroup group;
      const int items = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < items; ++i) {
        group.items.push_back(
            {static_cast<int>(rng.UniformInt(1, 6)), rng.Uniform(0.0, 10.0)});
      }
      groups.push_back(std::move(group));
    }
    const int capacity = static_cast<int>(rng.UniformInt(0, 12));
    const MckpSolution dp = SolveMckp(groups, capacity);
    const double reference = BruteForce(groups, capacity);
    EXPECT_NEAR(dp.total_value, reference, 1e-9)
        << "instance " << instance << " capacity " << capacity;
    EXPECT_LE(dp.total_weight, capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpRandomProperty, ::testing::Range(1, 13));

TEST(Mckp, LargeInstanceStaysFast) {
  // The §7.3 runtime claim: 354 items over 245 GPUs solves in well under a
  // second (the paper reports 0.02 s).
  Rng rng(77);
  std::vector<MckpGroup> groups;
  int total_items = 0;
  while (total_items < 354) {
    MckpGroup group;
    const int items = static_cast<int>(rng.UniformInt(2, 8));
    for (int i = 0; i < items; ++i) {
      group.items.push_back(
          {static_cast<int>(rng.UniformInt(1, 16)), rng.Uniform(1.0, 5000.0)});
    }
    total_items += items;
    groups.push_back(std::move(group));
  }
  const MckpSolution s = SolveMckp(groups, 245);
  EXPECT_GT(s.total_value, 0.0);
  EXPECT_LE(s.total_weight, 245);
}

// --- Reference identity --------------------------------------------------------
//
// The full-width DP the solver replaced, kept as the oracle: every
// group gets columns 0..min(capacity, sum of largest weights), and the choice
// table is one int16 row per group. The bounded solver must reproduce its
// choices, value bits and weight exactly, not just an equally good optimum.
MckpSolution ReferenceSolveMckp(const std::vector<MckpGroup>& groups, int capacity) {
  MckpSolution solution;
  solution.chosen.assign(groups.size(), -1);
  if (groups.empty() || capacity == 0) {
    return solution;
  }

  int useful_capacity = 0;
  for (const MckpGroup& group : groups) {
    int max_weight = 0;
    for (const MckpItem& item : group.items) {
      max_weight = std::max(max_weight, item.weight);
    }
    useful_capacity += max_weight;
  }
  const int cap = std::min(capacity, useful_capacity);
  if (cap == 0) {
    return solution;
  }

  const auto width = static_cast<std::size_t>(cap) + 1;
  std::vector<double> dp(width, 0.0);
  std::vector<double> next(width, 0.0);
  std::vector<std::vector<std::int16_t>> choice(
      groups.size(), std::vector<std::int16_t>(width, -1));

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const MckpGroup& group = groups[g];
    next = dp;
    for (std::size_t i = 0; i < group.items.size(); ++i) {
      const MckpItem& item = group.items[i];
      if (item.weight > cap || item.value <= 0.0) {
        continue;
      }
      for (std::size_t c = static_cast<std::size_t>(item.weight); c < width; ++c) {
        const double candidate = dp[c - static_cast<std::size_t>(item.weight)] + item.value;
        if (candidate > next[c]) {
          next[c] = candidate;
          choice[g][c] = static_cast<std::int16_t>(i);
        }
      }
    }
    dp.swap(next);
  }

  std::size_t c = static_cast<std::size_t>(
      std::max_element(dp.begin(), dp.end()) - dp.begin());
  solution.total_value = dp[c];
  for (std::size_t g = groups.size(); g-- > 0;) {
    const int taken = choice[g][c];
    solution.chosen[g] = taken;
    if (taken >= 0) {
      const int weight = groups[g].items[static_cast<std::size_t>(taken)].weight;
      solution.total_weight += weight;
      c -= static_cast<std::size_t>(weight);
    }
  }
  return solution;
}

// Solves through one reused solver (the scheduler's steady state) and checks
// the result against the oracle bit for bit.
void ExpectIdentical(MckpSolver& solver, const std::vector<MckpGroup>& groups,
                     int capacity, const std::string& label) {
  solver.Clear();
  for (const MckpGroup& group : groups) {
    solver.AddGroup();
    for (const MckpItem& item : group.items) {
      solver.AddItem(item.weight, item.value);
    }
  }
  const MckpSolution& got = solver.Solve(capacity);
  const MckpSolution want = ReferenceSolveMckp(groups, capacity);
  ASSERT_EQ(got.chosen, want.chosen) << label;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
            std::bit_cast<std::uint64_t>(want.total_value))
      << label << " value " << got.total_value << " vs " << want.total_value;
  ASSERT_EQ(got.total_weight, want.total_weight) << label;
}

// Random instances aimed at the bounded table's edges: ties in value and
// weight, zero weights, non-positive values, weights above the capacity,
// capacity 0, and groups that are empty or have no usable item.
std::vector<MckpGroup> RandomEdgeInstance(Rng& rng, int* capacity) {
  const int num_groups = static_cast<int>(rng.UniformInt(0, 8));
  const int max_weight = static_cast<int>(rng.UniformInt(1, 24));
  const bool coarse_values = rng.NextBernoulli(0.5);  // many exact ties
  std::vector<MckpGroup> groups;
  for (int g = 0; g < num_groups; ++g) {
    MckpGroup group;
    const int items = static_cast<int>(rng.UniformInt(0, 7));
    const bool unusable = rng.NextBernoulli(0.15);
    for (int i = 0; i < items; ++i) {
      MckpItem item;
      item.weight = rng.NextBernoulli(0.1) ? 0 : static_cast<int>(rng.UniformInt(1, max_weight));
      if (unusable) {
        item.value = -static_cast<double>(rng.UniformInt(0, 3));
      } else if (coarse_values) {
        item.value = static_cast<double>(rng.UniformInt(-2, 6));
      } else {
        item.value = rng.Uniform(-1.0, 10.0);
      }
      group.items.push_back(item);
    }
    groups.push_back(std::move(group));
  }
  *capacity = rng.NextBernoulli(0.1) ? 0 : static_cast<int>(rng.UniformInt(1, 3 * max_weight));
  return groups;
}

TEST(MckpReference, MatchesOracleOnRandomEdgeInstances) {
  Rng rng(20230521);
  MckpSolver solver;
  for (int instance = 0; instance < 12000; ++instance) {
    int capacity = 0;
    const std::vector<MckpGroup> groups = RandomEdgeInstance(rng, &capacity);
    ExpectIdentical(solver, groups, capacity, "instance " + std::to_string(instance));
  }
}

// The instance phase two builds on paper-scale runs: ~80 elastic jobs, items
// "grow by k workers" with weight k * gpus_per_worker and a concave JCT
// reduction as value.
std::vector<MckpGroup> SchedulerShapedInstance(Rng& rng) {
  std::vector<MckpGroup> groups;
  for (int g = 0; g < 80; ++g) {
    static constexpr int kGpusPerWorker[] = {1, 2, 4, 8};
    const int gpw = kGpusPerWorker[rng.UniformInt(0, 3)];
    const int min_workers = static_cast<int>(rng.UniformInt(1, 8));
    const int extra = static_cast<int>(rng.UniformInt(0, 24));
    const double work = rng.Uniform(100.0, 1e6);
    const double base_time = work / min_workers;
    MckpGroup group;
    for (int k = 1; k <= extra; ++k) {
      group.items.push_back({k * gpw, base_time - work / (min_workers + k)});
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

TEST(MckpReference, MatchesOracleOnSchedulerShapedInstances) {
  Rng rng(11);
  MckpSolver solver;
  for (int instance = 0; instance < 40; ++instance) {
    const std::vector<MckpGroup> groups = SchedulerShapedInstance(rng);
    for (int capacity : {193, 1013}) {
      ExpectIdentical(solver, groups, capacity,
                      "instance " + std::to_string(instance) + " capacity " +
                          std::to_string(capacity));
    }
  }
}

TEST(MckpReference, ReusedSolverMatchesFreshSolve) {
  // Shrinking and growing instances through one solver leave no stale rows.
  Rng rng(5);
  MckpSolver solver;
  for (int instance = 0; instance < 200; ++instance) {
    int capacity = 0;
    const std::vector<MckpGroup> groups =
        instance % 2 == 0 ? SchedulerShapedInstance(rng) : RandomEdgeInstance(rng, &capacity);
    if (instance % 2 == 0) {
      capacity = static_cast<int>(rng.UniformInt(0, 600));
    }
    const MckpSolution fresh = SolveMckp(groups, capacity);
    ExpectIdentical(solver, groups, capacity, "instance " + std::to_string(instance));
    EXPECT_EQ(fresh.chosen, solver.Solve(capacity).chosen);
  }
}

TEST(Mckp, ChoiceIndexHoldsMoreThanInt16Items) {
  // One job that may grow by up to 40,000 one-GPU workers, 35,000 GPUs free:
  // the best item is "grow by 35,000", index 34,999, past the int16 range.
  MckpSolver solver;
  solver.AddGroup();
  for (int k = 1; k <= 40000; ++k) {
    solver.AddItem(k, static_cast<double>(k));
  }
  const MckpSolution& s = solver.Solve(35000);
  ASSERT_EQ(s.chosen.size(), 1u);
  EXPECT_EQ(s.chosen[0], 34999);
  EXPECT_EQ(s.total_weight, 35000);
  EXPECT_EQ(s.total_value, 35000.0);
}

}  // namespace
}  // namespace lyra
