// Unit + property tests for the multiple-choice knapsack solver (§5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/lyra/allocation.h"
#include "src/lyra/mckp.h"
#include "src/lyra/placement.h"
#include "src/lyra/reclaim.h"
#include "src/sim/inference_cluster.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

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
// `first_argmax`, when given, receives the last row's first maximum column,
// where the backtrack starts.
MckpSolution ReferenceSolveMckp(const std::vector<MckpGroup>& groups, int capacity,
                                std::size_t* first_argmax = nullptr) {
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
  if (first_argmax != nullptr) {
    *first_argmax = c;
  }
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

void Load(MckpSolver& solver, const std::vector<MckpGroup>& groups, int capacity) {
  solver.Clear(capacity);
  for (const MckpGroup& group : groups) {
    solver.AddGroup();
    for (const MckpItem& item : group.items) {
      solver.AddItem(item.weight, item.value);
    }
  }
}

// Solves through one reused solver (the scheduler's steady state) and checks
// the result against the oracle bit for bit.
void ExpectIdentical(MckpSolver& solver, const std::vector<MckpGroup>& groups,
                     int capacity, const std::string& label) {
  Load(solver, groups, capacity);
  const MckpSolution& got = solver.Solve();
  const MckpSolution want = ReferenceSolveMckp(groups, capacity);
  ASSERT_EQ(got.chosen, want.chosen) << label;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
            std::bit_cast<std::uint64_t>(want.total_value))
      << label << " value " << got.total_value << " vs " << want.total_value;
  ASSERT_EQ(got.total_weight, want.total_weight) << label;
}

// Every build of the row kernel this CPU runs. The oracle tests below solve
// through each one, not only the build a default solver picks.
std::vector<MckpKernel> Kernels() {
  if (MckpAvx2Supported()) {
    return {MckpKernel::kBaseline, MckpKernel::kAvx2};
  }
  return {MckpKernel::kBaseline};
}

const char* KernelName(MckpKernel kernel) {
  return kernel == MckpKernel::kAvx2 ? "avx2 kernel" : "baseline kernel";
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
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    Rng rng(20230521);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 12000; ++instance) {
      int capacity = 0;
      const std::vector<MckpGroup> groups = RandomEdgeInstance(rng, &capacity);
      ExpectIdentical(solver, groups, capacity, "instance " + std::to_string(instance));
    }
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
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    Rng rng(11);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 40; ++instance) {
      const std::vector<MckpGroup> groups = SchedulerShapedInstance(rng);
      for (int capacity : {193, 1013}) {
        ExpectIdentical(solver, groups, capacity,
                        "instance " + std::to_string(instance) + " capacity " +
                            std::to_string(capacity));
      }
    }
  }
}

TEST(MckpReference, ReusedSolverMatchesFreshSolve) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // Shrinking and growing instances through one solver leave no stale rows.
    Rng rng(5);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 200; ++instance) {
      int capacity = 0;
      const std::vector<MckpGroup> groups =
          instance % 2 == 0 ? SchedulerShapedInstance(rng) : RandomEdgeInstance(rng, &capacity);
      if (instance % 2 == 0) {
        capacity = static_cast<int>(rng.UniformInt(0, 600));
      }
      const MckpSolution fresh = SolveMckp(groups, capacity);
      ExpectIdentical(solver, groups, capacity, "instance " + std::to_string(instance));
      EXPECT_EQ(fresh.chosen, solver.Solve().chosen);
    }
  }
}

// --- Backtrack re-derivation ----------------------------------------------------
//
// The solver stores no choices: it re-derives each group's item from two value
// rows, taking nothing when the previous row already holds the cell's value
// and otherwise the first usable item whose candidate equals it. The tests
// below aim at the cases where that rule could pick differently from the
// oracle's strict running max.

std::vector<MckpGroup> LoadedInstance(double big, std::vector<MckpGroup> rest) {
  std::vector<MckpGroup> groups = {Group({{1, big}})};
  for (MckpGroup& group : rest) {
    groups.push_back(std::move(group));
  }
  return groups;
}

TEST(MckpBacktrack, TiesThatAppearOnlyAfterRounding) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // Above 2^56 one ulp is 16, so adding 9, 10 or 12 to 1e17 rounds to the
    // same double: three different items tie at every column past the first.
    // The first of them must be taken, and "none" must win where an item's sum
    // rounds back to the previous row's value (+3 rounds down). At capacity 3
    // group 1 ties items 0 and 2 at column 2, group 2's +3 rounds away, and
    // group 3's +12 rounds up to a new value.
    MckpSolver solver(kernel);
    const double big = 1e17;
    ASSERT_EQ(big + 9.0, big + 12.0);
    ASSERT_EQ(big + 3.0, big);
    const auto groups = LoadedInstance(
        big, {Group({{1, 9.0}, {2, 10.0}, {1, 12.0}}), Group({{1, 3.0}}),
              Group({{1, 3.0}, {1, 12.0}, {2, 9.0}})});
    for (int capacity : {1, 2, 3, 4, 5, 6}) {
      ExpectIdentical(solver, groups, capacity, "capacity " + std::to_string(capacity));
    }
    Load(solver, groups, 3);
    EXPECT_EQ(solver.Solve().chosen, (std::vector<int>{0, 0, -1, 1}));
  }
}

TEST(MckpBacktrack, MatchesOracleOnRandomRoundingTies) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // A large running sum from group 0, then small integer values whose sums
    // collide after rounding, in groups with repeated weights.
    Rng rng(1717);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 3000; ++instance) {
      const double big = std::ldexp(1.0, static_cast<int>(rng.UniformInt(52, 58)));
      std::vector<MckpGroup> rest;
      const int num_groups = static_cast<int>(rng.UniformInt(1, 6));
      for (int g = 0; g < num_groups; ++g) {
        MckpGroup group;
        for (int i = static_cast<int>(rng.UniformInt(1, 6)); i > 0; --i) {
          group.items.push_back({static_cast<int>(rng.UniformInt(0, 4)),
                                 static_cast<double>(rng.UniformInt(1, 40))});
        }
        rest.push_back(std::move(group));
      }
      const int capacity = static_cast<int>(rng.UniformInt(1, 16));
      ExpectIdentical(solver, LoadedInstance(big, std::move(rest)), capacity,
                      "instance " + std::to_string(instance));
    }
  }
}

TEST(MckpBacktrack, MatchesOracleWithNanAndInfiniteValues) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // NaN never beats a cell (every comparison with it is false) and never
    // equals one; +inf saturates, so later +inf candidates tie with it; -inf is
    // not positive and is skipped.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    MckpSolver solver(kernel);
    const std::vector<std::vector<MckpGroup>> fixed = {
        {Group({{1, nan}, {2, 5.0}}), Group({{1, 4.0}, {1, nan}})},
        {Group({{1, inf}}), Group({{1, inf}, {2, inf}}), Group({{1, 7.0}})},
        {Group({{2, -inf}, {1, 3.0}}), Group({{1, inf}, {0, inf}})},
        {Group({{0, nan}, {0, inf}, {0, 1.0}}), Group({{3, nan}, {1, -inf}})},
    };
    for (std::size_t k = 0; k < fixed.size(); ++k) {
      for (int capacity : {1, 2, 3, 5}) {
        ExpectIdentical(solver, fixed[k], capacity,
                        "fixed " + std::to_string(k) + " capacity " + std::to_string(capacity));
      }
    }
    Rng rng(4242);
    for (int instance = 0; instance < 3000; ++instance) {
      std::vector<MckpGroup> groups;
      for (int g = static_cast<int>(rng.UniformInt(1, 5)); g > 0; --g) {
        MckpGroup group;
        for (int i = static_cast<int>(rng.UniformInt(1, 5)); i > 0; --i) {
          double value = static_cast<double>(rng.UniformInt(-1, 6));
          switch (rng.UniformInt(0, 7)) {
            case 0:
              value = nan;
              break;
            case 1:
              value = inf;
              break;
            case 2:
              value = -inf;
              break;
            default:
              break;
          }
          group.items.push_back({static_cast<int>(rng.UniformInt(0, 5)), value});
        }
        groups.push_back(std::move(group));
      }
      const int capacity = static_cast<int>(rng.UniformInt(0, 12));
      ExpectIdentical(solver, groups, capacity, "instance " + std::to_string(instance));
    }
  }
}

TEST(MckpBacktrack, TiedWeightZeroItems) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // Weight-0 items apply at every column, including column 0, and tie with
    // each other and with heavier items.
    MckpSolver solver(kernel);
    const std::vector<MckpGroup> groups = {
        Group({{0, 2.0}, {0, 2.0}, {1, 2.0}}), Group({{0, 1.0}, {1, 3.0}, {0, 3.0}}),
        Group({{1, 1.0}, {0, 1.0}})};
    for (int capacity : {1, 2, 3}) {
      ExpectIdentical(solver, groups, capacity, "capacity " + std::to_string(capacity));
    }
    Rng rng(99);
    for (int instance = 0; instance < 3000; ++instance) {
      std::vector<MckpGroup> random;
      for (int g = static_cast<int>(rng.UniformInt(1, 6)); g > 0; --g) {
        MckpGroup group;
        for (int i = static_cast<int>(rng.UniformInt(1, 5)); i > 0; --i) {
          group.items.push_back({static_cast<int>(rng.UniformInt(0, 1)) * 2,
                                 static_cast<double>(rng.UniformInt(1, 3))});
        }
        random.push_back(std::move(group));
      }
      ExpectIdentical(solver, random, static_cast<int>(rng.UniformInt(1, 6)),
                      "instance " + std::to_string(instance));
    }
  }
}

// The instance phase two builds in the paper-scale Lyra run, as measured:
// 75 elastic jobs, gpus per worker in {1, 2, 4}, max_workers = 2 * min_workers,
// and item k = "grow by k workers" only while k * gpw fits the capacity.
std::vector<MckpGroup> PaperShapedInstance(Rng& rng, int capacity) {
  std::vector<MckpGroup> groups;
  for (int g = 0; g < 75; ++g) {
    static constexpr int kGpusPerWorker[] = {1, 2, 4};
    const int gpw = kGpusPerWorker[rng.UniformInt(0, 2)];
    const int min_workers = static_cast<int>(rng.UniformInt(1, 10));
    const double work = rng.Uniform(100.0, 1e6);
    MckpGroup group;
    for (int k = 1; k <= min_workers && k * gpw <= capacity; ++k) {
      group.items.push_back({k * gpw, work / min_workers - work / (min_workers + k)});
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

TEST(MckpBacktrack, MatchesOracleAtPaperShape) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    Rng rng(403);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 30; ++instance) {
      for (int capacity : {1, 64, 403, 2000}) {
        ExpectIdentical(solver, PaperShapedInstance(rng, capacity), capacity,
                        "instance " + std::to_string(instance) + " capacity " +
                            std::to_string(capacity));
      }
    }
  }
}

TEST(MckpBacktrack, ReusedSolverShrinksFromHugeCapacity) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // A 35,000-column solve leaves a large table and DP row behind; the
    // capacity-3 solves that follow through the same solver must not read them.
    Rng rng(35000);
    std::vector<MckpGroup> huge;
    for (int g = 0; g < 40; ++g) {
      const int gpw = static_cast<int>(rng.UniformInt(60, 125));
      const double work = rng.Uniform(1e3, 1e7);
      MckpGroup group;
      for (int k = 1; k <= 8; ++k) {
        group.items.push_back({k * gpw, work - work / (1 + k)});
      }
      huge.push_back(std::move(group));
    }
    MckpSolver solver(kernel);
    ExpectIdentical(solver, huge, 35000, "capacity 35000");
    ExpectIdentical(solver, huge, 3, "huge instance, capacity 3");
    ExpectIdentical(solver, {Group({{1, 2.0}, {2, 3.0}}), Group({{1, 2.0}, {3, 4.5}})}, 3,
                    "small instance, capacity 3");
    for (int instance = 0; instance < 200; ++instance) {
      int capacity = 0;
      const std::vector<MckpGroup> groups = RandomEdgeInstance(rng, &capacity);
      ExpectIdentical(solver, groups, std::min(capacity, 3),
                      "edge instance " + std::to_string(instance));
    }
  }
}

TEST(Mckp, ChoiceIndexHoldsMoreThanInt16Items) {
  // One job that may grow by up to 40,000 one-GPU workers, 35,000 GPUs free:
  // the best item is "grow by 35,000", index 34,999, past the int16 range.
  MckpSolver solver;
  solver.Clear(35000);
  solver.AddGroup();
  for (int k = 1; k <= 40000; ++k) {
    solver.AddItem(k, static_cast<double>(k));
  }
  const MckpSolution& s = solver.Solve();
  ASSERT_EQ(s.chosen.size(), 1u);
  EXPECT_EQ(s.chosen[0], 34999);
  EXPECT_EQ(s.total_weight, 35000);
  EXPECT_EQ(s.total_value, 35000.0);
}

// --- Reachable region ------------------------------------------------------------
//
// The solver fills each row only from top - D - S_g up (mckp.h class comment)
// and falls back to the full table when the last row's first argmax may lie
// below that. The helpers restate the documented shape from the instance, so
// the tests can aim at it: flat tops that force the fallback, ample capacity
// where the region is a band, and instances recorded from a Lyra run.

bool Usable(const MckpItem& item, int capacity) {
  return item.weight <= capacity && item.value > 0.0;
}

// D, the largest smallest usable weight, and top, the last row's last column.
struct RegionShape {
  int depth = 0;
  int top = 0;
  std::uint64_t usable_items = 0;
};

RegionShape Shape(const std::vector<MckpGroup>& groups, int capacity) {
  RegionShape shape;
  std::int64_t usable_total = 0;
  for (const MckpGroup& group : groups) {
    int lightest = std::numeric_limits<int>::max();
    int heaviest = 0;
    for (const MckpItem& item : group.items) {
      if (Usable(item, capacity)) {
        lightest = std::min(lightest, item.weight);
        heaviest = std::max(heaviest, item.weight);
        ++shape.usable_items;
      }
    }
    if (lightest != std::numeric_limits<int>::max()) {
      shape.depth = std::max(shape.depth, lightest);
    }
    usable_total += heaviest;
  }
  shape.top = static_cast<int>(std::min<std::int64_t>(capacity, usable_total));
  return shape;
}

// Cell updates of one pass over the full table: every usable item tried at
// every column from its weight to its row's last column.
std::uint64_t FullTableCells(const std::vector<MckpGroup>& groups, int capacity) {
  std::uint64_t cells = 0;
  std::int64_t prefix = 0;
  for (const MckpGroup& group : groups) {
    int heaviest = 0;
    for (const MckpItem& item : group.items) {
      if (Usable(item, capacity)) {
        heaviest = std::max(heaviest, item.weight);
      }
    }
    prefix += heaviest;
    const std::int64_t width = std::min<std::int64_t>(capacity, prefix);
    for (const MckpItem& item : group.items) {
      if (Usable(item, capacity) && item.weight <= width) {
        cells += static_cast<std::uint64_t>(width - item.weight + 1);
      }
    }
  }
  return cells;
}

// Cell updates of the region's first pass (mckp.h class comment): every
// usable item of row g tried at the columns [max(w, lo_g), width_g], with
// lo_g = max(0, top - D - S_g). No pass runs when no item weighs anything.
std::uint64_t RegionCells(const std::vector<MckpGroup>& groups, int capacity) {
  const RegionShape shape = Shape(groups, capacity);
  std::vector<std::int64_t> reach;
  std::int64_t usable_total = 0;
  int heaviest_any = 0;
  for (const MckpGroup& group : groups) {
    int heaviest = 0;
    for (const MckpItem& item : group.items) {
      heaviest_any = std::max(heaviest_any, item.weight);
      if (Usable(item, capacity)) {
        heaviest = std::max(heaviest, item.weight);
      }
    }
    reach.push_back(heaviest);
    usable_total += heaviest;
  }
  std::uint64_t cells = 0;
  if (heaviest_any == 0) {
    return cells;
  }
  std::int64_t prefix = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    prefix += reach[g];
    const std::int64_t width = std::min<std::int64_t>(capacity, prefix);
    const std::int64_t lo =
        std::max<std::int64_t>(0, shape.top - shape.depth - (usable_total - prefix));
    for (const MckpItem& item : groups[g].items) {
      if (Usable(item, capacity)) {
        cells += static_cast<std::uint64_t>(width - std::max<std::int64_t>(item.weight, lo) + 1);
      }
    }
  }
  return cells;
}

// Checks an instance whose answer lies more than D below top: the solver must
// match the oracle, and its cell count must include the full second pass.
void ExpectFallback(MckpSolver& solver, const std::vector<MckpGroup>& groups, int capacity,
                    const std::string& label) {
  std::size_t first_argmax = 0;
  ReferenceSolveMckp(groups, capacity, &first_argmax);
  const RegionShape shape = Shape(groups, capacity);
  ASSERT_LT(first_argmax + static_cast<std::size_t>(shape.depth),
            static_cast<std::size_t>(shape.top))
      << label << ": not a flat top";
  ExpectIdentical(solver, groups, capacity, label);
  EXPECT_GT(solver.cell_updates(), FullTableCells(groups, capacity)) << label;
}

TEST(MckpRegion, FlatTopFallsBackToTheFullTable) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    MckpSolver solver(kernel);
    // Heavier items worth less: every group takes its light item, so the best
    // value is reached at column 6 and stays flat up to top = 36.
    std::vector<MckpGroup> lighter_is_better(6, Group({{1, 10.0}, {6, 1.0}}));
    ExpectFallback(solver, lighter_is_better, 100, "lighter is better");
    ExpectFallback(solver, lighter_is_better, 30, "lighter is better, capacity 30");
    // Absorbed sums: above 2^56 adding 3 rounds back, so nothing after the
    // first group raises the row past column 1.
    ExpectFallback(solver,
                   LoadedInstance(1e17, {Group({{1, 3.0}}), Group({{2, 3.0}, {1, 2.0}}),
                                         Group({{1, 3.0}})}),
                   10, "absorbed sums");
    // Saturation: +inf in the first group ties every later cell with it.
    const double inf = std::numeric_limits<double>::infinity();
    ExpectFallback(solver, {Group({{1, inf}}), Group({{3, 4.0}}), Group({{2, 1.0}})}, 9,
                   "+inf saturates");

    // Random instances with falling values per group: the flat ones must fall
    // back, and every one must match the oracle.
    Rng rng(2026);
    int flat = 0;
    for (int instance = 0; instance < 4000; ++instance) {
      std::vector<MckpGroup> groups;
      for (int g = static_cast<int>(rng.UniformInt(1, 6)); g > 0; --g) {
        MckpGroup group;
        double value = static_cast<double>(rng.UniformInt(10, 40));
        int weight = 0;
        for (int i = static_cast<int>(rng.UniformInt(1, 4)); i > 0; --i) {
          weight += static_cast<int>(rng.UniformInt(0, 5));
          value -= static_cast<double>(rng.UniformInt(0, 8));
          group.items.push_back({weight, value});
        }
        groups.push_back(std::move(group));
      }
      const int capacity = static_cast<int>(rng.UniformInt(1, 40));
      const std::string label = "instance " + std::to_string(instance);
      std::size_t first_argmax = 0;
      ReferenceSolveMckp(groups, capacity, &first_argmax);
      const RegionShape shape = Shape(groups, capacity);
      if (first_argmax + static_cast<std::size_t>(shape.depth) <
          static_cast<std::size_t>(shape.top)) {
        ++flat;
        ExpectFallback(solver, groups, capacity, label);
      } else {
        ExpectIdentical(solver, groups, capacity, label);
      }
    }
    EXPECT_GT(flat, 400);
  }
}

TEST(MckpRegion, AmpleCapacitySolvesABand) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // When the capacity covers every group's largest item, row g's region is
    // [P_g - D, P_g]: each usable item is tried at no more than D + 1 columns.
    constexpr int kAmple = 1 << 16;
    Rng rng(4096);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 40; ++instance) {
      const std::vector<MckpGroup> groups =
          instance % 2 == 0 ? SchedulerShapedInstance(rng) : PaperShapedInstance(rng, kAmple);
      const std::string label = "instance " + std::to_string(instance);
      ExpectIdentical(solver, groups, kAmple, label);
      const RegionShape shape = Shape(groups, kAmple);
      ASSERT_LT(shape.top, kAmple) << label;
      EXPECT_LE(solver.cell_updates(),
                static_cast<std::uint64_t>(shape.depth + 1) * shape.usable_items)
          << label;
      EXPECT_LT(solver.cell_updates(), FullTableCells(groups, kAmple) / 4) << label;
    }
  }
}

TEST(MckpRegion, GuardBandKeepsItemsOutOfColumnsBelowTheirWeight) {
  // At capacity 4, row 1's region is [3, 4] and the +inf item of weight 4
  // reads row 0 at column 3 - 4 = -1: 0 < lo_1 = 3 < reach_1 = 4, so row 0's
  // guard band holds that cell. With the guard missing or short, the read
  // lands on a finite cell of the start row, the candidate is +inf at column
  // 3, and the solve no longer matches the oracle (the true row 1 is 2 there).
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<MckpGroup> groups = {Group({{1, 1.0}}), Group({{1, 1.0}, {4, inf}})};
  const RegionShape shape = Shape(groups, 4);
  const int lo = shape.top - shape.depth;
  ASSERT_GT(lo, 0);
  ASSERT_LT(lo, 4);
  // A flat top (group 0's +inf saturates every later cell) falls back to the
  // full table, where row 0's guard is two cells: the +inf item of weight 2
  // reads it at columns 0 and 1.
  const std::vector<MckpGroup> flat = {Group({{1, inf}}), Group({{3, 4.0}, {2, inf}}),
                                       Group({{2, 1.0}})};
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    MckpSolver solver(kernel);
    ExpectIdentical(solver, groups, 4, "region guard");
    ExpectFallback(solver, flat, 9, "full-table guard");
    for (int capacity = 1; capacity <= 8; ++capacity) {
      ExpectIdentical(solver, groups, capacity, "capacity " + std::to_string(capacity));
      ExpectIdentical(solver, flat, capacity, "flat, capacity " + std::to_string(capacity));
    }
  }
}

// Lyra's round with the test's own knapsack solver: after every phase-two
// solve, the instance is read back from the solver.
class RecordingLyraScheduler : public JobScheduler {
 public:
  const char* name() const override { return "lyra-recording"; }
  void Schedule(SchedulerContext& ctx) override {
    const AllocationDecision decision = TwoPhaseAllocate(ctx, {}, &solver_, &pending_);
    // Phase two returns before building an instance when no job is elastic.
    if (!decision.flexible_targets.empty()) {
      std::vector<MckpGroup> groups(solver_.num_groups());
      for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t i = 0; i < solver_.group_size(g); ++i) {
          groups[g].items.push_back(solver_.item(g, i));
        }
      }
      instances_.push_back(std::move(groups));
    }
    ApplyAllocation(ctx, decision);
  }
  const std::vector<std::vector<MckpGroup>>& instances() const { return instances_; }

 private:
  MckpSolver solver_;
  PendingIndex pending_;
  std::vector<std::vector<MckpGroup>> instances_;
};

TEST(MckpRegion, MatchesOracleOnRecordedLyraInstances) {
  // A small overloaded Lyra run with loaning on and half the jobs elastic.
  constexpr std::uint64_t kSeed = 7;
  SyntheticTraceOptions trace_options;
  trace_options.duration = 1 * kDay;
  trace_options.training_gpus = 16 * 8;
  trace_options.target_utilization = 1.5;
  trace_options.seed = kSeed;
  Trace trace = SyntheticTraceGenerator(trace_options).Generate();
  Rng transform_rng(kSeed);
  ApplyElasticFraction(trace, 0.5, transform_rng);
  SimulatorOptions options;
  options.training_servers = 16;
  options.enable_loaning = true;
  options.seed = kSeed;
  RecordingLyraScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator simulator(options, trace, &scheduler, &reclaim,
                      MakeInferenceCluster(20, trace.duration, kSeed, nullptr));
  simulator.Run();
  ASSERT_GT(scheduler.instances().size(), 200u);

  // The round's capacity is not part of the instance, but every item was
  // built to fit it, so replay each instance from its heaviest item (the
  // least such capacity) up to ample capacity.
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    Rng rng(kSeed);
    MckpSolver solver(kernel);
    std::size_t recorded = 0;
    for (const std::vector<MckpGroup>& groups : scheduler.instances()) {
      int heaviest = 1;
      int sum_heaviest = 0;
      for (const MckpGroup& group : groups) {
        int group_heaviest = 0;
        for (const MckpItem& item : group.items) {
          group_heaviest = std::max(group_heaviest, item.weight);
        }
        heaviest = std::max(heaviest, group_heaviest);
        sum_heaviest += group_heaviest;
      }
      const int depth = Shape(groups, heaviest).depth;
      const std::string label = "recorded " + std::to_string(recorded++);
      for (int capacity :
           {heaviest, heaviest + depth, std::max(heaviest, sum_heaviest - 1), sum_heaviest,
            static_cast<int>(rng.UniformInt(heaviest, std::max(heaviest, sum_heaviest))), 4096}) {
        ExpectIdentical(solver, groups, capacity, label + " capacity " + std::to_string(capacity));
      }
    }
  }
}

// --- Items sorted as they arrive -----------------------------------------------
//
// AddItem and the one-pass AddGroup(count, step, value) keep every item and
// copy the usable ones, by the instance's capacity, into the list the solve
// reads, with each group's bounds. The tests mix unusable items (over the
// capacity, weight-0 items worth nothing, zero, negative, NaN and -inf
// values) among usable ones, +inf included.

// A value of each kind, drawn so most items stay usable.
double MixedValue(Rng& rng) {
  switch (rng.UniformInt(0, 9)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return -std::numeric_limits<double>::infinity();
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return 0.0;
    case 4:
      return -rng.Uniform(0.0, 5.0);
    default:
      return rng.Uniform(0.5, 50.0);
  }
}

TEST(MckpOnePass, MixedUnusableItemsMatchTheOracle) {
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    Rng rng(0x1a55);
    MckpSolver solver(kernel);
    for (int instance = 0; instance < 3000; ++instance) {
      std::vector<MckpGroup> groups;
      for (int g = static_cast<int>(rng.UniformInt(1, 9)); g > 0; --g) {
        MckpGroup group;
        for (int i = static_cast<int>(rng.UniformInt(0, 8)); i > 0; --i) {
          group.items.push_back({static_cast<int>(rng.UniformInt(0, 30)), MixedValue(rng)});
        }
        groups.push_back(std::move(group));
      }
      const int capacity = static_cast<int>(rng.UniformInt(0, 80));
      const std::string label = "instance " + std::to_string(instance);
      ExpectIdentical(solver, groups, capacity, label);
      // The instance is kept whole, unusable items included.
      ASSERT_EQ(solver.capacity(), capacity) << label;
      ASSERT_EQ(solver.num_groups(), groups.size()) << label;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        ASSERT_EQ(solver.group_size(g), groups[g].items.size()) << label;
        for (std::size_t i = 0; i < groups[g].items.size(); ++i) {
          ASSERT_EQ(solver.item(g, i).weight, groups[g].items[i].weight) << label;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(solver.item(g, i).value),
                    std::bit_cast<std::uint64_t>(groups[g].items[i].value))
              << label;
        }
      }
      // The cell count, summed per group, is the per-item sum of the
      // region's pass, plus a full-table pass after a fallback.
      const std::uint64_t region = RegionCells(groups, capacity);
      const std::uint64_t cells = solver.cell_updates();
      if (capacity > 0) {
        EXPECT_TRUE(cells == region || cells == region + FullTableCells(groups, capacity))
            << label << ": " << cells << " cells, region " << region;
      }
    }
  }
}

TEST(MckpOnePass, AddGroupBuildsWhatAddItemBuilds) {
  // Lyra's groups: item k - 1 grows a job by k workers of `step` GPUs. The
  // one-pass build must give the same instance, solution and cell count as
  // AddItem, whatever the values, including unusable ones mid-group.
  for (const MckpKernel kernel : Kernels()) {
    SCOPED_TRACE(KernelName(kernel));
    Rng rng(0xadd);
    MckpSolver by_item(kernel);
    MckpSolver by_group(kernel);
    for (int instance = 0; instance < 2000; ++instance) {
      const int capacity = static_cast<int>(rng.UniformInt(0, 120));
      by_item.Clear(capacity);
      by_group.Clear(capacity);
      std::vector<MckpGroup> groups;
      for (int g = static_cast<int>(rng.UniformInt(0, 10)); g > 0; --g) {
        const int count = static_cast<int>(rng.UniformInt(0, 9));
        const int step = static_cast<int>(rng.UniformInt(0, 8));
        std::vector<double> values;
        for (int k = 0; k < count; ++k) {
          values.push_back(rng.NextBernoulli(0.8) ? rng.Uniform(0.1, 100.0) : MixedValue(rng));
        }
        MckpGroup group;
        by_item.AddGroup();
        for (int k = 1; k <= count; ++k) {
          by_item.AddItem(k * step, values[static_cast<std::size_t>(k - 1)]);
          group.items.push_back({k * step, values[static_cast<std::size_t>(k - 1)]});
        }
        by_group.AddGroup(count, step,
                          [&](int k) { return values[static_cast<std::size_t>(k - 1)]; });
        groups.push_back(std::move(group));
      }
      const std::string label = "instance " + std::to_string(instance);
      ASSERT_EQ(by_group.num_groups(), by_item.num_groups()) << label;
      for (std::size_t g = 0; g < by_item.num_groups(); ++g) {
        ASSERT_EQ(by_group.group_size(g), by_item.group_size(g)) << label;
        for (std::size_t i = 0; i < by_item.group_size(g); ++i) {
          ASSERT_EQ(by_group.item(g, i).weight, by_item.item(g, i).weight) << label;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(by_group.item(g, i).value),
                    std::bit_cast<std::uint64_t>(by_item.item(g, i).value))
              << label;
        }
      }
      const MckpSolution want = ReferenceSolveMckp(groups, capacity);
      const MckpSolution& item_solution = by_item.Solve();
      ASSERT_EQ(item_solution.chosen, want.chosen) << label;
      const MckpSolution& group_solution = by_group.Solve();
      ASSERT_EQ(group_solution.chosen, want.chosen) << label;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(group_solution.total_value),
                std::bit_cast<std::uint64_t>(want.total_value))
          << label;
      ASSERT_EQ(group_solution.total_weight, want.total_weight) << label;
      ASSERT_EQ(by_group.cell_updates(), by_item.cell_updates()) << label;
    }
  }
}

}  // namespace
}  // namespace lyra
