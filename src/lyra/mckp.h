// Multiple-choice knapsack solver (§5.2).
//
// Lyra's phase-two allocation packs "grow job j by k workers" items into the
// knapsack of remaining GPUs, taking at most one item per job. The problem is
// NP-hard but pseudo-polynomial via dynamic programming over capacity; the
// paper reports sub-hundredth-second solve times at production scale (354
// items, 245 GPUs), which bench_micro_algorithms reproduces.
#ifndef SRC_LYRA_MCKP_H_
#define SRC_LYRA_MCKP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lyra {

struct MckpItem {
  int weight = 0;      // GPUs consumed
  double value = 0.0;  // JCT reduction (seconds)
};

// One group per elastic job; at most one item may be chosen per group.
struct MckpGroup {
  std::vector<MckpItem> items;
};

struct MckpSolution {
  double total_value = 0.0;
  int total_weight = 0;
  // Chosen item index per group, -1 when the group takes nothing.
  std::vector<int> chosen;
};

// Exact DP solver over a flat, reusable instance. The scheduler keeps one and
// rebuilds the instance every round, so in steady state a solve allocates
// nothing: items, the choice table and the DP rows all keep their capacity.
//
//   solver.Clear();
//   solver.AddGroup(); solver.AddItem(2, 6.67);
//   solver.AddGroup(); solver.AddItem(1, 20.0); solver.AddItem(2, 30.0);
//   const MckpSolution& s = solver.Solve(/*capacity=*/4);
//
// Capacity and weights must be non-negative. An item is usable when its
// weight fits the capacity and its value is positive. Group g only gets DP
// columns up to min(capacity, P_g), where P_g sums the largest usable weight
// of groups 0..g: no combination of those groups weighs more, so every
// column above P_g repeats column P_g's value and choice (DESIGN.md "Cost of
// a Lyra scheduling round"). The choice table therefore holds
// sum_g (min(capacity, P_g) + 1) cells and a solve takes
// O(sum_g min(capacity, P_g) * |items of g|) time.
class MckpSolver {
 public:
  // Starts a new instance; every buffer keeps its capacity.
  void Clear();

  // Opens the next group. AddItem appends to the most recently opened one.
  void AddGroup();
  void AddItem(int weight, double value);

  std::size_t num_groups() const { return group_end_.size(); }
  std::size_t group_size(std::size_t g) const {
    return group_end_[g] - group_begin(g);
  }
  const MckpItem& item(std::size_t g, std::size_t i) const {
    return items_[group_begin(g) + i];
  }

  // Solves the current instance. The reference stays valid until the next
  // Clear or Solve.
  const MckpSolution& Solve(int capacity);

 private:
  std::size_t group_begin(std::size_t g) const {
    return g == 0 ? 0 : group_end_[g - 1];
  }

  std::vector<MckpItem> items_;
  std::vector<std::size_t> group_end_;  // items of group g end here
  std::vector<int> width_;              // last DP column of group g
  std::vector<std::size_t> row_;        // start of group g's row in choice_
  std::vector<std::int32_t> choice_;    // item index taken, -1 = none
  std::vector<double> dp_;
  std::vector<double> next_;
  MckpSolution solution_;
};

// One-shot convenience over a fresh MckpSolver.
MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity);

}  // namespace lyra

#endif  // SRC_LYRA_MCKP_H_
