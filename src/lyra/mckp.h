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

// The builds of the knapsack's row kernel (mckp.cc). Both fill the same
// values; kAvx2 runs only on a CPU with AVX2.
enum class MckpKernel { kBaseline, kAvx2 };

// Whether this CPU has AVX2; read once per process.
bool MckpAvx2Supported();

// Exact DP solver over a flat, reusable instance. The scheduler keeps one and
// rebuilds the instance every round, so in steady state a solve allocates
// nothing: the items and the value table keep their capacity.
//
//   solver.Clear();
//   solver.AddGroup(); solver.AddItem(2, 6.67);
//   solver.AddGroup(); solver.AddItem(1, 20.0); solver.AddItem(2, 30.0);
//   const MckpSolution& s = solver.Solve(/*capacity=*/4);
//
// Capacity and weights must be non-negative. An item is usable when its
// weight fits the capacity and its value is positive. Group g's row ends at
// column width_g = min(capacity, P_g), where P_g sums the largest usable
// weight of groups 0..g: no combination of those groups weighs more, so every
// column above P_g repeats column P_g's value. The solver keeps no choice
// table: the forward pass is a branch-free running max, and the backtrack
// re-derives each group's choice from two value rows. A strict running max
// keeps the first candidate that reaches a cell's final value, so the
// backtrack takes nothing when the previous row already holds that value, and
// otherwise the first usable item whose candidate equals it.
//
// The backtrack reads only a region near the top of each row, so only that
// region is filled (DESIGN.md "Cost of a Lyra scheduling round"). With top
// the last row's last column, D the largest smallest usable weight of any
// group and S_g the sum of the largest usable weights of the groups after g,
// row g spans columns [max(0, top - D - S_g), width_g]; each of its cells
// reads only region cells of the row before. Rows never fall with the
// column, so when the last row's first region cell is below its maximum, the
// backtrack's start and every cell it reads lie in the region. Otherwise the
// solver fills the full table and backtracks there. A solve takes
// O(items + top + sum_g (r_g + 1) * (|items of g| + 1)) time, where
// r_g <= min(width_g, D + S_g) is row g's region width, or width_g after a
// fallback (whose first pass counts too). With ample capacity, r_g <= D.
//
// The forward pass fills each row in one pass, out[c] = max(prev[c],
// max_j prev[c - w_j] + v_j), blocks of columns outside and the group's
// usable items inside. Each stored row is preceded by a guard band of -inf
// cells as deep as the next group reads below the row's first column,
// max(0, lo_{g-1} + m_g - lo_g) with lo_g row g's first column (lo_{-1} = 0)
// and m_g the group's largest usable weight. A column below an item's weight
// thus reads -inf, and its candidate (-inf, or NaN for a +inf value) never
// wins the select, so the pass has no per-item first column.
// Max over non-NaN doubles does not depend on the order of the items, so
// the cells equal an item-by-item strict running max bit for bit. The pass
// is built twice, for baseline x86-64 (16-byte vectors) and for AVX2
// (32-byte vectors); a default-constructed solver takes the AVX2 build when
// the CPU has it.
class MckpSolver {
 public:
  // Fills with kAvx2 when the CPU has it, with kBaseline otherwise.
  MckpSolver();
  explicit MckpSolver(MckpKernel kernel);

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

  // DP cell updates of the last Solve: sum over usable items of the columns
  // they were tried at, both passes when the region fell back to the full
  // table. A deterministic measure of its cost; it no longer equals the
  // table's size, since an item is tried only inside its row's region.
  std::uint64_t cell_updates() const { return cell_updates_; }

 private:
  std::size_t group_begin(std::size_t g) const {
    return g == 0 ? 0 : group_end_[g - 1];
  }
  // Runs the forward pass over columns [lo_[g], width_[g]] of every row.
  void Fill();

  MckpKernel kernel_;
  std::vector<MckpItem> items_;
  std::vector<std::size_t> group_end_;   // items of group g end here
  std::vector<MckpItem> usable_;         // the usable items, by group
  std::vector<std::size_t> usable_end_;  // usable items of group g end here
  std::vector<int> reach_;               // largest usable weight of group g
  std::vector<int> width_;               // last DP column of group g
  std::vector<int> lo_;                  // first DP column of group g
  std::vector<std::size_t> row_;         // start of group g's row in table_
  std::vector<double> table_;            // every group's rows and guards
  std::uint64_t cell_updates_ = 0;
  MckpSolution solution_;
};

// One-shot convenience over a fresh MckpSolver.
MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity);

}  // namespace lyra

#endif  // SRC_LYRA_MCKP_H_
