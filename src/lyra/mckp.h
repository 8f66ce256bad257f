// Multiple-choice knapsack solver (§5.2).
//
// Lyra's phase-two allocation packs "grow job j by k workers" items into the
// knapsack of remaining GPUs, taking at most one item per job. The problem is
// NP-hard but pseudo-polynomial via dynamic programming over capacity; the
// paper reports sub-hundredth-second solve times at production scale (354
// items, 245 GPUs), which bench_micro_algorithms reproduces.
#ifndef SRC_LYRA_MCKP_H_
#define SRC_LYRA_MCKP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"

namespace lyra {

struct MckpItem {
  int weight = 0;      // GPUs consumed
  double value = 0.0;  // JCT reduction (seconds)
};

// A usable item as the solver keeps it, with its index in its group. The
// index sits where MckpItem has padding, so the row kernel reads 16-byte
// records with the weight and the value where MckpItem holds them.
struct MckpUsableItem {
  int weight = 0;
  int index = 0;
  double value = 0.0;
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
//   solver.Clear(/*capacity=*/4);
//   solver.AddGroup(); solver.AddItem(2, 6.67);
//   solver.AddGroup(); solver.AddItem(1, 20.0); solver.AddItem(2, 30.0);
//   const MckpSolution& s = solver.Solve();
//
// Capacity and weights must be non-negative. An item is usable when its
// weight fits the capacity and its value is positive (so not NaN). The
// capacity comes with the instance, so each item is sorted as it arrives:
// every item is kept (item(g, i)), a usable one is also copied to the list
// the solve reads, and each group keeps its weight bounds, so a solve reads
// per-group bounds and the usable items, never the whole item list.
//
// Group g's row ends at column width_g = min(capacity, P_g), where P_g sums
// the largest usable weight of groups 0..g: no combination of those groups
// weighs more, so every column above P_g repeats column P_g's value. The solver keeps no choice
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
// O(groups + top + sum_g (r_g + 1) * (|usable items of g| + 1)) time, where
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

  // Starts a new instance of the given capacity; every buffer keeps its
  // capacity.
  void Clear(int capacity);

  // Opens the next group. AddItem appends to the most recently opened one.
  void AddGroup() { groups_.push_back(Group{num_items_, num_usable_}); }
  void AddItem(int weight, double value) {
    LYRA_CHECK(!groups_.empty());
    LYRA_CHECK_GE(weight, 0);
    Reserve(1);
    Group& group = groups_.back();
    Append(group, static_cast<int>(num_items_ - group_begin(groups_.size() - 1)), weight,
           value);
  }

  // Opens a group of `count` items, item k - 1 weighing k * step and worth
  // value(k) for k = 1..count: the same instance as AddGroup() and `count`
  // AddItem calls, built in one pass (Lyra's "grow by k workers" groups).
  template <typename Value>
  void AddGroup(int count, int step, const Value& value) {
    LYRA_CHECK_GE(count, 0);
    LYRA_CHECK_GE(step, 0);
    Reserve(static_cast<std::size_t>(count));
    Group group{num_items_, num_usable_};
    for (int k = 1; k <= count; ++k) {
      Append(group, k - 1, k * step, value(k));
    }
    groups_.push_back(group);
  }

  int capacity() const { return capacity_; }
  std::size_t num_groups() const { return groups_.size(); }
  std::size_t group_size(std::size_t g) const { return groups_[g].end - group_begin(g); }
  const MckpItem& item(std::size_t g, std::size_t i) const {
    return items_[group_begin(g) + i];
  }

  // Solves the current instance. The reference stays valid until the next
  // Clear or Solve.
  const MckpSolution& Solve();

  // DP cell updates of the last Solve: sum over usable items of the columns
  // they were tried at, both passes when the region fell back to the full
  // table. A deterministic measure of its cost; it no longer equals the
  // table's size, since an item is tried only inside its row's region.
  std::uint64_t cell_updates() const { return cell_updates_; }

 private:
  // A group's items and bounds, kept as its items arrive, and its row, set
  // by Solve.
  struct Group {
    std::size_t end = 0;         // its items end here in items_
    std::size_t usable_end = 0;  // its usable items end here in usable_
    int max_weight = 0;          // heaviest item
    int reach = 0;               // heaviest usable item
    int min_usable = std::numeric_limits<int>::max();  // lightest usable item
    std::int64_t usable_weight = 0;                    // usable items' weights
    int width = 0;               // last DP column
    int lo = 0;                  // first DP column
    std::size_t row = 0;         // start of the row in table_
  };

  // Makes room for `count` more items in both item buffers.
  void Reserve(std::size_t count) {
    if (items_.size() < num_items_ + count) {
      items_.resize(std::max(num_items_ + count, 2 * items_.size()));
      usable_.resize(items_.size());
    }
  }
  // Appends item `index` of `group`, the open group, and sorts it: every
  // item is kept, a usable one is also copied to the list the solve reads.
  void Append(Group& group, int index, int weight, double value) {
    items_[num_items_++] = {weight, value};
    group.end = num_items_;
    group.max_weight = std::max(group.max_weight, weight);
    if (weight <= capacity_ && value > 0.0) {
      usable_[num_usable_++] = {weight, index, value};
      group.usable_end = num_usable_;
      group.reach = std::max(group.reach, weight);
      group.min_usable = std::min(group.min_usable, weight);
      group.usable_weight += weight;
    }
  }

  std::size_t group_begin(std::size_t g) const { return g == 0 ? 0 : groups_[g - 1].end; }
  std::size_t usable_begin(std::size_t g) const {
    return g == 0 ? 0 : groups_[g - 1].usable_end;
  }
  // Runs the forward pass over columns [lo, width] of every group's row.
  void Fill();

  MckpKernel kernel_;
  int capacity_ = 0;
  // The instance's items, and its usable items by group, in the first
  // num_items_ and num_usable_ cells: the buffers only grow.
  std::vector<MckpItem> items_;
  std::vector<MckpUsableItem> usable_;
  std::size_t num_items_ = 0;
  std::size_t num_usable_ = 0;
  std::vector<Group> groups_;
  std::vector<double> table_;  // every group's rows and guards
  std::uint64_t cell_updates_ = 0;
  MckpSolution solution_;
};

// One-shot convenience over a fresh MckpSolver.
MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity);

}  // namespace lyra

#endif  // SRC_LYRA_MCKP_H_
