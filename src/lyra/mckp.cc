#include "src/lyra/mckp.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace lyra {
namespace {

// out[c] = max(out[c], prev[c-w] + value) for c = w..width. The select has
// no branch and stores no choice, so it vectorizes. Kept out of line on its
// own cache line: inlined into Solve, the loop's line crossing moved with
// unrelated code size, and with it the round time.
[[gnu::noinline, gnu::aligned(64)]] void MaxPlusRow(const double* prev, double* out,
                                                    std::size_t w, std::size_t width,
                                                    double value) {
  for (std::size_t c = w; c <= width; ++c) {
    const double candidate = prev[c - w] + value;
    out[c] = out[c] < candidate ? candidate : out[c];
  }
}

}  // namespace

void MckpSolver::Clear() {
  items_.clear();
  group_end_.clear();
}

void MckpSolver::AddGroup() { group_end_.push_back(items_.size()); }

void MckpSolver::AddItem(int weight, double value) {
  LYRA_CHECK(!group_end_.empty());
  LYRA_CHECK_GE(weight, 0);
  items_.push_back({weight, value});
  ++group_end_.back();
}

const MckpSolution& MckpSolver::Solve(int capacity) {
  LYRA_CHECK_GE(capacity, 0);
  const std::size_t groups = num_groups();
  solution_.total_value = 0.0;
  solution_.total_weight = 0;
  solution_.chosen.assign(groups, -1);
  cell_updates_ = 0;
  if (groups == 0 || capacity == 0) {
    return solution_;
  }

  // Never allocate DP columns beyond what all items together could use. An
  // item above the capacity is never usable; the per-group largest usable
  // weight bounds that group's columns below.
  std::int64_t useful_capacity = 0;
  width_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    // Chosen indices are int: a group must not hold more items.
    LYRA_CHECK_LE(group_size(g), static_cast<std::size_t>(std::numeric_limits<int>::max()));
    int max_weight = 0;
    int max_usable = 0;
    for (std::size_t i = group_begin(g); i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      max_weight = std::max(max_weight, entry.weight);
      if (entry.weight <= capacity && entry.value > 0.0) {
        max_usable = std::max(max_usable, entry.weight);
      }
    }
    useful_capacity += max_weight;
    width_[g] = max_usable;
  }
  const int cap = static_cast<int>(std::min<std::int64_t>(capacity, useful_capacity));
  if (cap == 0) {
    return solution_;
  }

  // Group g's last column: min(cap, P_g) with P_g the prefix sum of the
  // largest usable weights. Rows are laid out back to back.
  std::int64_t prefix = 0;
  std::size_t cells = 0;
  row_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    prefix += width_[g];
    width_[g] = static_cast<int>(std::min<std::int64_t>(cap, prefix));
    row_[g] = cells;
    cells += static_cast<std::size_t>(width_[g]) + 1;
  }
  table_.resize(cells);
  const auto full = static_cast<std::size_t>(cap) + 1;
  if (dp_.size() < full) {
    dp_.resize(full);
  }

  // Forward pass over values only. dp_ holds the previous row, extended past
  // its last column with that column's value; row g of table_ starts as a copy
  // of it ("take nothing") and each usable item raises it to the running max.
  dp_[0] = 0.0;
  std::size_t prev_width = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto width = static_cast<std::size_t>(width_[g]);
    std::fill(dp_.begin() + static_cast<std::ptrdiff_t>(prev_width) + 1,
              dp_.begin() + static_cast<std::ptrdiff_t>(width) + 1, dp_[prev_width]);
    const double* prev = dp_.data();
    double* out = table_.data() + row_[g];
    std::copy(prev, prev + width + 1, out);
    for (std::size_t i = group_begin(g); i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      if (entry.weight > cap || entry.value <= 0.0) {
        continue;
      }
      const auto w = static_cast<std::size_t>(entry.weight);
      if (w > width) {
        continue;
      }
      MaxPlusRow(prev, out, w, width, entry.value);
      cell_updates_ += width - w + 1;
    }
    std::copy(out, out + width + 1, dp_.begin());
    prev_width = width;
  }

  // Backtrack from the best capacity, re-deriving each choice by the
  // first-equal rule (class comment). Columns above a row's last one repeat
  // it, so every row is read at min(column, last column).
  const double* last = table_.data() + row_[groups - 1];
  auto c = static_cast<std::size_t>(std::max_element(last, last + prev_width + 1) - last);
  solution_.total_value = last[c];
  for (std::size_t g = groups; g-- > 0;) {
    const std::size_t column = std::min(c, static_cast<std::size_t>(width_[g]));
    const double best = table_[row_[g] + column];
    const auto before = [&](std::size_t col) {
      return g == 0 ? 0.0
                    : table_[row_[g - 1] + std::min(col, static_cast<std::size_t>(width_[g - 1]))];
    };
    c = column;
    if (before(column) == best) {
      continue;
    }
    const std::size_t begin = group_begin(g);
    std::size_t i = begin;
    for (; i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      if (entry.weight > cap || entry.value <= 0.0) {
        continue;
      }
      const auto w = static_cast<std::size_t>(entry.weight);
      if (w <= column && before(column - w) + entry.value == best) {
        break;
      }
    }
    LYRA_CHECK_LT(i, group_end_[g]);
    solution_.chosen[g] = static_cast<int>(i - begin);
    solution_.total_weight += items_[i].weight;
    c = column - static_cast<std::size_t>(items_[i].weight);
  }
  return solution_;
}

MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity) {
  MckpSolver solver;
  for (const MckpGroup& group : groups) {
    solver.AddGroup();
    for (const MckpItem& entry : group.items) {
      solver.AddItem(entry.weight, entry.value);
    }
  }
  return solver.Solve(capacity);
}

}  // namespace lyra
