#include "src/lyra/mckp.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace lyra {
namespace {

// out[i] = max(out[i], prev[i] + value) for i = 0..n-1. The select has no
// branch and stores no choice, so it vectorizes. Kept out of line on its own
// cache line: inlined into Solve, the loop's line crossing moved with
// unrelated code size, and with it the round time.
[[gnu::noinline, gnu::aligned(64)]] void MaxPlusRow(const double* prev, double* out,
                                                    std::size_t n, double value) {
  for (std::size_t i = 0; i < n; ++i) {
    const double candidate = prev[i] + value;
    out[i] = out[i] < candidate ? candidate : out[i];
  }
}

bool Usable(const MckpItem& entry, int capacity) {
  return entry.weight <= capacity && entry.value > 0.0;
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

void MckpSolver::Fill(int cap) {
  // table_ starts with the all-zero start row on [0, width_0]. Group g's row
  // follows, on [lo_g, width_{g+1}]: past width_g it repeats its last value,
  // so the next group reads it in place.
  const std::size_t groups = num_groups();
  const auto extent = [&](std::size_t g) {
    return static_cast<std::size_t>(g + 1 < groups ? width_[g + 1] : width_[g]);
  };
  std::size_t cells = static_cast<std::size_t>(width_[0]) + 1;
  for (std::size_t g = 0; g < groups; ++g) {
    row_[g] = cells;
    cells += extent(g) - static_cast<std::size_t>(lo_[g]) + 1;
  }
  table_.resize(cells);
  std::fill(table_.begin(), table_.begin() + width_[0] + 1, 0.0);

  // Row g starts as the previous row on [lo, width] ("take nothing") and each
  // usable item raises it to the running max. It reads the previous row only
  // at columns >= lo - w >= the previous row's lo (class comment).
  const double* prev = table_.data();
  std::size_t prev_lo = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto width = static_cast<std::size_t>(width_[g]);
    const auto lo = static_cast<std::size_t>(lo_[g]);
    double* out = table_.data() + row_[g];
    std::copy(prev + (lo - prev_lo), prev + (width - prev_lo) + 1, out);
    for (std::size_t i = group_begin(g); i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      if (!Usable(entry, cap)) {
        continue;
      }
      const auto w = static_cast<std::size_t>(entry.weight);
      if (w > width) {
        continue;
      }
      const std::size_t from = std::max(w, lo);
      MaxPlusRow(prev + (from - w - prev_lo), out + (from - lo), width - from + 1, entry.value);
      cell_updates_ += width - from + 1;
    }
    std::fill(out + (width - lo) + 1, out + (extent(g) - lo) + 1, out[width - lo]);
    prev = out;
    prev_lo = lo;
  }
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
  // weight bounds that group's columns below, and the largest smallest
  // usable weight is the region's depth.
  std::int64_t useful_capacity = 0;
  std::int64_t usable_total = 0;
  int depth = 0;
  width_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    // Chosen indices are int: a group must not hold more items.
    LYRA_CHECK_LE(group_size(g), static_cast<std::size_t>(std::numeric_limits<int>::max()));
    int max_weight = 0;
    int max_usable = 0;
    int min_usable = std::numeric_limits<int>::max();
    for (std::size_t i = group_begin(g); i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      max_weight = std::max(max_weight, entry.weight);
      if (Usable(entry, capacity)) {
        max_usable = std::max(max_usable, entry.weight);
        min_usable = std::min(min_usable, entry.weight);
      }
    }
    if (min_usable != std::numeric_limits<int>::max()) {
      depth = std::max(depth, min_usable);
    }
    useful_capacity += max_weight;
    usable_total += max_usable;
    width_[g] = max_usable;
  }
  const int cap = static_cast<int>(std::min<std::int64_t>(capacity, useful_capacity));
  if (cap == 0) {
    return solution_;
  }

  // Group g's last column is min(cap, P_g), with P_g the prefix sum of the
  // largest usable weights, and its first is top - depth - S_g, with S_g the
  // sum of the largest usable weights after g (class comment).
  const std::int64_t top = std::min<std::int64_t>(cap, usable_total);
  const auto top_column = static_cast<std::size_t>(top);
  std::int64_t prefix = 0;
  row_.resize(groups);
  lo_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    prefix += width_[g];
    width_[g] = static_cast<int>(std::min<std::int64_t>(cap, prefix));
    lo_[g] = static_cast<int>(std::max<std::int64_t>(0, top - depth - (usable_total - prefix)));
  }

  // The backtrack starts at the last row's first argmax. Rows never fall
  // with the column, so when the region's first cell is below the maximum,
  // that argmax lies inside the region and the backtrack reads only region
  // cells. Otherwise the answer may lie below it: solve the full table.
  Fill(cap);
  auto lo = static_cast<std::size_t>(lo_[groups - 1]);
  const double* last = table_.data() + row_[groups - 1];
  auto c = static_cast<std::size_t>(std::max_element(last, last + (top_column - lo) + 1) - last);
  if (lo > 0 && !(last[0] < last[c])) {
    std::fill(lo_.begin(), lo_.end(), 0);
    Fill(cap);
    lo = 0;
    last = table_.data() + row_[groups - 1];
    c = static_cast<std::size_t>(std::max_element(last, last + top_column + 1) - last);
  }
  solution_.total_value = last[c];
  c += lo;

  // Backtrack from the best capacity, re-deriving each choice by the
  // first-equal rule (class comment). Columns above a row's last one repeat
  // it, so every row is read at min(column, last column); no read may fall
  // below the row's region.
  const auto cell = [&](std::size_t g, std::size_t col) {
    const std::size_t column = std::min(col, static_cast<std::size_t>(width_[g]));
    LYRA_CHECK_GE(column, static_cast<std::size_t>(lo_[g]));
    return table_[row_[g] + column - static_cast<std::size_t>(lo_[g])];
  };
  for (std::size_t g = groups; g-- > 0;) {
    const std::size_t column = std::min(c, static_cast<std::size_t>(width_[g]));
    const double best = cell(g, column);
    const auto before = [&](std::size_t col) { return g == 0 ? 0.0 : cell(g - 1, col); };
    c = column;
    if (before(column) == best) {
      continue;
    }
    const std::size_t begin = group_begin(g);
    std::size_t i = begin;
    for (; i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      if (!Usable(entry, cap)) {
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
