#include "src/lyra/mckp.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace lyra {

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
  if (groups == 0 || capacity == 0) {
    return solution_;
  }

  // Never allocate DP columns beyond what all items together could use. An
  // item above the capacity is never usable; the per-group largest usable
  // weight bounds that group's columns below.
  std::int64_t useful_capacity = 0;
  width_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    // Choice indices are int32: a group must not hold more items.
    LYRA_CHECK_LE(group_size(g),
                  static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
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
  choice_.resize(cells);
  const auto full = static_cast<std::size_t>(cap) + 1;
  if (dp_.size() < full) {
    dp_.resize(full);
    next_.resize(full);
  }

  dp_[0] = 0.0;
  std::size_t prev_width = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto width = static_cast<std::size_t>(width_[g]);
    // The previous row is constant beyond its last column: extend it.
    std::fill(dp_.begin() + static_cast<std::ptrdiff_t>(prev_width) + 1,
              dp_.begin() + static_cast<std::ptrdiff_t>(width) + 1, dp_[prev_width]);
    // Default: take nothing from this group.
    std::copy(dp_.begin(), dp_.begin() + static_cast<std::ptrdiff_t>(width) + 1,
              next_.begin());
    std::int32_t* row = choice_.data() + row_[g];
    std::fill(row, row + width + 1, -1);
    const std::size_t begin = group_begin(g);
    for (std::size_t i = begin; i < group_end_[g]; ++i) {
      const MckpItem& entry = items_[i];
      if (entry.weight > cap || entry.value <= 0.0) {
        continue;
      }
      const auto w = static_cast<std::size_t>(entry.weight);
      const auto index = static_cast<std::int32_t>(i - begin);
      for (std::size_t c = w; c <= width; ++c) {
        const double candidate = dp_[c - w] + entry.value;
        if (candidate > next_[c]) {
          next_[c] = candidate;
          row[c] = index;
        }
      }
    }
    dp_.swap(next_);
    prev_width = width;
  }

  // Backtrack from the best capacity. Columns above a row's last one repeat
  // it, so each row is read at min(c, last column).
  auto c = static_cast<std::size_t>(
      std::max_element(dp_.begin(), dp_.begin() + static_cast<std::ptrdiff_t>(prev_width) + 1) -
      dp_.begin());
  solution_.total_value = dp_[c];
  for (std::size_t g = groups; g-- > 0;) {
    const std::size_t column = std::min(c, static_cast<std::size_t>(width_[g]));
    const int taken = choice_[row_[g] + column];
    solution_.chosen[g] = taken;
    if (taken >= 0) {
      const int weight = item(g, static_cast<std::size_t>(taken)).weight;
      solution_.total_weight += weight;
      c -= static_cast<std::size_t>(weight);
    }
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
