#include "src/lyra/mckp.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace lyra {
namespace {

// Cells stored past each row's last column: the row kernel's last vector
// may read and write up to three cells past the row (four doubles to a
// 32-byte vector).
constexpr std::size_t kRowPad = 3;

// out[c] = max(prev[c], max_j prev[c - w_j] + v_j) for c = 0..n-1 in one
// pass: column blocks outside, items inside, and kChains independent running
// maxima per block (a single one serialises on the max's latency). The
// select `acc < x ? x : acc` is a branch-free maxpd that never picks NaN, max
// over non-NaN doubles does not depend on the order, and the kernel has no
// multiply to contract, so every cell equals the item-by-item strict running
// max bit for bit. prev must be readable from prev[-max_j w_j] (the guard
// band) to prev[n + lanes - 2]; the last vector may store up to lanes - 1
// cells past out[n - 1].
template <std::size_t kBytes>
[[gnu::always_inline]] inline void FusedRow(const double* prev, double* out, std::size_t n,
                                            const MckpUsableItem* items, std::size_t count) {
  typedef double Vec __attribute__((vector_size(kBytes)));
  constexpr std::size_t kLanes = kBytes / sizeof(double);
  constexpr std::size_t kChains = 128 / kBytes;
  std::size_t c = 0;
  for (; c + kChains * kLanes <= n; c += kChains * kLanes) {
    Vec acc[kChains];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kChains; ++k) {
      __builtin_memcpy(&acc[k], prev + c + k * kLanes, kBytes);
    }
    for (std::size_t j = 0; j < count; ++j) {
      const double* from = prev + c - items[j].weight;
#pragma GCC unroll 8
      for (std::size_t k = 0; k < kChains; ++k) {
        Vec x;
        __builtin_memcpy(&x, from + k * kLanes, kBytes);
        x += items[j].value;
        acc[k] = acc[k] < x ? x : acc[k];
      }
    }
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kChains; ++k) {
      __builtin_memcpy(out + c + k * kLanes, &acc[k], kBytes);
    }
  }
  for (; c < n; c += kLanes) {
    Vec acc;
    __builtin_memcpy(&acc, prev + c, kBytes);
    for (std::size_t j = 0; j < count; ++j) {
      Vec x;
      __builtin_memcpy(&x, prev + c - items[j].weight, kBytes);
      x += items[j].value;
      acc = acc < x ? x : acc;
    }
    __builtin_memcpy(out + c, &acc, kBytes);
  }
}

using RowKernel = void (*)(const double* prev, double* out, std::size_t n,
                           const MckpUsableItem* items, std::size_t count);

// The kernel's two builds, picked once per solver (MckpSolver's
// constructor). Each starts its own cache line: the loops' line crossings
// otherwise move with unrelated code size, and the round time with them.
[[gnu::noinline, gnu::aligned(64)]] void FusedRowBaseline(const double* prev, double* out,
                                                          std::size_t n,
                                                          const MckpUsableItem* items,
                                                          std::size_t count) {
  FusedRow<16>(prev, out, n, items, count);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::noinline, gnu::aligned(64), gnu::target("avx2")]] void FusedRowAvx2(
    const double* prev, double* out, std::size_t n, const MckpUsableItem* items,
    std::size_t count) {
  FusedRow<32>(prev, out, n, items, count);
}
#endif

RowKernel KernelFor(MckpKernel kernel) {
#if defined(__x86_64__) || defined(__i386__)
  if (kernel == MckpKernel::kAvx2) {
    return FusedRowAvx2;
  }
#endif
  return FusedRowBaseline;
}

}  // namespace

bool MckpAvx2Supported() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

MckpSolver::MckpSolver()
    : MckpSolver(MckpAvx2Supported() ? MckpKernel::kAvx2 : MckpKernel::kBaseline) {}

MckpSolver::MckpSolver(MckpKernel kernel) : kernel_(kernel) {
  LYRA_CHECK(kernel != MckpKernel::kAvx2 || MckpAvx2Supported());
}

void MckpSolver::Clear(int capacity) {
  LYRA_CHECK_GE(capacity, 0);
  capacity_ = capacity;
  num_items_ = 0;
  num_usable_ = 0;
  groups_.clear();
}

void MckpSolver::Fill() {
  // table_ holds the all-zero start row on [0, width_0], then group g's row
  // on [lo_g, width_{g+1}]: past width_g it repeats its last value, so the
  // next group reads it in place. Each stored row is preceded by a guard of
  // -inf cells reaching down to the lowest column the next group reads, and
  // followed by kRowPad cells the kernel's last vector may touch.
  const std::size_t groups = num_groups();
  const auto extent = [&](std::size_t g) {
    return static_cast<std::size_t>(g + 1 < groups ? groups_[g + 1].width : groups_[g].width);
  };
  const auto guard = [&](std::size_t g) {
    const int prev_lo = g == 0 ? 0 : groups_[g - 1].lo;
    return static_cast<std::size_t>(std::max(0, prev_lo + groups_[g].reach - groups_[g].lo));
  };
  const std::size_t start = guard(0);
  std::size_t cells = start + static_cast<std::size_t>(groups_[0].width) + 1 + kRowPad;
  for (std::size_t g = 0; g < groups; ++g) {
    cells += g + 1 < groups ? guard(g + 1) : 0;
    groups_[g].row = cells;
    cells += extent(g) - static_cast<std::size_t>(groups_[g].lo) + 1 + kRowPad;
  }
  table_.resize(cells);
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  std::fill(table_.begin(), table_.begin() + start, kNone);
  std::fill(table_.begin() + start, table_.begin() + start + groups_[0].width + 1, 0.0);

  // Row g is the previous row at [lo, width] ("take nothing") raised by each
  // usable item. It reads the previous row at columns >= lo - w, which is
  // either >= the previous row's lo (class comment) or below column 0, in
  // the guard, where -inf + v never wins.
  const RowKernel kernel = KernelFor(kernel_);
  const double* prev = table_.data() + start;
  std::size_t prev_lo = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const Group& group = groups_[g];
    const auto width = static_cast<std::size_t>(group.width);
    const auto lo = static_cast<std::size_t>(group.lo);
    double* out = table_.data() + group.row;
    if (g + 1 < groups) {
      std::fill(out - guard(g + 1), out, kNone);
    }
    const std::size_t begin = usable_begin(g);
    const std::size_t count = group.usable_end - begin;
    kernel(prev + (lo - prev_lo), out, width - lo + 1, usable_.data() + begin, count);
    // Each usable item is tried at columns [max(w, lo), width]. The sum has
    // a closed form when lo is at most every usable weight or at least all
    // of them; a row whose lo falls among its weights adds item by item.
    if (group.lo <= group.min_usable) {
      cell_updates_ += count * (width + 1) - static_cast<std::uint64_t>(group.usable_weight);
    } else if (group.lo >= group.reach) {
      cell_updates_ += count * (width - lo + 1);
    } else {
      for (std::size_t i = begin; i < group.usable_end; ++i) {
        cell_updates_ +=
            width - std::max(static_cast<std::size_t>(usable_[i].weight), lo) + 1;
      }
    }
    std::fill(out + (width - lo) + 1, out + (extent(g) - lo) + 1, out[width - lo]);
    prev = out;
    prev_lo = lo;
  }
}

const MckpSolution& MckpSolver::Solve() {
  const std::size_t groups = num_groups();
  solution_.total_value = 0.0;
  solution_.total_weight = 0;
  solution_.chosen.assign(groups, -1);
  cell_updates_ = 0;
  if (groups == 0 || capacity_ == 0) {
    return solution_;
  }

  // Never allocate DP columns beyond what all items together could use. An
  // item above the capacity is never usable; the per-group largest usable
  // weight bounds that group's columns below, and the largest smallest
  // usable weight is the region's depth. AddItem kept every bound.
  std::int64_t useful_capacity = 0;
  std::int64_t usable_total = 0;
  int depth = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const Group& group = groups_[g];
    // Chosen indices are int: a group must not hold more items.
    LYRA_CHECK_LE(group_size(g), static_cast<std::size_t>(std::numeric_limits<int>::max()));
    if (group.usable_end > usable_begin(g)) {
      depth = std::max(depth, group.min_usable);
    }
    useful_capacity += group.max_weight;
    usable_total += group.reach;
  }
  const int cap = static_cast<int>(std::min<std::int64_t>(capacity_, useful_capacity));
  if (cap == 0) {
    return solution_;
  }

  // Group g's last column is min(cap, P_g), with P_g the prefix sum of the
  // largest usable weights, and its first is top - depth - S_g, with S_g the
  // sum of the largest usable weights after g (class comment). Every weight
  // is at most useful_capacity, so an item usable at the capacity is usable
  // at cap, and it fits its row: w <= min(cap, P_g).
  const std::int64_t top = std::min<std::int64_t>(cap, usable_total);
  const auto top_column = static_cast<std::size_t>(top);
  std::int64_t prefix = 0;
  for (Group& group : groups_) {
    prefix += group.reach;
    group.width = static_cast<int>(std::min<std::int64_t>(cap, prefix));
    group.lo = static_cast<int>(std::max<std::int64_t>(0, top - depth - (usable_total - prefix)));
  }

  // The backtrack starts at the last row's first argmax. Rows never fall
  // with the column, so when the region's first cell is below the maximum,
  // that argmax lies inside the region and the backtrack reads only region
  // cells. Otherwise the answer may lie below it: solve the full table.
  Fill();
  auto lo = static_cast<std::size_t>(groups_.back().lo);
  const double* last = table_.data() + groups_.back().row;
  auto c = static_cast<std::size_t>(std::max_element(last, last + (top_column - lo) + 1) - last);
  if (lo > 0 && !(last[0] < last[c])) {
    for (Group& group : groups_) {
      group.lo = 0;
    }
    Fill();
    lo = 0;
    last = table_.data() + groups_.back().row;
    c = static_cast<std::size_t>(std::max_element(last, last + top_column + 1) - last);
  }
  solution_.total_value = last[c];
  c += lo;

  // Backtrack from the best capacity, re-deriving each choice by the
  // first-equal rule (class comment) over the group's usable items, which
  // keep the group's order. Columns above a row's last one repeat it, so
  // every row is read at min(column, last column); no read may fall below
  // the row's region.
  const auto cell = [&](std::size_t g, std::size_t col) {
    const Group& group = groups_[g];
    const std::size_t column = std::min(col, static_cast<std::size_t>(group.width));
    LYRA_CHECK_GE(column, static_cast<std::size_t>(group.lo));
    return table_[group.row + column - static_cast<std::size_t>(group.lo)];
  };
  for (std::size_t g = groups; g-- > 0;) {
    const std::size_t column = std::min(c, static_cast<std::size_t>(groups_[g].width));
    const double best = cell(g, column);
    const auto before = [&](std::size_t col) { return g == 0 ? 0.0 : cell(g - 1, col); };
    c = column;
    if (before(column) == best) {
      continue;
    }
    std::size_t i = usable_begin(g);
    for (; i < groups_[g].usable_end; ++i) {
      const auto w = static_cast<std::size_t>(usable_[i].weight);
      if (w <= column && before(column - w) + usable_[i].value == best) {
        break;
      }
    }
    LYRA_CHECK_LT(i, groups_[g].usable_end);
    solution_.chosen[g] = usable_[i].index;
    solution_.total_weight += usable_[i].weight;
    c = column - static_cast<std::size_t>(usable_[i].weight);
  }
  return solution_;
}

MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity) {
  MckpSolver solver;
  solver.Clear(capacity);
  for (const MckpGroup& group : groups) {
    solver.AddGroup();
    for (const MckpItem& entry : group.items) {
      solver.AddItem(entry.weight, entry.value);
    }
  }
  return solver.Solve();
}

}  // namespace lyra
