// Worker placement (§5.3).
//
// Best-fit-decreasing bin packing: jobs are placed in decreasing order of
// per-worker GPU demand; each worker goes to the non-empty server that best
// fits it, falling back to a fresh server. Elastic jobs prefer on-loan
// (inference) servers to maximize scale-in opportunities during reclaiming;
// inelastic jobs prefer training servers. The base and flexible demands of
// elastic jobs are kept on separate groups of inference servers so the
// flexible group can be released first, preemption-free, when reclaiming.
#ifndef SRC_LYRA_PLACEMENT_H_
#define SRC_LYRA_PLACEMENT_H_

#include "src/lyra/allocation.h"

namespace lyra {

struct PlacementStats {
  int launched = 0;
  int launch_failures = 0;  // admitted by phase 1 but unplaceable (fragmentation)
  int scale_outs = 0;       // flexible workers added
  int scale_ins = 0;        // flexible workers removed
};

// Applies the allocation decision to ctx.cluster: scale-ins first, then BFD
// launches, then flexible scale-outs. Launch placement is all-or-nothing per
// job; scale-outs place as many of the target workers as fit. On-loan servers
// are used only when ctx.allow_loaned_placement, the rule the capacity ledger
// counted them by. Each target's `current` must be its job's
// PlacedFlexibleWorkers at the call, as TwoPhaseAllocate fills it in: only
// shrunk and launched jobs are read again.
PlacementStats ApplyAllocation(const SchedulerContext& ctx, const AllocationDecision& decision,
                               const LyraSchedulerOptions& options = {});

}  // namespace lyra

#endif  // SRC_LYRA_PLACEMENT_H_
