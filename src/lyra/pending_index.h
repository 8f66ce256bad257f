// Persistent phase-one order of the pending queue (§5.2, DESIGN.md §4).
//
// Phase one admits pending jobs shortest-job-first, heterogeneous-capable
// jobs last (§6), ties in arrival order. Re-sorting the whole queue every
// round costs O(P log P) in the queue length P, and the paper's queues are
// long. But a waiting job's sort key cannot change: its remaining work and
// running-time estimate only move while it runs or before it is enqueued.
// So the index keeps last round's order and each round only
//   - drops the entries that left the queue (launched, cancelled, or
//     requeued under a newer stamp),
//   - sorts the newly enqueued jobs and merges them in.
//
// Arrival order is Job::queue_seq(). A queue that is ascending in queue_seq
// and stable-sorted by (heterogeneous, key) is therefore sorted by
// (heterogeneous, key, queue_seq): a total order the index can maintain by
// merging. Stamps never repeat, even across simulators, so a job the index
// does not hold under its current stamp is simply new, and one scheduler can
// drive several simulators in turn. A list that is not strictly ascending in
// queue_seq (unstamped, hand-built contexts) is ordered by position instead,
// with the same code, and not kept.
#ifndef SRC_LYRA_PENDING_INDEX_H_
#define SRC_LYRA_PENDING_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/sched/scheduler.h"

namespace lyra {

class PendingIndex {
 public:
  struct Entry {
    // Estimated remaining time at max_workers, or attained service when
    // information_agnostic.
    double key = 0.0;
    std::uint64_t seq = 0;
    Job* job = nullptr;
    // Copies of job fields, so compaction (id) and the phase-one walk (the
    // rest) stay inside this array.
    std::int64_t id = 0;
    int base_gpus = 0;
    bool heterogeneous = false;
    bool loan_eligible = false;  // fungible or heterogeneous
    bool prefer_loaned = false;  // elastic and not heterogeneous
  };

  // Brings the index in line with ctx.pending and returns it in phase-one
  // order. `information_agnostic` keys jobs by attained service instead of
  // estimated remaining time (§10). The result stays valid until the next
  // call. A warm call allocates nothing.
  const std::vector<Entry>& Refresh(const SchedulerContext& ctx,
                                    bool information_agnostic);

  // Smallest base demand in the ctx.pending of the last Refresh (+inf when
  // empty).
  double min_base_gpus() const { return min_base_gpus_; }

 private:
  // One full sort of ctx.pending. `by_position` orders ties by list position
  // instead of queue_seq and keeps nothing for the next round.
  void Rebuild(const SchedulerContext& ctx, bool information_agnostic,
               bool by_position);

  std::vector<Entry> entries_;
  std::vector<Entry> fresh_;   // newly enqueued this round
  std::vector<Entry> merged_;  // merge target, swapped with entries_
  // Per job id: the stamp of the entry held for it (0 = none), with kSeen
  // set once this round's pass over ctx.pending has found it.
  static constexpr std::uint64_t kSeen = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> held_;
  // Whether entries_ came from a stamped list and are registered in held_.
  bool stamped_ = false;
  bool information_agnostic_ = false;
  double min_base_gpus_ = 0.0;
};

}  // namespace lyra

#endif  // SRC_LYRA_PENDING_INDEX_H_
