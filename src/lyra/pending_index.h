// Persistent phase-one order of the pending queue (§5.2, DESIGN.md §4).
//
// Phase one admits pending jobs shortest-job-first, heterogeneous-capable
// jobs last (§6), ties in arrival order. Re-sorting the whole queue every
// round costs O(P log P) in the queue length P, and re-reading it costs
// O(P), and the paper's queues are long. But a waiting job's sort key cannot
// change: its remaining work and running-time estimate only move while it
// runs or before it is enqueued. So the index keeps last round's order and
// each round only applies what changed:
//   - a job that left the queue (SchedulerContext::dequeued) loses its entry
//     in O(1): the entry stays in place as a tombstone until the next merge
//     through its run skips it;
//   - the jobs enqueued since, which are the queue's suffix past last round's
//     survivors, are sorted among themselves and merged into a short run of
//     recent entries.
// The recent run folds into the long run once it reaches sqrt(k P) for k
// arrivals, or once the long run's tombstones reach sqrt(d P) for d
// departures, so a reader never skips more than that many. Phase one reads
// the two runs through a Cursor, a two-way merge that skips tombstones, and
// usually stops after a short prefix. A round therefore costs
// O(d + k log k + sqrt((k + d) P)) amortized, not O(P).
//
// Arrival order is Job::queue_seq(). A queue that is ascending in queue_seq
// and stable-sorted by (heterogeneous, key) is therefore sorted by
// (heterogeneous, key, queue_seq): a total order the index can maintain by
// merging. Deltas only apply to the round after the one the index last saw
// of the same queue (SchedulerContext::queue_id and ::round), with the same
// key; anything else — a first round, a skipped round, another queue, a key
// flip, or deltas that do not add up to the queue — rebuilds from
// ctx.pending. A list that is not strictly ascending in queue_seq (unstamped,
// hand-built contexts) is ordered by position instead, with the same code,
// and not kept.
#ifndef SRC_LYRA_PENDING_INDEX_H_
#define SRC_LYRA_PENDING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
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
    // Copies of job fields, so liveness (id) and the phase-one walk (the
    // rest) stay inside this array.
    std::int64_t id = 0;
    int base_gpus = 0;
    bool heterogeneous = false;
    bool loan_eligible = false;  // fungible or heterogeneous
    bool prefer_loaned = false;  // elastic and not heterogeneous
  };

  // Walks the index in phase-one order. Valid until the next Refresh.
  class Cursor {
   public:
    // The next entry in phase-one order, or nullptr past the last one.
    const Entry* Next();
    // Entries read so far, tombstones included.
    std::size_t visited() const { return long_pos_ + recent_pos_; }

   private:
    friend class PendingIndex;
    explicit Cursor(const PendingIndex& index) : index_(&index) {}
    const PendingIndex* index_;
    std::size_t long_pos_ = 0;
    std::size_t recent_pos_ = 0;
  };

  // Brings the index in line with ctx (its deltas when they continue the
  // last round, else ctx.pending). `information_agnostic` keys jobs by
  // attained service instead of estimated remaining time (§10).
  void Refresh(const SchedulerContext& ctx, bool information_agnostic);

  // The pending jobs of the last Refresh in phase-one order.
  Cursor Order() const { return Cursor(*this); }
  std::size_t size() const { return live_; }
  // Full rebuilds so far (the first round of a queue is one).
  std::uint64_t rebuilds() const { return rebuilds_; }

  // Smallest base demand in the ctx.pending of the last Refresh (+inf when
  // empty).
  double min_base_gpus() const;

 private:
  // One full sort of ctx.pending; tracked (kept for the next round's deltas)
  // when the list is strictly ascending in queue_seq and names its queue.
  void Rebuild(const SchedulerContext& ctx, bool information_agnostic);
  // Applies ctx's deltas; false when they do not add up to ctx.pending (the
  // caller then rebuilds).
  bool ApplyDeltas(const SchedulerContext& ctx, bool information_agnostic);
  // Releases the live entry held for job `id` (which must hold one).
  void Drop(std::size_t id, int base_gpus);
  // Merges the live entries of `a` and `b` into `out` (cleared first).
  void MergeLive(const std::vector<Entry>& a, const std::vector<Entry>& b,
                 std::vector<Entry>& out) const;
  bool Live(const Entry& entry) const {
    return !tracked_ || held_[static_cast<std::size_t>(entry.id)] == entry.seq;
  }

  // Two sorted runs, read together by Cursor. Tombstones (entries that fail
  // Live) are skipped and dropped at the next merge through their run.
  std::vector<Entry> long_;
  std::vector<Entry> recent_;
  std::vector<Entry> fresh_;  // enqueued this round
  // Merge targets, swapped with their run. One per run, so the long run's
  // capacity never migrates into the recent one: two runs cost 2P entries.
  std::vector<Entry> long_scratch_;
  std::vector<Entry> recent_scratch_;
  // Per job id: the stamp of the live entry held for it, 0 = none. Only
  // maintained while tracked_.
  std::vector<std::uint64_t> held_;
  // Live entries per base demand, for min_base_gpus.
  std::map<int, std::size_t> base_counts_;
  std::size_t live_ = 0;
  // The newest stamp in the queue of the last Refresh.
  std::uint64_t newest_ = 0;
  // The newest stamp when the long run was last written: entries stamped at
  // or before it are in the long run, later ones in the recent run.
  std::uint64_t long_newest_ = 0;
  std::size_t long_dead_ = 0;  // tombstones in the long run
  bool tracked_ = false;
  bool information_agnostic_ = false;
  std::uint64_t queue_id_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace lyra

#endif  // SRC_LYRA_PENDING_INDEX_H_
