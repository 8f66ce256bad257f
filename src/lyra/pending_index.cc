#include "src/lyra/pending_index.h"

#include <algorithm>
#include <limits>

namespace lyra {
namespace {

// Phase-one order: non-heterogeneous first (§6), then the key, then arrival.
bool Before(const PendingIndex::Entry& a, const PendingIndex::Entry& b) {
  if (a.heterogeneous != b.heterogeneous) {
    return b.heterogeneous;
  }
  if (a.key != b.key) {
    return a.key < b.key;
  }
  return a.seq < b.seq;
}

PendingIndex::Entry MakeEntry(Job& job, std::uint64_t seq, bool information_agnostic) {
  const JobSpec& spec = job.spec();
  PendingIndex::Entry entry;
  // Least attained service without running-time estimates (all unstarted
  // jobs tie and keep arrival order); otherwise shortest remaining time.
  entry.key = information_agnostic ? spec.total_work - job.work_remaining()
                                   : job.EstimatedRemainingTime(spec.max_workers);
  entry.seq = seq;
  entry.job = &job;
  entry.id = job.id().value;
  entry.base_gpus = spec.base_gpus();
  entry.heterogeneous = spec.heterogeneous;
  entry.loan_eligible = spec.fungible || spec.heterogeneous;
  entry.prefer_loaned = spec.elastic() && !spec.heterogeneous;
  return entry;
}

}  // namespace

const PendingIndex::Entry* PendingIndex::Cursor::Next() {
  const std::vector<Entry>& long_run = index_->long_;
  const std::vector<Entry>& recent = index_->recent_;
  while (long_pos_ < long_run.size() && !index_->Live(long_run[long_pos_])) {
    ++long_pos_;
  }
  while (recent_pos_ < recent.size() && !index_->Live(recent[recent_pos_])) {
    ++recent_pos_;
  }
  if (long_pos_ == long_run.size()) {
    return recent_pos_ == recent.size() ? nullptr : &recent[recent_pos_++];
  }
  if (recent_pos_ == recent.size() || !Before(recent[recent_pos_], long_run[long_pos_])) {
    return &long_run[long_pos_++];
  }
  return &recent[recent_pos_++];
}

double PendingIndex::min_base_gpus() const {
  return base_counts_.empty() ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(base_counts_.begin()->first);
}

void PendingIndex::Refresh(const SchedulerContext& ctx, bool information_agnostic) {
  const bool continues = tracked_ && ctx.queue_id != 0 && ctx.queue_id == queue_id_ &&
                         ctx.round == round_ + 1 &&
                         information_agnostic == information_agnostic_;
  queue_id_ = ctx.queue_id;
  round_ = ctx.round;
  if (!continues || !ApplyDeltas(ctx, information_agnostic)) {
    Rebuild(ctx, information_agnostic);
  }
}

void PendingIndex::Drop(std::size_t id, int base_gpus) {
  long_dead_ += held_[id] <= long_newest_ ? 1 : 0;
  held_[id] = 0;
  --live_;
  const auto it = base_counts_.find(base_gpus);
  if (--it->second == 0) {
    base_counts_.erase(it);
  }
}

bool PendingIndex::ApplyDeltas(const SchedulerContext& ctx, bool information_agnostic) {
  std::size_t departures = 0;
  for (const Job* job : ctx.dequeued) {
    const auto id = static_cast<std::size_t>(job->id().value);
    if (id < held_.size() && held_[id] != 0) {
      Drop(id, job->spec().base_gpus());
      ++departures;
    }
  }
  // Stamps only grow, so the queue is last round's survivors (stamped at or
  // before the newest stamp then held) followed by what arrived since. The
  // survivors number live_ exactly when the deltas named every leaver: then
  // the job at live_ - 1 is old and the one at live_ is new. A leaver the
  // deltas missed (a requeue without its launch, say) breaks that boundary.
  const std::span<Job* const> pending = ctx.pending;
  if (live_ > pending.size() ||
      (live_ > 0 && pending[live_ - 1]->queue_seq() > newest_) ||
      (live_ < pending.size() && pending[live_]->queue_seq() <= newest_)) {
    return false;
  }
  fresh_.clear();
  for (Job* job : pending.subspan(live_)) {
    const std::int64_t id = job->id().value;
    if (id < 0) {
      return false;
    }
    const auto index = static_cast<std::size_t>(id);
    if (index >= held_.size()) {
      held_.resize(index + 1);
    }
    if (held_[index] != 0) {
      return false;  // requeued, but its old entry is still held
    }
    fresh_.push_back(MakeEntry(*job, job->queue_seq(), information_agnostic));
    held_[index] = fresh_.back().seq;
    ++base_counts_[fresh_.back().base_gpus];
  }
  live_ = pending.size();
  if (!pending.empty()) {
    newest_ = pending.back()->queue_seq();
  }

  if (!fresh_.empty()) {
    std::sort(fresh_.begin(), fresh_.end(), Before);
    MergeLive(recent_, fresh_, recent_scratch_);
    recent_.swap(recent_scratch_);
  }
  // Folding the recent run into the long one costs O(P); merging a round's
  // k arrivals into the recent run costs O(recent). Folding once the recent
  // run reaches sqrt(k P) balances the two at O(sqrt(k P)) per round. In the
  // same way the long run's tombstones, which every reader may skip, fold
  // away once they reach sqrt(d P) for the round's d departures (launches in
  // SJF order leave them at its head). Tombstones also go whenever they
  // outnumber the live entries.
  const std::size_t dead = long_.size() + recent_.size() - live_;
  if (recent_.size() * recent_.size() > long_.size() * std::max<std::size_t>(1, fresh_.size()) ||
      (departures > 0 && long_dead_ * long_dead_ > long_.size() * departures) ||
      dead > live_) {
    MergeLive(long_, recent_, long_scratch_);
    long_.swap(long_scratch_);
    recent_.clear();
    long_newest_ = newest_;
    long_dead_ = 0;
  }
  return true;
}

void PendingIndex::MergeLive(const std::vector<Entry>& a, const std::vector<Entry>& b,
                             std::vector<Entry>& out) const {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_b = i == a.size() || (j < b.size() && Before(b[j], a[i]));
    const Entry& entry = take_b ? b[j++] : a[i++];
    if (Live(entry)) {
      out.push_back(entry);
    }
  }
}

void PendingIndex::Rebuild(const SchedulerContext& ctx, bool information_agnostic) {
  ++rebuilds_;
  if (tracked_) {
    for (const std::vector<Entry>* run : {&long_, &recent_, &fresh_}) {
      for (const Entry& entry : *run) {
        held_[static_cast<std::size_t>(entry.id)] = 0;
      }
    }
  }
  long_.clear();
  recent_.clear();
  fresh_.clear();
  base_counts_.clear();
  // Strictly ascending stamps make queue_seq the arrival order, which later
  // rounds' entries continue.
  bool ordered = true;
  std::uint64_t previous = 0;
  for (const Job* job : ctx.pending) {
    if (job->queue_seq() <= previous || job->id().value < 0) {
      ordered = false;
      break;
    }
    previous = job->queue_seq();
  }
  tracked_ = ordered && ctx.queue_id != 0;
  information_agnostic_ = information_agnostic;
  std::uint64_t position = 0;
  for (Job* job : ctx.pending) {
    long_.push_back(MakeEntry(*job, ordered ? job->queue_seq() : ++position,
                              information_agnostic));
    ++base_counts_[long_.back().base_gpus];
  }
  std::sort(long_.begin(), long_.end(), Before);
  live_ = long_.size();
  newest_ = ctx.pending.empty() ? 0 : ctx.pending.back()->queue_seq();
  long_newest_ = newest_;
  long_dead_ = 0;
  if (!tracked_) {
    return;
  }
  for (const Entry& entry : long_) {
    const auto index = static_cast<std::size_t>(entry.id);
    if (index >= held_.size()) {
      held_.resize(index + 1);
    }
    held_[index] = entry.seq;
  }
}

}  // namespace lyra
