#include "src/lyra/pending_index.h"

#include <algorithm>
#include <iterator>
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

const std::vector<PendingIndex::Entry>& PendingIndex::Refresh(
    const SchedulerContext& ctx, bool information_agnostic) {
  fresh_.clear();
  min_base_gpus_ = std::numeric_limits<double>::infinity();
  // `ordered`: strictly ascending stamps, so queue_seq is the arrival order.
  // `known`: the held entries were built from such a list with this key.
  // Stamps never repeat, so a job held under its current stamp is the same
  // enqueue of the same job with the same key; any other job is new.
  bool ordered = true;
  const bool known = stamped_ && information_agnostic_ == information_agnostic;
  std::uint64_t previous = 0;
  for (Job* job : ctx.pending) {
    min_base_gpus_ = std::min(min_base_gpus_, static_cast<double>(job->spec().base_gpus()));
    const std::uint64_t seq = job->queue_seq();
    const std::int64_t id = job->id().value;
    if (seq <= previous || id < 0) {
      ordered = false;
    }
    previous = seq;
    if (!ordered || !known) {
      continue;
    }
    const auto index = static_cast<std::size_t>(id);
    if (index >= held_.size()) {
      held_.resize(index + 1);
    }
    std::uint64_t& held = held_[index];
    if (held == seq) {
      held |= kSeen;
    } else {
      fresh_.push_back(MakeEntry(*job, seq, information_agnostic));
    }
  }
  if (!ordered || !known) {
    Rebuild(ctx, information_agnostic, /*by_position=*/!ordered);
    return entries_;
  }

  // Drop the entries whose job left the queue (or re-entered it under a newer
  // stamp, which arrives through fresh_).
  std::size_t kept = 0;
  for (const Entry& entry : entries_) {
    std::uint64_t& held = held_[static_cast<std::size_t>(entry.id)];
    if ((held & kSeen) != 0) {
      held &= ~kSeen;
      entries_[kept++] = entry;
    } else {
      held = 0;
    }
  }
  entries_.resize(kept);

  if (!fresh_.empty()) {
    for (const Entry& entry : fresh_) {
      held_[static_cast<std::size_t>(entry.id)] = entry.seq;
    }
    std::sort(fresh_.begin(), fresh_.end(), Before);
    merged_.clear();
    std::merge(entries_.begin(), entries_.end(), fresh_.begin(), fresh_.end(),
               std::back_inserter(merged_), Before);
    entries_.swap(merged_);
  }
  return entries_;
}

void PendingIndex::Rebuild(const SchedulerContext& ctx, bool information_agnostic,
                           bool by_position) {
  if (stamped_) {
    for (const Entry& entry : entries_) {
      held_[static_cast<std::size_t>(entry.id)] = 0;
    }
  }
  entries_.clear();
  std::uint64_t position = 0;
  for (Job* job : ctx.pending) {
    entries_.push_back(MakeEntry(*job, by_position ? ++position : job->queue_seq(),
                                 information_agnostic));
  }
  std::sort(entries_.begin(), entries_.end(), Before);
  stamped_ = !by_position;
  information_agnostic_ = information_agnostic;
  if (by_position) {
    return;
  }
  for (const Entry& entry : entries_) {
    const auto index = static_cast<std::size_t>(entry.id);
    if (index >= held_.size()) {
      held_.resize(index + 1);
    }
    held_[index] = entry.seq;
  }
}

}  // namespace lyra
