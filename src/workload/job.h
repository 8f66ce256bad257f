// Training-job model.
//
// A job requests `gpus_per_worker` GPUs per worker and between `min_workers`
// (its base, gang-scheduled demand) and `max_workers` workers. Inelastic jobs
// have min == max. Work is measured in worker-seconds at a reference training
// GPU; running time is work divided by effective throughput, so it is
// inversely proportional to the allocation within the scaling range (§5).
#ifndef SRC_WORKLOAD_JOB_H_
#define SRC_WORKLOAD_JOB_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace lyra {

// Model families the paper identifies as scaling well (§2.2, Fig 3).
enum class ModelFamily {
  kResNet,
  kVgg,
  kBert,
  kGnmt,
  kOther,
};

const char* ModelFamilyName(ModelFamily family);

struct JobSpec {
  JobId id;
  TimeSec submit_time = 0.0;
  int gpus_per_worker = 1;
  int min_workers = 1;
  int max_workers = 1;
  // The demand the user asked for. Schedulers without elastic scaling (the
  // FIFO baseline) allocate exactly this; Lyra treats it as the base demand
  // of elastic jobs and may scale beyond it up to max_workers. 0 means
  // "max_workers" (the inelastic default).
  int requested_workers = 0;
  // Fungible jobs can run on either GPU type across runs and are eligible to
  // be launched on loaned inference servers (§2.1).
  bool fungible = false;
  // Heterogeneous jobs can mix GPU types within a single run (§2.1).
  bool heterogeneous = false;
  // Whether the job checkpoints; without checkpointing a preemption loses all
  // progress (§4).
  bool checkpointing = false;
  ModelFamily model = ModelFamily::kOther;
  // Total work in worker-seconds at a reference training GPU.
  double total_work = 0.0;

  bool elastic() const { return max_workers > min_workers; }
  int base_gpus() const { return min_workers * gpus_per_worker; }
  int max_gpus() const { return max_workers * gpus_per_worker; }
  int RequestedWorkers() const {
    return requested_workers > 0 ? requested_workers : max_workers;
  }

  // Running time when given the full maximum demand on training GPUs.
  TimeSec MinRunningTime() const { return total_work / max_workers; }
  // Running time at base demand on training GPUs.
  TimeSec BaseRunningTime() const { return total_work / min_workers; }

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

enum class JobState {
  kPending,
  kRunning,
  kFinished,
  // Terminated by an online cancel command before finishing (service mode
  // only; batch traces never cancel). Cancelled jobs report no JCT.
  kCancelled,
};

// Runtime state of a job inside the simulator. Progress is piecewise linear:
// `work_remaining` decreases at `rate` worker-equivalents per second between
// allocation changes.
class Job {
 public:
  explicit Job(JobSpec spec)
      : spec_(std::move(spec)),
        work_remaining_(spec_.total_work),
        estimated_total_work_(spec_.total_work) {
    LYRA_CHECK_GT(spec_.total_work, 0.0);
    LYRA_CHECK_GE(spec_.min_workers, 1);
    LYRA_CHECK_GE(spec_.max_workers, spec_.min_workers);
    LYRA_CHECK_GE(spec_.gpus_per_worker, 1);
    // Demands are computed in int (base_gpus, max_gpus).
    LYRA_CHECK_LE(static_cast<std::int64_t>(spec_.max_workers) * spec_.gpus_per_worker,
                  std::numeric_limits<int>::max());
  }

  const JobSpec& spec() const { return spec_; }
  JobId id() const { return spec_.id; }

  JobState state() const { return state_; }
  double work_remaining() const { return work_remaining_; }
  double rate() const { return rate_; }
  int current_workers() const { return current_workers_; }

  TimeSec first_start_time() const { return first_start_time_; }
  TimeSec finish_time() const { return finish_time_; }
  int preemptions() const { return preemptions_; }
  int scaling_operations() const { return scaling_operations_; }
  bool ever_on_loaned_server() const { return ever_on_loaned_server_; }
  void set_ever_on_loaned_server() { ever_on_loaned_server_ = true; }

  // Whether the scheduler re-tunes this job's hyperparameters on allocation
  // changes (Pollux / Lyra+TunedJobs, §7.4). Only meaningful for elastic jobs.
  bool tuned() const { return tuned_; }
  void set_tuned(bool tuned) { tuned_ = tuned; }

  // Straggler degradation (fault model, DESIGN.md §7): a multiplier the
  // simulator applies on top of the placement-derived throughput. 1.0 means
  // healthy; reset on preemption (a restart lands on fresh hardware) and on
  // finish.
  double perf_factor() const { return perf_factor_; }
  void set_perf_factor(double factor) {
    LYRA_CHECK_GT(factor, 0.0);
    perf_factor_ = factor;
  }

  // Queuing time: from submission until the job first receives resources.
  // Defined only after the job has started.
  TimeSec QueuingTime() const {
    LYRA_CHECK_GE(first_start_time_, 0.0);
    return first_start_time_ - spec_.submit_time;
  }

  // Job completion time: submission to finish (§7.1 metrics).
  TimeSec Jct() const {
    LYRA_CHECK_GE(finish_time_, 0.0);
    return finish_time_ - spec_.submit_time;
  }

  // The running-time estimate the scheduler sees. Equals ground truth unless
  // prediction error is injected (Table 9 sensitivity study).
  double estimated_total_work() const { return estimated_total_work_; }
  void set_estimated_total_work(double work) { estimated_total_work_ = work; }

  // Estimated remaining work in worker-seconds, as the scheduler would
  // compute it: the (possibly wrong) estimate scaled by the actual progress
  // fraction.
  double EstimatedRemainingWork() const {
    const double frac = work_remaining_ / spec_.total_work;
    return estimated_total_work_ * frac;
  }

  // Estimated remaining running time at `workers` workers.
  TimeSec EstimatedRemainingTime(int workers) const {
    LYRA_CHECK_GT(workers, 0);
    return EstimatedRemainingWork() / workers;
  }

  // Enqueue stamp: drawn by StampQueueSeq() each time the job enters a
  // pending queue (arrival, and requeue after a preemption); 0 until then.
  // Stamps come from one process-wide counter, so they never repeat — not
  // even across simulators that share a scheduler — and a queue that only
  // appends stamped jobs is ascending in queue_seq. Schedulers use it as the
  // arrival-order tie-break of a persistent ordering (DESIGN.md §4).
  std::uint64_t queue_seq() const { return queue_seq_; }
  void StampQueueSeq() {
    static std::atomic<std::uint64_t> last{0};
    queue_seq_ = ++last;
  }

  // Start stamp: drawn by Start() each time the job starts (first start and
  // restart after a preemption), from one process-wide counter. A list that
  // appends jobs as they start is ascending in start_seq, so sorting any
  // subset of it by start_seq restores the list's order.
  std::uint64_t start_seq() const { return start_seq_; }

  // --- Snapshot dirty tracking (svc read fast path) ------------------------
  //
  // The online service publishes immutable read snapshots of every job; to
  // keep publication O(changes) rather than O(jobs), a job with an armed
  // sink records its id there exactly once per publish cycle whenever a
  // lifecycle transition mutates observable state. Batch simulation never
  // arms a sink, so the cost there is one untaken branch per transition.
  struct DirtySink {
    std::vector<std::int64_t> ids;  // jobs mutated since the last drain
  };

  // Arms `sink` (which must outlive the job) and marks the job dirty so the
  // next publish picks up its current state. Engine-thread only.
  void ArmDirtySink(DirtySink* sink) {
    dirty_sink_ = sink;
    dirty_ = false;
    MarkDirty();
  }

  // Clears the once-per-cycle latch after the publisher consumed this job's
  // record. Engine-thread only.
  void ClearDirty() { dirty_ = false; }

  // --- Lifecycle transitions, driven by the simulator ----------------------

  // Folds progress accrued at the current rate into work_remaining.
  void AdvanceProgress(TimeSec now) {
    LYRA_CHECK_GE(now, last_update_);
    if (state_ == JobState::kRunning && rate_ > 0.0) {
      work_remaining_ -= rate_ * (now - last_update_);
      if (work_remaining_ < 0.0) {
        work_remaining_ = 0.0;
      }
      MarkDirty();
    }
    last_update_ = now;
  }

  // Starts (or restarts) the job with the given throughput rate and worker
  // count. Records the first start for queuing-time accounting and draws a
  // start stamp.
  void Start(TimeSec now, double rate, int workers) {
    static std::atomic<std::uint64_t> last_start{0};
    AdvanceProgress(now);
    if (first_start_time_ < 0.0) {
      first_start_time_ = now;
    }
    start_seq_ = ++last_start;
    state_ = JobState::kRunning;
    rate_ = rate;
    current_workers_ = workers;
    MarkDirty();
  }

  // Updates the rate after a scale-out/scale-in or placement change.
  void UpdateRate(TimeSec now, double rate, int workers) {
    LYRA_CHECK(state_ == JobState::kRunning);
    AdvanceProgress(now);
    if (workers != current_workers_) {
      ++scaling_operations_;
    }
    rate_ = rate;
    current_workers_ = workers;
    MarkDirty();
  }

  // Preempts the job. Without checkpointing all progress is lost; with
  // checkpointing the job resumes from its last checkpoint (CheckFreq-style
  // periodic checkpoints every `checkpoint_chunk_work` worker-seconds of
  // progress; 0 = checkpoint-on-preempt, i.e. nothing beyond the overhead is
  // lost) and a fixed overhead — the measured 63 s testbed save/restore cost
  // (§7.5) — is charged as additional work at base demand.
  void Preempt(TimeSec now, TimeSec checkpoint_overhead,
               double checkpoint_chunk_work = 0.0) {
    LYRA_CHECK(state_ == JobState::kRunning);
    AdvanceProgress(now);
    ++preemptions_;
    state_ = JobState::kPending;
    rate_ = 0.0;
    current_workers_ = 0;
    perf_factor_ = 1.0;
    if (spec_.checkpointing) {
      double kept = spec_.total_work - work_remaining_;
      if (checkpoint_chunk_work > 0.0) {
        kept = std::floor(kept / checkpoint_chunk_work) * checkpoint_chunk_work;
      }
      work_remaining_ = std::min(
          spec_.total_work,
          spec_.total_work - kept + checkpoint_overhead * spec_.min_workers);
    } else {
      work_remaining_ = spec_.total_work;
    }
    MarkDirty();
  }

  void Finish(TimeSec now) {
    LYRA_CHECK(state_ == JobState::kRunning);
    AdvanceProgress(now);
    state_ = JobState::kFinished;
    finish_time_ = now;
    rate_ = 0.0;
    current_workers_ = 0;
    perf_factor_ = 1.0;
    MarkDirty();
  }

  // Cancels the job (online service command). Legal from kPending or
  // kRunning; the caller is responsible for releasing any cluster resources.
  void Cancel(TimeSec now) {
    LYRA_CHECK(state_ == JobState::kPending || state_ == JobState::kRunning);
    AdvanceProgress(now);
    state_ = JobState::kCancelled;
    finish_time_ = now;
    rate_ = 0.0;
    current_workers_ = 0;
    perf_factor_ = 1.0;
    MarkDirty();
  }

  // Charges a transient stall of `delay` wall-seconds at the current rate (a
  // failed worker restarting: the gang waits for it). Modeled as extra work,
  // so the predicted finish slips by exactly `delay`.
  void Stall(TimeSec now, TimeSec delay) {
    LYRA_CHECK(state_ == JobState::kRunning);
    LYRA_CHECK_GE(delay, 0.0);
    AdvanceProgress(now);
    work_remaining_ += rate_ * delay;
    MarkDirty();
  }

  // Predicted wall-clock finish time at the current rate; +inf when stalled.
  TimeSec PredictedFinish(TimeSec now) const {
    if (state_ != JobState::kRunning || rate_ <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    const double elapsed = now - last_update_;
    const double remaining = work_remaining_ - rate_ * elapsed;
    return now + std::max(0.0, remaining) / rate_;
  }

 private:
  void MarkDirty() {
    if (dirty_sink_ != nullptr && !dirty_) {
      dirty_ = true;
      dirty_sink_->ids.push_back(spec_.id.value);
    }
  }

  JobSpec spec_;
  JobState state_ = JobState::kPending;
  int current_workers_ = 0;
  double work_remaining_;
  double estimated_total_work_;
  double rate_ = 0.0;
  TimeSec last_update_ = 0.0;
  TimeSec first_start_time_ = -1.0;
  TimeSec finish_time_ = -1.0;
  int preemptions_ = 0;
  int scaling_operations_ = 0;
  bool ever_on_loaned_server_ = false;
  bool tuned_ = false;
  bool dirty_ = false;  // once-per-publish-cycle latch
  double perf_factor_ = 1.0;
  std::uint64_t queue_seq_ = 0;
  std::uint64_t start_seq_ = 0;
  DirtySink* dirty_sink_ = nullptr;  // not owned; null in batch simulation
};

}  // namespace lyra

#endif  // SRC_WORKLOAD_JOB_H_
