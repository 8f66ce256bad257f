// Job-scheduler interface shared by Lyra and all baseline schedulers.
//
// A scheduler runs at every scheduling epoch (§5.2: myopic, periodic, high
// frequency). It sees the pending queue and the running jobs, and mutates
// worker placements directly on the ClusterState. The simulator then derives
// each job's new throughput from its placement, so schedulers never touch job
// progress state. Scheduling is non-preemptive: schedulers may launch pending
// jobs and resize the *flexible* (beyond-base) demand of elastic jobs, but
// may not remove base workers — that only happens during reclaiming (§4).
#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/workload/job.h"
#include "src/workload/throughput.h"

namespace lyra {

struct SchedulerContext {
  TimeSec now = 0.0;
  ClusterState* cluster = nullptr;
  // Pending jobs in ascending Job::queue_seq(), i.e. in enqueue order
  // (includes preempted jobs re-queued, stamped again at the requeue). A view
  // of the caller's queue, valid for the Schedule call.
  std::span<Job* const> pending;
  // The jobs that left `pending` since this queue's previous round (launch,
  // cancel), one entry per departure. What arrived since (arrival, requeue)
  // needs no list: stamps only grow, so it is the suffix of `pending` past
  // the previous round's survivors. A job launched and requeued within one
  // interval is listed here and is in that suffix again; one enqueued and
  // cancelled within it is listed here only.
  std::span<Job* const> dequeued;
  // `dequeued` is only meaningful against the same queue's previous round:
  // `queue_id` names the queue (unique in the process, never reused; 0 = a
  // hand-built context without deltas) and `round` counts its rounds. A
  // scheduler that drives several queues, or misses a round, rebuilds.
  std::uint64_t queue_id = 0;
  std::uint64_t round = 0;
  // All currently running jobs.
  std::vector<Job*> running;
  const ThroughputModel* throughput = nullptr;
  // Whether the scenario lets the scheduler place fungible jobs on on-loan
  // servers. False in the elastic-scaling-only studies (§7.4).
  bool allow_loaned_placement = true;
};

// A fresh SchedulerContext::queue_id: a process-wide counter, so an identity
// is never reused the way an address can be.
inline std::uint64_t NewQueueId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

class JobScheduler {
 public:
  virtual ~JobScheduler() = default;

  virtual const char* name() const = 0;

  // Runs one scheduling epoch, mutating placements on ctx.cluster.
  virtual void Schedule(SchedulerContext& ctx) = 0;

  // Whether this scheduler re-tunes job hyperparameters (batch size /
  // learning rate) on allocation changes, Pollux-style (§7.4). The simulator
  // applies the corresponding throughput behaviour to elastic jobs.
  virtual bool tunes_hyperparameters() const { return false; }
};

}  // namespace lyra

#endif  // SRC_SCHED_SCHEDULER_H_
