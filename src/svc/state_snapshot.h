// Immutable read snapshots of the scheduler engine (DESIGN.md §8).
//
// The engine thread is the single writer of the Simulator; read-only
// commands (query_job, cluster_stats, metrics, ping) must scale with cores
// instead of serializing through the engine's command queue. After every
// applied command batch (and every auto-advance chunk) the engine publishes a
// StateSnapshot via an atomic shared_ptr swap; reader threads load the
// pointer, answer from the immutable structure, and drop it — RCU-style, no
// locks on the read path, old snapshots retire when the last reader releases
// them.
//
// Publication is O(changed jobs), not O(jobs): job records live in fixed-size
// copy-on-write chunks shared between consecutive snapshots, and the
// simulator reports which jobs mutated since the last publish through a
// Job::DirtySink. Only chunks containing dirtied jobs are rebuilt; per-chunk
// state counts make the aggregate job-state counters an O(dirty chunks)
// incremental update.
#ifndef SRC_SVC_STATE_SNAPSHOT_H_
#define SRC_SVC_STATE_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/workload/job.h"

namespace lyra {
class Simulator;
}

namespace lyra::svc {

// Jobs per copy-on-write chunk. Power of two; small enough that rebuilding
// the chunks a batch touched stays cheap, large enough that a million-job
// snapshot is ~4k shared_ptrs.
inline constexpr std::size_t kSnapshotChunkSize = 256;

// One job's observable state, flattened out of the live Job object.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kPending;
  int current_workers = 0;
  double work_remaining = 0.0;
  int preemptions = 0;
  int scaling_operations = 0;
  TimeSec first_start_time = -1.0;
  TimeSec finish_time = -1.0;
};

struct JobChunk {
  std::vector<JobRecord> records;
  // Records per JobState (index = enum value), so the builder can maintain
  // snapshot-wide counts by subtracting the replaced chunk's contribution.
  std::array<std::uint32_t, 4> state_counts{};
};

struct PoolCounters {
  int servers = 0;
  int total_gpus = 0;
  int used_gpus = 0;
  int free_gpus = 0;

  void Add(const PoolCounters& other) {
    servers += other.servers;
    total_gpus += other.total_gpus;
    used_gpus += other.used_gpus;
    free_gpus += other.free_gpus;
  }
};

struct StateSnapshot {
  // Strictly increasing publish counter; readers use it to assert snapshot
  // monotonicity (a torn or stale-reordered load would break it).
  std::uint64_t version = 0;
  // Engine frontier (virtual time) at publication. Monotone across versions.
  TimeSec time = 0.0;
  // The engine passed its end of time (Simulator::ended) and schedules
  // nothing more.
  bool ended = false;
  std::uint64_t events_processed = 0;
  std::size_t job_count = 0;
  std::size_t command_log_size = 0;
  std::array<std::uint64_t, 4> state_counts{};  // by JobState
  PoolCounters training;
  PoolCounters on_loan;
  PoolCounters inference;
  std::vector<std::shared_ptr<const JobChunk>> chunks;
  // A copy of the engine's metrics registry, refreshed on a wall-clock
  // throttle rather than every publish (copying the registry costs more
  // than a small batch). metrics_time is the frontier it was taken at; it
  // may lag `time` by up to the throttle interval. Null until the first
  // refresh (Start/Restore force one).
  std::shared_ptr<const obs::MetricsValues> engine_metrics;
  TimeSec metrics_time = 0.0;

  // Record for `id`, or nullptr when out of range.
  const JobRecord* FindJob(std::int64_t id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= job_count) {
      return nullptr;
    }
    const auto index = static_cast<std::size_t>(id);
    return &chunks[index / kSnapshotChunkSize]
                ->records[index % kSnapshotChunkSize];
  }
};

// Builds successive snapshots for one engine. Engine-thread only; the
// returned snapshots are immutable and safe to hand to any thread.
class SnapshotBuilder {
 public:
  // The sink to arm on the simulator (Simulator::set_job_dirty_sink).
  Job::DirtySink* sink() { return &sink_; }

  // Rebuilds the chunks containing jobs dirtied since the last publish and
  // returns a new snapshot sharing every untouched chunk. `refresh_metrics`
  // re-copies the metrics registry (callers throttle this). The previous
  // copy is carried forward otherwise.
  std::shared_ptr<const StateSnapshot> Publish(const Simulator& sim,
                                               std::size_t command_log_size,
                                               bool refresh_metrics);

 private:
  Job::DirtySink sink_;
  std::vector<std::shared_ptr<const JobChunk>> chunks_;
  std::array<std::uint64_t, 4> state_counts_{};
  std::uint64_t version_ = 0;
  std::shared_ptr<const obs::MetricsValues> engine_metrics_;
  TimeSec metrics_time_ = 0.0;
  std::vector<std::size_t> dirty_chunks_;  // scratch, reused across publishes
};

// "pending", "running", "finished" or "cancelled": the wire and exposition
// name of a job state.
const char* JobStateName(JobState state);

// A fleet's summary snapshot, what its merged reads report: job, event and
// command-log counts and the pools summed, the times and the version the
// furthest engine's, and `ended` when any engine ended. It holds no job
// records and no registry.
StateSnapshot SumSnapshots(
    const std::vector<std::shared_ptr<const StateSnapshot>>& snaps);

// SumSnapshots plus the registry copies merged by obs::MetricsValues::Merge
// (null when no engine has one yet).
StateSnapshot MergeSnapshots(
    const std::vector<std::shared_ptr<const StateSnapshot>>& snaps);

}  // namespace lyra::svc

#endif  // SRC_SVC_STATE_SNAPSHOT_H_
