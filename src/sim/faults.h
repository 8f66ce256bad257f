// Deterministic fault injection for the simulator (DESIGN.md §7).
//
// A FaultInjector owns its own seeded Rng stream and draws exponential
// inter-arrival times for four fault classes:
//   - server crashes: a training-visible server dies; its jobs are preempted
//     (checkpoint-restore semantics) or scaled in, the server leaves the
//     capacity pool (ClusterState::MarkServerDown), and an MTTR-distributed
//     recovery brings it back.
//   - transient worker failures: one worker of a running job restarts; the
//     gang stalls for a fixed delay (finish slips by exactly that long).
//   - loan revocation storms: the inference side demands a burst of servers
//     back at once, beyond the diurnal curve — a forced reclaim + return.
//   - straggler slowdowns: a running job's throughput is degraded by a
//     multiplicative factor for a bounded duration.
//
// Every draw happens on the injector's private stream, so with
// FaultOptions::enabled == false the simulator performs zero extra draws and
// stays bit-identical to a build without this subsystem. All firings are
// appended to a log with a rolling FNV-1a hash, which the determinism tests
// compare across runs.
#ifndef SRC_SIM_FAULTS_H_
#define SRC_SIM_FAULTS_H_

#include <cstdint>
#include <vector>

#include "src/common/codec.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace lyra {

struct FaultOptions {
  bool enabled = false;
  std::uint64_t seed = 13;

  // Fleet-wide mean time between server crashes; <= 0 disables crashes.
  TimeSec server_mtbf = 0.0;
  // Mean time to repair a crashed server (exponentially distributed).
  TimeSec server_mttr = 2 * kHour;

  // Mean time between single-worker failures; <= 0 disables them.
  TimeSec worker_mtbf = 0.0;
  // How long the gang stalls while the failed worker restarts.
  TimeSec worker_restart_delay = 5 * kMinute;

  // Mean time between revocation storms; <= 0 disables them.
  TimeSec storm_mtbf = 0.0;
  // Fraction of currently loaned servers revoked per storm (at least one).
  double storm_fraction = 0.5;

  // Mean time between straggler onsets; <= 0 disables them.
  TimeSec straggler_mtbf = 0.0;
  // Multiplier applied to the afflicted job's throughput while degraded.
  double straggler_factor = 0.5;
  // How long the degradation lasts.
  TimeSec straggler_duration = kHour;
};

enum class FaultKind : std::uint8_t {
  kServerCrash,
  kServerRecovery,
  kWorkerFailure,
  kRevocationStorm,
  kStragglerStart,
  kStragglerEnd,
};

// One fault firing. `target` is a server id for crash/recovery, a job id for
// worker/straggler faults, and the number of servers revoked for storms.
// `jobs_affected` counts preemptions (crash, storm) or is 0.
struct FaultRecord {
  TimeSec time = 0.0;
  FaultKind kind = FaultKind::kServerCrash;
  std::int64_t target = -1;
  int jobs_affected = 0;

  friend bool operator==(const FaultRecord& a, const FaultRecord& b) {
    return a.time == b.time && a.kind == b.kind && a.target == b.target &&
           a.jobs_affected == b.jobs_affected;
  }
};

struct FaultStats {
  int server_crashes = 0;
  int server_recoveries = 0;
  int worker_failures = 0;
  int revocation_storms = 0;
  int stragglers = 0;
  // Jobs fully preempted by crashes (they re-enter the queue).
  int jobs_killed = 0;
  // Jobs that lost flexible workers to a crash but kept running.
  int jobs_scaled_in = 0;
  // Servers the storms actually forced back to the inference pool.
  int storm_servers_revoked = 0;

  friend bool operator==(const FaultStats& a, const FaultStats& b) {
    return a.server_crashes == b.server_crashes &&
           a.server_recoveries == b.server_recoveries &&
           a.worker_failures == b.worker_failures &&
           a.revocation_storms == b.revocation_storms &&
           a.stragglers == b.stragglers && a.jobs_killed == b.jobs_killed &&
           a.jobs_scaled_in == b.jobs_scaled_in &&
           a.storm_servers_revoked == b.storm_servers_revoked;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultOptions& options);

  const FaultOptions& options() const { return options_; }

  // Next occurrence of each fault class after `now`; +inf when the class is
  // disabled (the simulator drops infinite events instead of queueing them).
  TimeSec NextCrash(TimeSec now) { return NextAfter(now, options_.server_mtbf); }
  TimeSec NextWorkerFailure(TimeSec now) {
    return NextAfter(now, options_.worker_mtbf);
  }
  TimeSec NextStorm(TimeSec now) { return NextAfter(now, options_.storm_mtbf); }
  TimeSec NextStraggler(TimeSec now) {
    return NextAfter(now, options_.straggler_mtbf);
  }

  // Repair time for a crash at `now` (exponential around server_mttr).
  TimeSec DrawRecovery(TimeSec now);

  // Uniform victim index in [0, n). Requires n > 0.
  std::size_t PickIndex(std::size_t n);

  // Servers to revoke in one storm given the current loan count.
  int StormSize(int loaned) const;

  // Appends to the log, folds the record into the stats and rolling hash.
  void Record(const FaultRecord& record);

  const std::vector<FaultRecord>& log() const { return log_; }
  const FaultStats& stats() const { return stats_; }
  FaultStats& stats() { return stats_; }
  std::uint64_t log_hash() const { return hash_; }

 private:
  TimeSec NextAfter(TimeSec now, TimeSec mtbf);

  FaultOptions options_;
  Rng rng_;
  std::vector<FaultRecord> log_;
  FaultStats stats_;
  std::uint64_t hash_ = kFnv1aOffset;
};

}  // namespace lyra

#endif  // SRC_SIM_FAULTS_H_
