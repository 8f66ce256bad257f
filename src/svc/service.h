// SchedulerService: one engine of the online scheduler daemon (DESIGN.md §8).
//
// Wraps the Simulator/ClusterState/Lyra orchestrator stack behind a
// single-writer command queue: one engine thread owns the simulation and
// drains the queue in batches — one lock acquisition and one snapshot
// publication per batch — so pipelining clients amortize mutex/condvar
// traffic across many commands. Backpressure is explicit: when the queue is
// full, Enqueue completes immediately with an `overloaded` reply carrying a
// retry-after hint, so socket workers never wedge behind a slow engine.
//
// The service is the engine only: queue, apply, snapshot publication and
// stats. It answers no read and parses no frame. The FederationRouter
// (federation.h) is the one protocol surface at every fleet size: it
// decodes each command once, enqueues engine commands here, and answers
// read-only commands itself from the StateSnapshot the engine publishes
// after every applied batch (an atomic shared_ptr swap, RCU-style, no
// locks). Because the publish happens before batch completions are
// delivered, a client that pipelines a write and then a read on one
// connection always reads its own write.
//
// Engine commands are submit, cancel, advance, drain, snapshot and
// shutdown. The front end decodes each one once, on its own thread, into an
// EngineCommand; the engine thread reads no JSON. A mutating command
// (submit, cancel, advance, drain) carries the LoggedCommand it becomes: the
// engine stamps it with virtual time (the engine frontier, maxed with the
// explicit "at" or "to" or else the time driver's clock), runs the one
// step-and-mutate — step to the stamp, then apply — and appends exactly that
// command to its in-memory log. Restore runs the same step-and-mutate over
// the persisted log, so the engine's event sequence is a pure function of
// the logged command sequence. That is the warm-restart invariant: a
// snapshot persists the EngineConfig plus the command log, and Restore
// replays it into a bit-identical engine (same decision log, same fault-log
// hash). Batching changes when commands are applied, never their stamps, so
// the invariant is unaffected by pipelining.
//
// An engine speaks fleet-wide job ids at its boundary (FleetIds): a cancel's
// id is made engine-local before step, mutate and log, and every reply or
// error that names a job names its fleet id. The log, and so the LYRASNAP
// image, holds local ids only.
//
// A snapshot does no file I/O here: the engine encodes its LYRASNAP image
// into the slot the router's barrier hands it, and the router writes the
// one file (federation.h).
//
// An online engine has an end of time, its simulator's max_time. Once
// stepping passes it the engine schedules nothing more, so submit, advance
// and drain answer failed_precondition naming the end (as does a submit
// stamped past it), and the snapshot reports `ended`.
#ifndef SRC_SVC_SERVICE_H_
#define SRC_SVC_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/svc/registry.h"
#include "src/svc/snapshot.h"
#include "src/svc/state_snapshot.h"
#include "src/svc/telemetry.h"
#include "src/svc/time_driver.h"

namespace lyra::svc {

struct ServiceOptions {
  EngineConfig engine;
  // Runtime knobs; none of these affect scheduling decisions, so none are
  // snapshotted.
  int queue_capacity = 1024;
  // Virtual-time mode only: free-run the engine toward quiescence between
  // commands (a daemon's jobs make progress without client traffic). Leave
  // off for deterministic scripting, where the engine moves only on command
  // stamps and explicit advance/drain.
  bool auto_advance = false;
  // When non-empty, the engine streams a Perfetto trace here (including the
  // service's own command instants on the svc track), written on Stop().
  std::string trace_path;
};

// The fleet's job-id format, for engine `engine` of `engines`: the engine
// numbers its jobs L = 0, 1, ... and clients see G = L * engines + engine,
// so G mod engines names the engine and the id carries its own route. The
// default, engine 0 of 1, maps every id to itself. Ids are validated by
// JobIdField first.
struct FleetIds {
  std::uint32_t engine = 0;
  std::uint32_t engines = 1;

  std::int64_t Global(std::int64_t local) const {
    return local * engines + static_cast<std::int64_t>(engine);
  }
  std::int64_t Local(std::int64_t global) const { return global / engines; }
  std::uint32_t EngineOf(std::int64_t global) const {
    return static_cast<std::uint32_t>(global % engines);
  }
};

// One engine command, decoded from its wire request before it is queued.
struct EngineCommand {
  TelemetryCmd cmd = TelemetryCmd::kOther;  // one of the six engine commands
  // The mutating four: what the engine applies and logs, stamp unset. A
  // cancel carries the fleet id here until the engine makes it local.
  LoggedCommand command;
  // The explicit stamp: "at" (submit, cancel) or "to" (advance). Negative
  // when absent, and the engine stamps with its time driver's clock.
  double at = -1.0;
  // Snapshot only: the file the router writes, and the slot, owned by the
  // router's barrier, that the engine fills with its LYRASNAP image.
  std::string path;
  std::string* image = nullptr;
  std::optional<double> seq;  // the client's numeric "seq", echoed back
};

// Decodes engine command `cmd` (TelemetryCmdFromName of the request's "cmd")
// from `request`. A malformed request is InvalidArgument naming the field,
// as is a command that is not one of the six above.
StatusOr<EngineCommand> DecodeEngineCommand(TelemetryCmd cmd,
                                            const JsonValue& request);

class SchedulerService {
 public:
  struct Stats {
    std::uint64_t commands_applied = 0;
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_cancelled = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t command_errors = 0;
    // Read-only commands answered from the snapshot (never enqueued).
    std::uint64_t reads_served = 0;
    std::uint64_t snapshots_published = 0;
    std::size_t queue_depth = 0;
    std::size_t queue_peak = 0;

    // Folds another engine's stats in: counts and depths sum, the peak is
    // the highest.
    void Add(const Stats& other);
  };

  // Receives each reply, on the engine thread for queued commands or
  // inline on the caller's thread for immediate rejections (overload,
  // stopped service), never under a service lock. The queue holds {sink,
  // two caller-chosen words} rather than a type-erased closure, so
  // enqueuing costs a shared_ptr bump and no allocation.
  class CompletionSink {
   public:
    virtual ~CompletionSink() = default;
    virtual void OnReply(std::uint64_t a, std::uint64_t b, JsonValue reply) = 0;
  };

  // `ids` is the engine's place in its fleet (BuildFederation and
  // RestoreFederation set it); a lone engine is engine 0 of 1.
  SchedulerService(ServiceOptions options, std::unique_ptr<TimeDriver> driver,
                   FleetIds ids = {});
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  // Builds the engine and starts the engine thread. InvalidArgument on
  // unknown scheduler/reclaim names.
  Status Start();

  // Builds the engine from `snapshot` (its EngineConfig overrides
  // options.engine) and replays the persisted command log before serving.
  // Call instead of Start().
  Status Restore(ServiceSnapshot snapshot);

  // Same, from a snapshot file read by LoadFleetSnapshot (snapshot.h): a
  // lone engine restores a file of exactly one cluster.
  Status Restore(const std::string& snapshot_path);

  // Processes every queued command, stops the engine thread, and finalizes
  // the engine (flushing the trace file). Idempotent.
  void Stop();

  // True unless the engine is serving: before Start/Restore, and once a
  // shutdown command or Stop() landed. A serving engine has published a
  // snapshot.
  bool stopped() const { return !serving_.load(std::memory_order_acquire); }

  // Thread-safe and non-blocking: queues the decoded engine command.
  // sink->OnReply(a, b, reply) fires once the batch holding the command is
  // applied and its snapshot published; rejections (overload, stopped) fire
  // it before Enqueue returns.
  void Enqueue(EngineCommand command, std::shared_ptr<CompletionSink> sink,
               std::uint64_t a, std::uint64_t b);

  // Counts a failed command the front end answered itself (a malformed
  // frame or engine command, a bad read) in Stats::command_errors.
  void CountError() const {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  // Counts one read the front end answered from the snapshot in
  // Stats::reads_served.
  void CountRead() const {
    reads_served_.fetch_add(1, std::memory_order_relaxed);
  }

  // Advisory saturation hint for front ends: true when the engine queue was
  // at capacity at the last push/drain. Reading it races with the engine's
  // drain by design — a front end may shed a command the queue could just
  // have taken (or vice versa); the authoritative check in Enqueue still
  // rejects when the queue really is full. Shedding on the hint lets an
  // overloaded front end answer with a canned rejection instead of paying
  // the reply-build + completion round trip per rejected frame.
  bool EngineSaturated() const {
    return queue_len_.load(std::memory_order_relaxed) >=
           static_cast<std::size_t>(options_.queue_capacity);
  }

  // Records a rejection the front end shed on the EngineSaturated() hint;
  // folded into Stats::rejected_overload.
  void CountShedOverload() const {
    rejected_shed_.fetch_add(1, std::memory_order_relaxed);
  }

  // Racy engine-queue length, for telemetry annotations only (same mirror
  // that backs EngineSaturated()).
  std::size_t QueueDepthHint() const {
    return queue_len_.load(std::memory_order_relaxed);
  }

  // The latest published snapshot (null before Start/Restore).
  std::shared_ptr<const StateSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  // The telemetry registry. Front ends acquire their per-thread shards here;
  // scrapers (RenderPrometheus, trace_dump) merge through it. The registry is
  // logically part of the service's observable state, hence usable through a
  // const service.
  Telemetry& telemetry() const { return telemetry_; }

  // Wall-clock seconds since construction (the telemetry epoch).
  double UptimeSeconds() const {
    return static_cast<double>(TelemetryNowNs() - telemetry_.epoch_ns()) * 1e-9;
  }

  const char* driver_name() const { return driver_->name(); }

  // Writes the flight recorder (every shard's recent request spans, merged
  // and time-sorted) as a Perfetto-loadable Chrome trace at `path`. Returns
  // the number of spans written. Any thread; also wired to SIGUSR1 in
  // lyra_schedd and the `trace_dump` wire command.
  StatusOr<std::size_t> DumpFlightRecorder(const std::string& path) const;

  Stats stats() const;
  const ServiceOptions& options() const { return options_; }
  const FleetIds& ids() const { return ids_; }
  TimeDriver* driver() { return driver_.get(); }

  // Engine access for embedding and tests. Safe only when no engine thread
  // is running (before Start or after Stop).
  const Simulator& simulator() const { return *engine_.sim; }
  const std::vector<LoggedCommand>& command_log() const { return log_; }

 private:
  struct PendingCommand {
    EngineCommand command;
    std::shared_ptr<CompletionSink> sink;
    std::uint64_t sink_a = 0;
    std::uint64_t sink_b = 0;
  };

  // kRefresh: idle past the registry refresh interval after a publish that
  // skipped the registry copy; publish once more, with it.
  enum class NextAction { kApply, kStep, kWaitRealTime, kRefresh, kStop };

  void EngineLoop();
  NextAction Next(std::vector<PendingCommand>* batch);
  void PublishSnapshot();

  // Live apply: a mutating command is stamped, checked against the end of
  // time, stepped and mutated, and only then logged, traced and counted.
  JsonValue Apply(EngineCommand& command);
  // Encodes the engine's LYRASNAP image (config, log, horizon) into *image.
  JsonValue ApplySnapshot(std::string* image);
  // The one step-and-mutate, shared by live apply and restore: steps to the
  // command's stamp (a drain to quiescence), then submits or cancels. Returns
  // the submitted or cancelled job.
  StatusOr<JobId> StepAndMutate(const LoggedCommand& cmd);
  // failed_precondition "<what> end of time (t=<max_time>)", counted as a
  // command error.
  JsonValue EndedReply(const std::string& what);

  // Shared tail of Start/Restore, once engine_ is built and stepped:
  // publish the first snapshot, acquire the engine shard, start serving.
  void Serve();

  void TraceCommand(const char* name, TimeSec stamp);

  ServiceOptions options_;
  std::unique_ptr<TimeDriver> driver_;
  const FleetIds ids_;
  Engine engine_;
  std::vector<LoggedCommand> log_;

  // Sharded telemetry plane (DESIGN.md §9). Mutable: shard acquisition and
  // recording are observability, not service state.
  mutable Telemetry telemetry_;
  // Engine thread's shard; acquired in Start/Restore before the thread runs.
  TelemetryShard* engine_shard_ = nullptr;

  SnapshotBuilder builder_;  // engine-thread only
  std::atomic<std::shared_ptr<const StateSnapshot>> snapshot_;

  std::thread engine_thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // engine thread waits for work here
  std::deque<PendingCommand> queue_;
  // Lock-free mirror of queue_.size(), refreshed at every push and drain;
  // backs the EngineSaturated() shed hint only (never authoritative).
  std::atomic<std::size_t> queue_len_{0};
  // Front-end sheds on the saturation hint; merged into rejected_overload.
  mutable std::atomic<std::uint64_t> rejected_shed_{0};
  bool stop_requested_ = false;
  bool started_ = false;
  std::atomic<bool> serving_{false};
  // Engine-thread-only: true once auto-advance reached quiescence (reset by
  // the next mutating command), so the loop blocks instead of spinning.
  bool auto_quiescent_ = false;
  bool finalized_ = false;

  // Engine-thread-local batch accumulators, folded into the mu_-guarded
  // counters once per batch (before completions are delivered, so a caller
  // that saw its reply also sees its command counted).
  std::uint64_t batch_applied_ = 0;
  std::uint64_t batch_submitted_ = 0;
  std::uint64_t batch_cancelled_ = 0;
  std::chrono::steady_clock::time_point last_metrics_refresh_{};
  // The last publish skipped the registry copy (engine thread only).
  bool registry_stale_ = false;

  // Guarded by mu_ so a stats() reader always sees one coherent snapshot of
  // the queue-coupled counters (queue_depth/queue_peak vs applied counts).
  std::uint64_t commands_applied_ = 0;
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t snapshots_published_ = 0;
  std::size_t queue_peak_ = 0;

  // Touched by reader threads on the lock-free path; relaxed atomics.
  mutable std::atomic<std::uint64_t> command_errors_{0};
  mutable std::atomic<std::uint64_t> reads_served_{0};
};

}  // namespace lyra::svc

#endif  // SRC_SVC_SERVICE_H_
