// Engine fleets for the online scheduler service (DESIGN.md §10): one
// router for the plain daemon and `--federation=<spec>`.
//
// Every daemon is a list of ClusterSpecs — each cluster one single-writer
// SchedulerService engine — behind the one epoll front end; a single
// cluster is the smallest case:
//
//   - Submits route by explicit "cluster" field (name or index) or by job
//     kind ("kind": "inference" | "training", default training); among the
//     kind's clusters the key hash / submit counter picks one, so routing
//     stays a pure function of (cluster, key | sequence).
//   - `migrate` moves a job between training clusters for defragmentation:
//     cancel on the source engine, resubmit on the destination with the
//     remaining work plus a checkpoint cost (cheap when the job
//     checkpoints, expensive when it must recompute). Each completed move
//     appends a line to the router's migration ledger.
//   - `snapshot` writes one LYRAFED file at every fleet size (per-cluster
//     names, kinds and LYRASNAP images, migration ledger hash and routing
//     counter), so a warm restart rebuilds every engine byte-identically
//     and every cluster under its own name and kind. The engines encode
//     their images in memory; the router's barrier is the only snapshot
//     writer.
//
// Capacity loaning (Lyra §4) happens inside each engine: its Orchestrator
// moves real servers between the inference and training whitelists. The
// router moves no capacity between clusters; loans across engines (Aryl,
// PAPERS.md) would need logged engine commands of their own.
#ifndef SRC_SVC_FEDERATION_H_
#define SRC_SVC_FEDERATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/svc/service.h"
#include "src/svc/snapshot.h"
#include "src/svc/telemetry.h"

namespace lyra::svc {

// Parses a `--federation=` spec:
//   "NxM"      N inference + M training clusters
//   "name:kind,..."  explicit comma-separated list
//             (kind: "inference"/"inf" or "training"/"train")
// Default names are inf0..infN-1 / train0..trainM-1. The list must pass
// ValidateClusters (snapshot.h).
StatusOr<std::vector<ClusterSpec>> ParseFederationSpec(const std::string& spec);

// Checkpoint cost charged to a migrated job, in GPU-seconds of extra work:
// a checkpointing job resumes from its last checkpoint; a non-checkpointing
// job pays the cold restart (Lyra §4: checkpoint/restore vs recompute).
inline constexpr double kMigrationCheckpointCost = 60.0;
inline constexpr double kMigrationColdCost = 300.0;

// The one front end for every daemon: a router over single-writer
// SchedulerService engines, one per cluster, so engine k is cluster k in
// spec order. A plain daemon is one training cluster "train0", and
// `--federation=0xN` is N training clusters.
//
//   - Job ids returned to clients are global (FleetIds, service.h): engine
//     k of E answers its local job L as G = L * E + k, so G mod E names the
//     engine. Each engine translates at its own boundary and the router
//     forwards replies untouched. At E == 1 global and local coincide.
//   - submit routes to its target engines (see TargetEngines) by an FNV-1a
//     hash of the client's "key" string when present, of the router's
//     monotone submit counter otherwise; cancel and query_job route by the
//     engine encoded in the job id.
//   - Every read (query_job, cluster_stats, ping, stats_prom, trace_dump,
//     federation_stats) and every unknown command is answered here, by one
//     dispatcher (Read) and one function per read, from the engines'
//     published snapshots off the engine threads, at every fleet size.
//     Each fleet fact has one home: metrics live in RenderPrometheus(router)
//     (prom.h), which stats_prom and /metrics serve, and the per-cluster
//     jobs and GPUs in federation_stats. Fleet-only fields (ping's
//     shard_count/shards, trace_dump's shards) appear only at E > 1, so a
//     one-engine reply is the plain daemon's; trace_dump writes one file
//     per engine.
//   - advance / drain / snapshot / shutdown fan out to every engine behind a
//     completion barrier, which echoes the client's "seq" once. Each engine
//     encodes its `snapshot` image into a slot the barrier owns, and the
//     last engine to finish writes the file with one WriteFileAtomic, the
//     submit counter and the migration ledger hash included.
//   - At one engine every engine command except snapshot and migrate goes
//     straight to engine 0. Every reply, snapshot's included, is the plain
//     service's: the barrier adds no fleet-only field (clusters, a failure's
//     shard) below two engines.
//
// One call dispatches an engine command (Dispatch): it routes and peeks the
// submit counter for the shed check, and only when the command is not shed
// consumes the counter, decodes and enqueues. So a shed keyless submit
// burns no sequence number while a malformed one does, like any other, and
// the counter can never desynchronize from the engine a command ran on.
class FederationRouter {
 public:
  // `engines` must outlive the router; engine k runs cluster k, so the two
  // lists have one size.
  FederationRouter(std::vector<SchedulerService*> engines,
                   std::vector<ClusterSpec> clusters);

  FederationRouter(const FederationRouter&) = delete;
  FederationRouter& operator=(const FederationRouter&) = delete;

  // Engines, and so clusters: engine k runs cluster k.
  int shard_count() const { return static_cast<int>(shards_.size()); }
  SchedulerService* shard(int i) const { return shards_[static_cast<std::size_t>(i)]; }
  // Engine 0 doubles as the front end's home service: I/O-thread telemetry,
  // read and error counts, and identity fields all live there.
  SchedulerService* front() const { return shards_.front(); }
  // The engines in flat order, for the Prometheus renderer.
  std::vector<const SchedulerService*> engines() const {
    return {shards_.begin(), shards_.end()};
  }

  const ClusterSpec& cluster_spec(int c) const {
    return clusters_[static_cast<std::size_t>(c)];
  }
  int FindCluster(const std::string& name) const;  // -1 when unknown

  // The engine a fleet job id routes to (the id is validated by JobIdField
  // first). Engine k of this pool is FleetIds{k, shard_count()}, as
  // BuildFederation and RestoreFederation make it.
  std::uint32_t ShardOfJob(std::int64_t global) const {
    return FleetIds{0, static_cast<std::uint32_t>(shards_.size())}.EngineOf(
        global);
  }

  // Routes, decodes and enqueues engine command `cmd` (TelemetryCmdFromName
  // of the request's "cmd"). Returns true when it shed the command: with
  // `may_shed`, a target engine saturated on the EngineSaturated() hint
  // (counted there) leaves the counter, the queues and the sink untouched,
  // and the caller answers with OverloadedReply(). Otherwise sink->OnReply(a,
  // b, reply) fires once, possibly before this returns: an invalid target or
  // a malformed command (DecodeEngineCommand) is answered inline, once, and
  // counted as a command error, and a full queue is rejected by Enqueue.
  // migrate starts its cancel/resubmit chain; a barrier command (snapshot at
  // every fleet size; advance, drain and shutdown at more than one engine)
  // goes to every engine behind a sink that merges the replies and delivers
  // once. The caller's per-request state (the event loop's reply slot) must
  // exist before the call, for the inline answers.
  bool Dispatch(TelemetryCmd cmd, const JsonValue& request,
                std::shared_ptr<SchedulerService::CompletionSink> sink,
                std::uint64_t a, std::uint64_t b, bool may_shed = true);

  // --- Reads ------------------------------------------------------------

  // Answers a read-only or unknown command `cmd` (as TelemetryCmdFromName
  // decoded request's "cmd") on the caller's thread, from the engines'
  // snapshots. An unknown command is invalid_argument and a stopped engine
  // makes every read unavailable; a served read counts in engine 0's
  // reads_served. The reply echoes the request's "seq".
  JsonValue Read(TelemetryCmd cmd, const JsonValue& request) const;

  // Synchronous convenience for tools and tests: answers the command as the
  // event loop would, a read by Read and an engine command by Dispatch
  // (never shed) and waited for.
  JsonValue Execute(const JsonValue& request);

  // --- Front-end hints and aggregates -----------------------------------

  // True when any engine's queue is at capacity: the event loop gates reads
  // on this, deliberately conservative — with per-frame routing unknown at
  // gate time, one saturated engine stalls intake rather than letting its
  // frames pile up as rejections.
  bool AnySaturated() const;

  // Sum of the per-engine racy queue depths (telemetry annotations).
  std::size_t QueueDepthHint() const;

  // Per-engine stats summed (queue_peak is a max).
  SchedulerService::Stats AggregateStats() const;

  // Routing sequence for keyless submits; persisted in the snapshot
  // container and restored by RestoreFederation.
  std::uint64_t submit_seq() const {
    return submit_seq_.load(std::memory_order_relaxed);
  }
  void set_submit_seq(std::uint64_t seq) {
    submit_seq_.store(seq, std::memory_order_relaxed);
  }

  // The migration ledger: every completed migration appends one event line
  // and folds it into a rolling FNV-1a hash, the byte-identity witness for
  // warm-restart tests. Thread-safe; RestoreLedger seeds the hash after a
  // restore (the recent-events ring starts empty).
  std::uint64_t ledger_hash() const;
  std::vector<std::string> RecentEvents() const;
  void RestoreLedger(std::uint64_t ledger_hash);

 private:
  class FanoutSink;
  class WaitSink;
  class MigrationSink;

  // Candidate engines for a submit: the explicit cluster's one engine, or
  // every engine of the requested kind. Empty when the target doesn't
  // resolve.
  std::span<const std::uint32_t> TargetEngines(const JsonValue& request) const;
  JsonValue RejectReply(TelemetryCmd cmd, const JsonValue& request) const;
  // Starts migrate's cancel/resubmit chain, which answers `sink`; returns
  // the refusal instead (null once started) when the move is invalid.
  JsonValue StartMigration(
      const JsonValue& request,
      const std::shared_ptr<SchedulerService::CompletionSink>& sink,
      std::uint64_t a, std::uint64_t b);

  // Merges the fanout replies into the client's one (called by the last
  // engine to complete, on its engine thread); a snapshot also writes its
  // file from the engines' images.
  JsonValue MergeFanout(TelemetryCmd cmd, std::optional<double> seq,
                        const std::string& snapshot_path,
                        std::uint64_t snapshot_submit_seq,
                        std::vector<JsonValue>& replies,
                        std::vector<std::string>& images) const;
  // The snapshot file's bytes: the LYRAFED container of the engines'
  // LYRASNAP images (moved from), one cluster per engine.
  std::string EncodeFleetSnapshot(std::uint64_t submit_seq,
                                  std::vector<std::string>& images) const;

  // The fleet's snapshot for a read: engine 0's own at one engine (no
  // copy), else SumSnapshots over every engine's.
  std::shared_ptr<const StateSnapshot> FleetSnapshot() const;

  // One function per read, called by Read once the engines are known to
  // serve.
  JsonValue QueryJob(const JsonValue& request) const;
  JsonValue ClusterStats(const JsonValue& request) const;
  JsonValue Ping(const JsonValue& request) const;
  JsonValue StatsProm(const JsonValue& request) const;
  JsonValue TraceDump(const JsonValue& request) const;
  JsonValue FederationStats(const JsonValue& request) const;
  // federation_stats' entry for cluster c: jobs by state and the cluster's
  // own pool (inference for an inference cluster, training otherwise), read
  // from engine c's snapshot.
  JsonValue ClusterInfo(int c) const;
  // Appends one migration event line to the ledger; called under ledger_mu_.
  void RecordMigration(double now, std::int64_t from_job, std::int64_t to_job,
                       std::uint32_t from_cluster, std::uint32_t to_cluster,
                       double checkpoint_cost);

  std::vector<SchedulerService*> shards_;
  std::atomic<std::uint64_t> submit_seq_{0};
  std::vector<ClusterSpec> clusters_;
  std::vector<std::uint32_t> kind_engines_[2];  // per ClusterKind, ascending
  // Event lines retained for federation_stats (the hash covers all).
  static constexpr std::size_t kMaxEvents = 256;
  // Guards the migration ledger: migration completions land on arbitrary
  // engine threads concurrently.
  mutable std::mutex ledger_mu_;
  std::uint64_t ledger_hash_ = 0;
  std::vector<std::string> events_;
};

// A fleet of engines plus its router, built together: the one construction
// path for lyra_schedd, the saturation bench, and tests.
struct FederationSet {
  std::vector<std::unique_ptr<SchedulerService>> services;
  std::unique_ptr<FederationRouter> router;
};

// The plain daemon's topology: one training cluster "train0", the fleet
// `--federation=0x1` describes.
std::vector<ClusterSpec> SingleCluster();

// Engine k's file for a per-engine output such as a trace stream or a
// flight-recorder dump: engine 0 keeps `path`, engine k > 0 writes
// "<path>.shard<k>", and an empty path (output off) stays empty.
std::string EnginePath(const std::string& path, int engine);

// Builds and Start()s one engine per cluster (a list ValidateClusters
// accepts), engine k getting seed
// base.engine.seed + k (so a one-engine fleet is the plain
// service exactly) and trace path EnginePath(base.trace_path, k).
StatusOr<FederationSet> BuildFederation(
    const ServiceOptions& base, const std::vector<ClusterSpec>& clusters,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver);

// Restores a fleet from a snapshot file: cluster layout, per-engine images,
// routing counter, and migration ledger hash all come from the file; runtime
// knobs come from `base`. The file is read whole by LoadFleetSnapshot
// (snapshot.h) before an engine starts, so any file it refuses — a bare
// LYRASNAP, a LYRAFED of another version, a bad cluster list or image —
// builds no engine.
StatusOr<FederationSet> RestoreFederation(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver);

}  // namespace lyra::svc

#endif  // SRC_SVC_FEDERATION_H_
