// Always-on service telemetry plane (DESIGN.md §9).
//
// The daemon's hot paths must be able to explain their own latency without
// paying for the explanation. The design is sharding by writer thread: every
// I/O thread (and the engine thread) owns one TelemetryShard and is its only
// writer; recording is a handful of relaxed atomic stores into cache lines no
// other thread writes — no contended counters, no locks, no allocation.
// Scrapers (the /metrics exposition, the stats_prom command, lyra_top) merge
// the shards at read time into ordinary obs::Histograms, so all the cost of
// aggregation lands on the cold scrape path.
//
// Readers race with writers by design: every field is an atomic accessed
// relaxed, so a scrape may observe a histogram mid-increment (count ahead of
// sum, or vice versa) and a flight-recorder span mid-overwrite. Scrapes are
// statistical, the flight recorder is forensic; both tolerate that slack and
// neither perturbs the writers.
//
// Each shard also carries the flight recorder: a fixed ring of recent
// request spans (connection, command, seq, queue depth, duration) that
// trace_dump / SIGUSR1 snapshot into a Perfetto-loadable trace. Writers
// overwrite the oldest span; the ring is never drained.
#ifndef SRC_SVC_TELEMETRY_H_
#define SRC_SVC_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace lyra::svc {

// Every command the wire protocol knows, plus kOther for malformed frames.
// Indexes the per-shard latency histograms and names flight-recorder spans.
enum class TelemetryCmd : std::uint8_t {
  kSubmit = 0,
  kCancel,
  kAdvance,
  kDrain,
  kSnapshot,
  kShutdown,
  kQueryJob,
  kClusterStats,
  kPing,
  kStatsProm,
  kTraceDump,
  kMigrate,           // federation: cancel-on-source + resubmit-on-dest chain
  kFederationStats,   // federation: merged per-cluster read
  kOther,
  // Engine-thread span names only; never recorded as request latency.
  kBatchApply,
  kSnapshotPublish,  // last: kTelemetryCmdCount counts through it
};
inline constexpr int kTelemetryCmdCount =
    static_cast<int>(TelemetryCmd::kSnapshotPublish) + 1;
// Wire commands tracked in the request-duration histograms (excludes the
// engine-internal span kinds above).
inline constexpr int kTelemetryWireCmdCount =
    static_cast<int>(TelemetryCmd::kOther) + 1;

const char* TelemetryCmdName(TelemetryCmd cmd);
TelemetryCmd TelemetryCmdFromName(const std::string& name);

// The one command classifier: engine commands go through an engine queue
// (migrate as a cancel/resubmit chain across two); every other command is
// a read the router answers from the snapshots, or unknown.
inline bool IsEngineCmd(TelemetryCmd cmd) {
  return cmd <= TelemetryCmd::kShutdown || cmd == TelemetryCmd::kMigrate;
}

// Monotonic nanoseconds used for all telemetry stamps.
inline std::uint64_t TelemetryNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Log2-bucketed histogram with a single writer and racy readers: bucket i
// counts samples <= 2^i (raw units), i in [0, kBucketCount), plus an
// overflow bucket. Recording is a bit-scan and two relaxed stores; there is
// deliberately no compare-and-swap anywhere — the owning thread is the only
// writer, readers only ever load.
class Log2Histogram {
 public:
  static constexpr int kBucketCount = 36;  // finite bounds 2^0 .. 2^35

  void Record(std::uint64_t value) {
    int bucket = 0;
    if (value > 1) {
      bucket = std::bit_width(value - 1);  // ceil(log2(value))
      if (bucket > kBucketCount) {
        bucket = kBucketCount;  // overflow
      }
    }
    counts_[bucket].store(counts_[bucket].load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + value,
               std::memory_order_relaxed);
  }

  // Materializes the current counts as an obs::Histogram whose bounds are
  // 2^i * scale (scale = 1e-9 turns nanosecond samples into second bounds).
  obs::Histogram ToHistogram(double scale) const;

  // The bucket bounds ToHistogram(scale) uses.
  static std::vector<double> Bounds(double scale);

 private:
  std::atomic<std::uint64_t> counts_[kBucketCount + 1] = {};
  std::atomic<std::uint64_t> sum_{0};
};

// Single-writer counter / high-watermark; readers are racy and relaxed.
class ShardCounter {
 public:
  void Add(std::uint64_t n) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  void NoteMax(std::uint64_t v) {
    if (v > value_.load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// One flight-recorder record, as collected (plain struct).
struct RequestSpan {
  std::uint64_t start_ns = 0;  // TelemetryNowNs at decode / batch start
  std::uint64_t dur_ns = 0;
  std::uint64_t conn = 0;  // connection id; engine spans use the log seq
  std::uint64_t seq = 0;   // per-connection slot seq / engine batch size
  std::uint32_t queue_depth = 0;  // engine queue length when recorded
  TelemetryCmd cmd = TelemetryCmd::kOther;
  std::uint8_t shard = 0;  // index of the recording shard
};

// Fixed ring of recent spans. The owning thread writes; Collect (any
// thread) reads racily — a span being overwritten during a dump can come
// out as a blend of two requests, which a forensic ring accepts in exchange
// for a zero-coordination hot path.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = 4096;

  void Record(std::uint64_t start_ns, std::uint64_t dur_ns, std::uint64_t conn,
              std::uint64_t seq, std::uint32_t queue_depth, TelemetryCmd cmd) {
    Slot& slot = slots_[head_.load(std::memory_order_relaxed) % kCapacity];
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
    slot.conn.store(conn, std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_relaxed);
    slot.queue_depth.store(queue_depth, std::memory_order_relaxed);
    slot.cmd.store(static_cast<std::uint8_t>(cmd), std::memory_order_relaxed);
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  // Appends up to kCapacity recorded spans to `out`, oldest first.
  void Collect(std::uint8_t shard_index, std::vector<RequestSpan>* out) const;

  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint64_t> conn{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint32_t> queue_depth{0};
    std::atomic<std::uint8_t> cmd{0};
  };
  Slot slots_[kCapacity];
  std::atomic<std::uint64_t> head_{0};
};

// One writer thread's telemetry block. I/O threads use the request/transport
// fields; the engine thread uses the engine_* histograms. The struct is
// uniform so scrape-time merging never cares who wrote what.
struct TelemetryShard {
  explicit TelemetryShard(std::string role_name) : role(std::move(role_name)) {}

  const std::string role;  // "io0", "io1", ..., "engine"

  // Request latency, decode -> reply-queued, nanoseconds, per command.
  Log2Histogram cmd_latency[kTelemetryWireCmdCount];
  // epoll_wait return -> event dispatch, nanoseconds.
  Log2Histogram dispatch_lag;
  // Ready epoll events per wakeup.
  Log2Histogram wake_events;
  // Engine completions materialized per mailbox drain.
  Log2Histogram completion_batch;

  // Engine thread only.
  Log2Histogram engine_batch_apply;       // ns per applied batch
  Log2Histogram engine_snapshot_publish;  // ns per snapshot publish
  Log2Histogram engine_batch_commands;    // commands per applied batch

  ShardCounter bytes_in;
  ShardCounter bytes_out;
  ShardCounter frames_in;
  ShardCounter frames_out;
  ShardCounter write_queue_peak;  // high-watermark of queued reply bytes

  SpanRing spans;

  void RecordCmd(TelemetryCmd cmd, std::uint64_t dur_ns) {
    const int index = static_cast<int>(cmd);
    if (index < kTelemetryWireCmdCount) {
      cmd_latency[index].Record(dur_ns);
    }
  }
};

// Scrape-time merge of every shard, in plain (non-atomic) form.
struct TelemetrySummary {
  struct ShardCounters {
    std::string role;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t write_queue_peak = 0;
    std::uint64_t spans_recorded = 0;
  };

  // Indexed by TelemetryCmd, merged across shards; seconds.
  std::vector<obs::Histogram> cmd_latency;
  std::vector<obs::Histogram> dispatch_lag;        // one element, seconds
  std::vector<obs::Histogram> wake_events;         // one element, events
  std::vector<obs::Histogram> completion_batch;    // one element, completions
  std::vector<obs::Histogram> engine_batch_apply;  // one element, seconds
  std::vector<obs::Histogram> engine_snapshot_publish;  // one element, seconds
  std::vector<obs::Histogram> engine_batch_commands;    // one element, commands
  std::vector<ShardCounters> shards;
};

// The registry: owns the shards, hands one to each writer thread, merges at
// scrape time. Shard allocation is mutex-guarded (it happens a handful of
// times at thread startup); everything after that is lock-free.
class Telemetry {
 public:
  static constexpr std::size_t kMaxShards = 64;

  Telemetry();

  // Returns this writer thread's block. Stable address for the Telemetry
  // lifetime; nullptr once kMaxShards threads registered (callers then skip
  // recording — correctness never depends on telemetry).
  TelemetryShard* AcquireShard(const std::string& role);

  // Wall-clock epoch spans are stamped against (construction time).
  std::uint64_t epoch_ns() const { return epoch_ns_; }

  // Merges every shard into plain histograms/counters. Any thread.
  TelemetrySummary Collect() const;

  // Gathers every shard's flight-recorder ring, merged and sorted by start
  // time. Any thread.
  std::vector<RequestSpan> CollectSpans() const;

 private:
  const std::uint64_t epoch_ns_;
  mutable std::mutex mu_;  // guards shard creation only
  std::unique_ptr<TelemetryShard> shards_[kMaxShards];
  std::atomic<std::size_t> shard_count_{0};
};

}  // namespace lyra::svc

#endif  // SRC_SVC_TELEMETRY_H_
