#include "src/svc/telemetry.h"

#include <algorithm>

namespace lyra::svc {
namespace {

// One name per TelemetryCmd, in enum order. A list one entry short would
// leave a null name at the end, which the assert below refuses.
constexpr const char* kCmdNames[kTelemetryCmdCount] = {
    "submit",     "cancel",     "advance",    "drain",
    "snapshot",   "shutdown",   "query_job",  "cluster_stats",
    "ping",       "stats_prom", "trace_dump", "migrate",
    "federation_stats", "other", "batch_apply", "snapshot_publish",
};
static_assert(std::ranges::none_of(kCmdNames,
                                   [](const char* name) { return name == nullptr; }),
              "kCmdNames needs one name per TelemetryCmd");

}  // namespace

const char* TelemetryCmdName(TelemetryCmd cmd) {
  const int index = static_cast<int>(cmd);
  if (index < 0 || index >= kTelemetryCmdCount) {
    return "other";
  }
  return kCmdNames[index];
}

TelemetryCmd TelemetryCmdFromName(const std::string& name) {
  // Only wire commands resolve by name; the engine span kinds are internal.
  for (int i = 0; i < kTelemetryWireCmdCount; ++i) {
    if (name == kCmdNames[i]) {
      return static_cast<TelemetryCmd>(i);
    }
  }
  return TelemetryCmd::kOther;
}

std::vector<double> Log2Histogram::Bounds(double scale) {
  std::vector<double> bounds;
  bounds.reserve(kBucketCount);
  double b = 1.0;
  for (int i = 0; i < kBucketCount; ++i) {
    bounds.push_back(b * scale);
    b *= 2.0;
  }
  return bounds;
}

obs::Histogram Log2Histogram::ToHistogram(double scale) const {
  std::vector<std::uint64_t> counts(kBucketCount + 1);
  for (int i = 0; i <= kBucketCount; ++i) {
    counts[static_cast<std::size_t>(i)] =
        counts_[i].load(std::memory_order_relaxed);
  }
  const double sum =
      static_cast<double>(sum_.load(std::memory_order_relaxed)) * scale;
  return obs::Histogram(Bounds(scale), std::move(counts), sum);
}

void SpanRing::Collect(std::uint8_t shard_index,
                       std::vector<RequestSpan>* out) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, kCapacity);
  // Oldest surviving span first. When the ring has wrapped, that's the slot
  // the writer will overwrite next.
  const std::uint64_t start = head - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Slot& slot = slots_[(start + i) % kCapacity];
    RequestSpan span;
    span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    span.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    span.conn = slot.conn.load(std::memory_order_relaxed);
    span.seq = slot.seq.load(std::memory_order_relaxed);
    span.queue_depth = slot.queue_depth.load(std::memory_order_relaxed);
    span.cmd = static_cast<TelemetryCmd>(
        slot.cmd.load(std::memory_order_relaxed) %
        static_cast<std::uint8_t>(kTelemetryCmdCount));
    span.shard = shard_index;
    if (span.start_ns != 0 || span.dur_ns != 0) {
      out->push_back(span);
    }
  }
}

Telemetry::Telemetry() : epoch_ns_(TelemetryNowNs()) {}

TelemetryShard* Telemetry::AcquireShard(const std::string& role) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t index = shard_count_.load(std::memory_order_relaxed);
  if (index >= kMaxShards) {
    return nullptr;
  }
  shards_[index] = std::make_unique<TelemetryShard>(role);
  // Publish the count after the slot: readers iterate [0, count) and must
  // see the pointer.
  shard_count_.store(index + 1, std::memory_order_release);
  return shards_[index].get();
}

TelemetrySummary Telemetry::Collect() const {
  TelemetrySummary summary;
  const double kNsToSeconds = 1e-9;
  for (int c = 0; c < kTelemetryWireCmdCount; ++c) {
    summary.cmd_latency.emplace_back(Log2Histogram::Bounds(kNsToSeconds));
  }
  summary.dispatch_lag.emplace_back(Log2Histogram::Bounds(kNsToSeconds));
  summary.wake_events.emplace_back(Log2Histogram::Bounds(1.0));
  summary.completion_batch.emplace_back(Log2Histogram::Bounds(1.0));
  summary.engine_batch_apply.emplace_back(Log2Histogram::Bounds(kNsToSeconds));
  summary.engine_snapshot_publish.emplace_back(
      Log2Histogram::Bounds(kNsToSeconds));
  summary.engine_batch_commands.emplace_back(Log2Histogram::Bounds(1.0));

  const std::size_t n = shard_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const TelemetryShard& shard = *shards_[i];
    for (int c = 0; c < kTelemetryWireCmdCount; ++c) {
      summary.cmd_latency[static_cast<std::size_t>(c)].Merge(
          shard.cmd_latency[c].ToHistogram(kNsToSeconds));
    }
    summary.dispatch_lag[0].Merge(shard.dispatch_lag.ToHistogram(kNsToSeconds));
    summary.wake_events[0].Merge(shard.wake_events.ToHistogram(1.0));
    summary.completion_batch[0].Merge(shard.completion_batch.ToHistogram(1.0));
    summary.engine_batch_apply[0].Merge(
        shard.engine_batch_apply.ToHistogram(kNsToSeconds));
    summary.engine_snapshot_publish[0].Merge(
        shard.engine_snapshot_publish.ToHistogram(kNsToSeconds));
    summary.engine_batch_commands[0].Merge(
        shard.engine_batch_commands.ToHistogram(1.0));

    TelemetrySummary::ShardCounters counters;
    counters.role = shard.role;
    counters.bytes_in = shard.bytes_in.value();
    counters.bytes_out = shard.bytes_out.value();
    counters.frames_in = shard.frames_in.value();
    counters.frames_out = shard.frames_out.value();
    counters.write_queue_peak = shard.write_queue_peak.value();
    counters.spans_recorded = shard.spans.recorded();
    summary.shards.push_back(std::move(counters));
  }
  return summary;
}

std::vector<RequestSpan> Telemetry::CollectSpans() const {
  std::vector<RequestSpan> spans;
  const std::size_t n = shard_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i]->spans.Collect(static_cast<std::uint8_t>(i), &spans);
  }
  std::sort(spans.begin(), spans.end(),
            [](const RequestSpan& a, const RequestSpan& b) {
              return a.start_ns < b.start_ns;
            });
  return spans;
}

}  // namespace lyra::svc
