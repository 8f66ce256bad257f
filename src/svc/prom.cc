#include "src/svc/prom.h"

#include <array>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/svc/federation.h"
#include "src/svc/service.h"
#include "src/svc/state_snapshot.h"
#include "src/svc/telemetry.h"

namespace lyra::svc {
namespace {

void AppendNumber(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void AppendCount(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendHeader(std::string& out, const char* family, const char* type,
                  const char* help) {
  out += "# HELP ";
  out += family;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

// `labels` is pre-rendered inner label text, e.g. "cmd=\"submit\"" (may be
// empty). All label values here are identifier-like, so no escaping needed.
void AppendSample(std::string& out, const char* family, const char* suffix,
                  const std::string& labels, double value) {
  out += family;
  out += suffix;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  AppendNumber(out, value);
  out += '\n';
}

void AppendCountSample(std::string& out, const char* family,
                       const char* suffix, const std::string& labels,
                       std::uint64_t value) {
  out += family;
  out += suffix;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  AppendCount(out, value);
  out += '\n';
}

// Emits the cumulative _bucket/_sum/_count triplet for one labeled series.
// `labels` must not contain `le` (it is appended here).
void AppendHistogramSeries(std::string& out, const char* family,
                           const std::string& labels,
                           const obs::Histogram& histogram) {
  std::uint64_t cumulative = 0;
  const auto& bounds = histogram.upper_bounds();
  const auto& counts = histogram.bucket_counts();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    std::string bucket_labels = labels;
    if (!bucket_labels.empty()) {
      bucket_labels += ',';
    }
    bucket_labels += "le=\"";
    AppendNumber(bucket_labels, bounds[i]);
    bucket_labels += '"';
    AppendCountSample(out, family, "_bucket", bucket_labels, cumulative);
  }
  cumulative += counts.back();
  std::string inf_labels = labels;
  if (!inf_labels.empty()) {
    inf_labels += ',';
  }
  inf_labels += "le=\"+Inf\"";
  AppendCountSample(out, family, "_bucket", inf_labels, cumulative);
  AppendSample(out, family, "_sum", labels, histogram.sum());
  AppendCountSample(out, family, "_count", labels, histogram.count());
}

void AppendSingleHistogram(std::string& out, const char* family,
                           const char* help, const obs::Histogram& histogram) {
  AppendHeader(out, family, "histogram", help);
  AppendHistogramSeries(out, family, "", histogram);
}

constexpr const char* kJobStateNames[] = {"pending", "running", "finished",
                                          "cancelled"};

void AppendPool(std::string& out, const char* pool, const PoolCounters& c) {
  const std::string base = std::string("pool=\"") + pool + "\"";
  AppendSample(out, "lyra_engine_pool_servers", "", base,
               static_cast<double>(c.servers));
}

void AppendPoolGpus(std::string& out, const char* pool,
                    const PoolCounters& c) {
  const std::string base = std::string("pool=\"") + pool + "\",kind=\"";
  AppendSample(out, "lyra_engine_pool_gpus", "", base + "total\"",
               static_cast<double>(c.total_gpus));
  AppendSample(out, "lyra_engine_pool_gpus", "", base + "used\"",
               static_cast<double>(c.used_gpus));
  AppendSample(out, "lyra_engine_pool_gpus", "", base + "free\"",
               static_cast<double>(c.free_gpus));
}

}  // namespace

std::string RenderPrometheus(const SchedulerService& service) {
  const TelemetrySummary telemetry = service.telemetry().Collect();
  const SchedulerService::Stats stats = service.stats();
  const std::shared_ptr<const StateSnapshot> snap = service.snapshot();

  std::string out;
  out.reserve(32768);

  // --- request latency, per command (skip never-seen commands) ---
  AppendHeader(out, "lyra_svc_request_duration_seconds", "histogram",
               "Request latency from frame decode to reply queued, per "
               "command.");
  for (int c = 0; c < kTelemetryWireCmdCount; ++c) {
    const obs::Histogram& h = telemetry.cmd_latency[static_cast<std::size_t>(c)];
    if (h.count() == 0) {
      continue;
    }
    const std::string labels =
        std::string("cmd=\"") +
        TelemetryCmdName(static_cast<TelemetryCmd>(c)) + "\"";
    AppendHistogramSeries(out, "lyra_svc_request_duration_seconds", labels, h);
  }

  AppendSingleHistogram(out, "lyra_svc_epoll_dispatch_lag_seconds",
                        "Delay from epoll_wait return to event dispatch.",
                        telemetry.dispatch_lag[0]);
  AppendSingleHistogram(out, "lyra_svc_wake_batch_events",
                        "Ready epoll events handled per wakeup.",
                        telemetry.wake_events[0]);
  AppendSingleHistogram(out, "lyra_svc_completion_batch",
                        "Engine completions delivered per mailbox drain.",
                        telemetry.completion_batch[0]);
  AppendSingleHistogram(out, "lyra_svc_engine_batch_apply_seconds",
                        "Engine time applying one command batch.",
                        telemetry.engine_batch_apply[0]);
  AppendSingleHistogram(out, "lyra_svc_engine_snapshot_publish_seconds",
                        "Engine time publishing one read snapshot.",
                        telemetry.engine_snapshot_publish[0]);
  AppendSingleHistogram(out, "lyra_svc_engine_batch_commands",
                        "Commands applied per engine batch.",
                        telemetry.engine_batch_commands[0]);

  // --- per-io-thread transport counters ---
  // The engine shard never touches a socket; exporting its always-zero
  // transport counters would only skew per-thread balance views.
  const auto is_io = [](const TelemetrySummary::ShardCounters& shard) {
    return shard.role.rfind("io", 0) == 0;
  };
  AppendHeader(out, "lyra_svc_io_bytes_total", "counter",
               "Bytes moved by each io thread, by direction.");
  for (const auto& shard : telemetry.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_io_bytes_total", "",
                      "thread=\"" + shard.role + "\",dir=\"in\"",
                      shard.bytes_in);
    AppendCountSample(out, "lyra_svc_io_bytes_total", "",
                      "thread=\"" + shard.role + "\",dir=\"out\"",
                      shard.bytes_out);
  }
  AppendHeader(out, "lyra_svc_io_frames_total", "counter",
               "Frames moved by each io thread, by direction.");
  for (const auto& shard : telemetry.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_io_frames_total", "",
                      "thread=\"" + shard.role + "\",dir=\"in\"",
                      shard.frames_in);
    AppendCountSample(out, "lyra_svc_io_frames_total", "",
                      "thread=\"" + shard.role + "\",dir=\"out\"",
                      shard.frames_out);
  }
  AppendHeader(out, "lyra_svc_write_queue_bytes_peak", "gauge",
               "High-watermark of queued reply bytes per io thread.");
  for (const auto& shard : telemetry.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_write_queue_bytes_peak", "",
                      "thread=\"" + shard.role + "\"",
                      shard.write_queue_peak);
  }
  AppendHeader(out, "lyra_svc_flight_spans_total", "counter",
               "Flight-recorder spans recorded per telemetry shard.");
  for (const auto& shard : telemetry.shards) {
    AppendCountSample(out, "lyra_svc_flight_spans_total", "",
                      "thread=\"" + shard.role + "\"", shard.spans_recorded);
  }

  // --- service counters / gauges (Stats) ---
  AppendHeader(out, "lyra_svc_commands_applied_total", "counter",
               "Engine commands applied.");
  AppendCountSample(out, "lyra_svc_commands_applied_total", "", "",
                    stats.commands_applied);
  AppendHeader(out, "lyra_svc_jobs_submitted_total", "counter",
               "Jobs accepted via submit.");
  AppendCountSample(out, "lyra_svc_jobs_submitted_total", "", "",
                    stats.jobs_submitted);
  AppendHeader(out, "lyra_svc_jobs_cancelled_total", "counter",
               "Jobs cancelled via cancel.");
  AppendCountSample(out, "lyra_svc_jobs_cancelled_total", "", "",
                    stats.jobs_cancelled);
  AppendHeader(out, "lyra_svc_rejected_overload_total", "counter",
               "Commands rejected or shed under backpressure.");
  AppendCountSample(out, "lyra_svc_rejected_overload_total", "", "",
                    stats.rejected_overload);
  AppendHeader(out, "lyra_svc_command_errors_total", "counter",
               "Malformed or failed commands.");
  AppendCountSample(out, "lyra_svc_command_errors_total", "", "",
                    stats.command_errors);
  AppendHeader(out, "lyra_svc_reads_served_total", "counter",
               "Read-only commands answered from the snapshot.");
  AppendCountSample(out, "lyra_svc_reads_served_total", "", "",
                    stats.reads_served);
  AppendHeader(out, "lyra_svc_snapshots_published_total", "counter",
               "Read snapshots published by the engine.");
  AppendCountSample(out, "lyra_svc_snapshots_published_total", "", "",
                    stats.snapshots_published);
  AppendHeader(out, "lyra_svc_queue_depth", "gauge",
               "Engine command queue depth.");
  AppendCountSample(out, "lyra_svc_queue_depth", "", "", stats.queue_depth);
  AppendHeader(out, "lyra_svc_queue_peak", "gauge",
               "Engine command queue high-watermark.");
  AppendCountSample(out, "lyra_svc_queue_peak", "", "", stats.queue_peak);

  AppendHeader(out, "lyra_svc_uptime_seconds", "gauge",
               "Seconds since the service started.");
  AppendSample(out, "lyra_svc_uptime_seconds", "", "", service.UptimeSeconds());

  AppendHeader(out, "lyra_svc_info", "gauge",
               "Service identity; value is always 1.");
  {
    std::string labels = "scheduler=\"";
    labels += service.options().engine.scheduler;
    labels += "\",reclaim=\"";
    labels += service.options().engine.reclaim;
    labels += "\",driver=\"";
    labels += service.driver_name();
    labels += '"';
    AppendSample(out, "lyra_svc_info", "", labels, 1.0);
  }

  // --- engine gauges from the read snapshot ---
  if (snap != nullptr) {
    AppendHeader(out, "lyra_engine_virtual_time_seconds", "gauge",
                 "Engine virtual-time frontier.");
    AppendSample(out, "lyra_engine_virtual_time_seconds", "", "", snap->time);
    AppendHeader(out, "lyra_engine_events_processed_total", "counter",
                 "Discrete events processed by the engine.");
    AppendCountSample(out, "lyra_engine_events_processed_total", "", "",
                      snap->events_processed);
    AppendHeader(out, "lyra_engine_snapshot_version", "gauge",
                 "Monotone version of the published read snapshot.");
    AppendCountSample(out, "lyra_engine_snapshot_version", "", "",
                      snap->version);
    AppendHeader(out, "lyra_engine_jobs", "gauge",
                 "Jobs known to the engine, by state.");
    for (std::size_t s = 0; s < snap->state_counts.size(); ++s) {
      AppendCountSample(out, "lyra_engine_jobs", "",
                        std::string("state=\"") + kJobStateNames[s] + "\"",
                        snap->state_counts[s]);
    }
    AppendHeader(out, "lyra_engine_pool_servers", "gauge",
                 "Servers per cluster pool.");
    AppendPool(out, "training", snap->training);
    AppendPool(out, "on_loan", snap->on_loan);
    AppendPool(out, "inference", snap->inference);
    AppendHeader(out, "lyra_engine_pool_gpus", "gauge",
                 "GPUs per cluster pool, by kind (total/used/free).");
    AppendPoolGpus(out, "training", snap->training);
    AppendPoolGpus(out, "on_loan", snap->on_loan);
    AppendPoolGpus(out, "inference", snap->inference);
  }
  return out;
}

std::string RenderPrometheus(const FederationRouter& router) {
  if (router.shard_count() == 1) {
    // Byte-for-byte the unsharded exposition: no shard labels, no extra
    // families, so dashboards built against a one-shard daemon never change.
    return RenderPrometheus(*router.front());
  }
  const int n = router.shard_count();
  std::vector<TelemetrySummary> shard_telemetry;
  std::vector<SchedulerService::Stats> shard_stats;
  std::vector<std::shared_ptr<const StateSnapshot>> shard_snaps;
  shard_telemetry.reserve(static_cast<std::size_t>(n));
  shard_stats.reserve(static_cast<std::size_t>(n));
  shard_snaps.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    shard_telemetry.push_back(router.shard(k)->telemetry().Collect());
    shard_stats.push_back(router.shard(k)->stats());
    shard_snaps.push_back(router.shard(k)->snapshot());
  }
  // The front shard's registry is where the I/O threads live; every other
  // registry holds only that shard's engine thread.
  const TelemetrySummary& front = shard_telemetry.front();
  const SchedulerService::Stats total = router.AggregateStats();
  const SchedulerService& front_service = *router.front();

  std::string out;
  out.reserve(65536);

  const auto shard_label = [](int k) {
    return "shard=\"" + std::to_string(k) + "\"";
  };

  // --- request latency (recorded by the I/O threads; front registry) ---
  AppendHeader(out, "lyra_svc_request_duration_seconds", "histogram",
               "Request latency from frame decode to reply queued, per "
               "command.");
  for (int c = 0; c < kTelemetryWireCmdCount; ++c) {
    const obs::Histogram& h = front.cmd_latency[static_cast<std::size_t>(c)];
    if (h.count() == 0) {
      continue;
    }
    const std::string labels =
        std::string("cmd=\"") +
        TelemetryCmdName(static_cast<TelemetryCmd>(c)) + "\"";
    AppendHistogramSeries(out, "lyra_svc_request_duration_seconds", labels, h);
  }

  AppendSingleHistogram(out, "lyra_svc_epoll_dispatch_lag_seconds",
                        "Delay from epoll_wait return to event dispatch.",
                        front.dispatch_lag[0]);
  AppendSingleHistogram(out, "lyra_svc_wake_batch_events",
                        "Ready epoll events handled per wakeup.",
                        front.wake_events[0]);
  AppendSingleHistogram(out, "lyra_svc_completion_batch",
                        "Engine completions delivered per mailbox drain.",
                        front.completion_batch[0]);

  // --- engine histograms: merged total first (first-match consumers see
  // the fleet), then one series per shard ---
  const auto engine_histogram = [&](const char* family, const char* help,
                                    auto member) {
    AppendHeader(out, family, "histogram", help);
    obs::Histogram merged = (shard_telemetry[0].*member)[0];
    for (int k = 1; k < n; ++k) {
      merged.Merge((shard_telemetry[static_cast<std::size_t>(k)].*member)[0]);
    }
    AppendHistogramSeries(out, family, "", merged);
    for (int k = 0; k < n; ++k) {
      AppendHistogramSeries(
          out, family, shard_label(k),
          (shard_telemetry[static_cast<std::size_t>(k)].*member)[0]);
    }
  };
  engine_histogram("lyra_svc_engine_batch_apply_seconds",
                   "Engine time applying one command batch.",
                   &TelemetrySummary::engine_batch_apply);
  engine_histogram("lyra_svc_engine_snapshot_publish_seconds",
                   "Engine time publishing one read snapshot.",
                   &TelemetrySummary::engine_snapshot_publish);
  engine_histogram("lyra_svc_engine_batch_commands",
                   "Commands applied per engine batch.",
                   &TelemetrySummary::engine_batch_commands);

  // --- per-io-thread transport counters (front registry only) ---
  const auto is_io = [](const TelemetrySummary::ShardCounters& shard) {
    return shard.role.rfind("io", 0) == 0;
  };
  AppendHeader(out, "lyra_svc_io_bytes_total", "counter",
               "Bytes moved by each io thread, by direction.");
  for (const auto& shard : front.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_io_bytes_total", "",
                      "thread=\"" + shard.role + "\",dir=\"in\"",
                      shard.bytes_in);
    AppendCountSample(out, "lyra_svc_io_bytes_total", "",
                      "thread=\"" + shard.role + "\",dir=\"out\"",
                      shard.bytes_out);
  }
  AppendHeader(out, "lyra_svc_io_frames_total", "counter",
               "Frames moved by each io thread, by direction.");
  for (const auto& shard : front.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_io_frames_total", "",
                      "thread=\"" + shard.role + "\",dir=\"in\"",
                      shard.frames_in);
    AppendCountSample(out, "lyra_svc_io_frames_total", "",
                      "thread=\"" + shard.role + "\",dir=\"out\"",
                      shard.frames_out);
  }
  AppendHeader(out, "lyra_svc_write_queue_bytes_peak", "gauge",
               "High-watermark of queued reply bytes per io thread.");
  for (const auto& shard : front.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_write_queue_bytes_peak", "",
                      "thread=\"" + shard.role + "\"",
                      shard.write_queue_peak);
  }
  AppendHeader(out, "lyra_svc_flight_spans_total", "counter",
               "Flight-recorder spans recorded per telemetry shard.");
  for (const auto& shard : front.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_flight_spans_total", "",
                      "thread=\"" + shard.role + "\"", shard.spans_recorded);
  }
  for (int k = 0; k < n; ++k) {
    for (const auto& shard : shard_telemetry[static_cast<std::size_t>(k)].shards) {
      if (is_io(shard)) {
        continue;
      }
      AppendCountSample(out, "lyra_svc_flight_spans_total", "",
                        "thread=\"" + shard.role + "\"," + shard_label(k),
                        shard.spans_recorded);
    }
  }

  // --- service counters / gauges: fleet total first, then per shard ---
  const auto stat_family = [&](const char* family, const char* type,
                               const char* help, std::uint64_t total_value,
                               auto per_shard) {
    AppendHeader(out, family, type, help);
    AppendCountSample(out, family, "", "", total_value);
    for (int k = 0; k < n; ++k) {
      AppendCountSample(out, family, "", shard_label(k),
                        per_shard(shard_stats[static_cast<std::size_t>(k)]));
    }
  };
  stat_family("lyra_svc_commands_applied_total", "counter",
              "Engine commands applied.", total.commands_applied,
              [](const SchedulerService::Stats& s) { return s.commands_applied; });
  stat_family("lyra_svc_jobs_submitted_total", "counter",
              "Jobs accepted via submit.", total.jobs_submitted,
              [](const SchedulerService::Stats& s) { return s.jobs_submitted; });
  stat_family("lyra_svc_jobs_cancelled_total", "counter",
              "Jobs cancelled via cancel.", total.jobs_cancelled,
              [](const SchedulerService::Stats& s) { return s.jobs_cancelled; });
  stat_family("lyra_svc_rejected_overload_total", "counter",
              "Commands rejected or shed under backpressure.",
              total.rejected_overload,
              [](const SchedulerService::Stats& s) { return s.rejected_overload; });
  stat_family("lyra_svc_command_errors_total", "counter",
              "Malformed or failed commands.", total.command_errors,
              [](const SchedulerService::Stats& s) { return s.command_errors; });
  stat_family("lyra_svc_reads_served_total", "counter",
              "Read-only commands answered from the snapshot.",
              total.reads_served,
              [](const SchedulerService::Stats& s) { return s.reads_served; });
  stat_family("lyra_svc_snapshots_published_total", "counter",
              "Read snapshots published by the engine.",
              total.snapshots_published,
              [](const SchedulerService::Stats& s) {
                return s.snapshots_published;
              });
  stat_family("lyra_svc_queue_depth", "gauge",
              "Engine command queue depth.", total.queue_depth,
              [](const SchedulerService::Stats& s) { return s.queue_depth; });
  stat_family("lyra_svc_queue_peak", "gauge",
              "Engine command queue high-watermark.", total.queue_peak,
              [](const SchedulerService::Stats& s) { return s.queue_peak; });

  AppendHeader(out, "lyra_svc_uptime_seconds", "gauge",
               "Seconds since the service started.");
  AppendSample(out, "lyra_svc_uptime_seconds", "", "",
               front_service.UptimeSeconds());

  AppendHeader(out, "lyra_svc_shards", "gauge",
               "Engine shards behind this front end.");
  AppendCountSample(out, "lyra_svc_shards", "", "",
                    static_cast<std::uint64_t>(n));

  AppendHeader(out, "lyra_svc_info", "gauge",
               "Service identity; value is always 1.");
  {
    std::string labels = "scheduler=\"";
    labels += front_service.options().engine.scheduler;
    labels += "\",reclaim=\"";
    labels += front_service.options().engine.reclaim;
    labels += "\",driver=\"";
    labels += front_service.driver_name();
    labels += '"';
    AppendSample(out, "lyra_svc_info", "", labels, 1.0);
  }

  // --- engine gauges from the per-shard read snapshots ---
  double virtual_time = 0.0;
  std::uint64_t events = 0, version = 0;
  std::array<std::uint64_t, 4> states{};
  PoolCounters training, on_loan, inference;
  bool any_snap = false;
  const auto add_pool = [](PoolCounters& into, const PoolCounters& from) {
    into.servers += from.servers;
    into.total_gpus += from.total_gpus;
    into.used_gpus += from.used_gpus;
    into.free_gpus += from.free_gpus;
  };
  for (const auto& snap : shard_snaps) {
    if (snap == nullptr) {
      continue;
    }
    any_snap = true;
    virtual_time = std::max(virtual_time, snap->time);
    events += snap->events_processed;
    version = std::max(version, snap->version);
    for (std::size_t i = 0; i < states.size(); ++i) {
      states[i] += snap->state_counts[i];
    }
    add_pool(training, snap->training);
    add_pool(on_loan, snap->on_loan);
    add_pool(inference, snap->inference);
  }
  if (any_snap) {
    AppendHeader(out, "lyra_engine_virtual_time_seconds", "gauge",
                 "Engine virtual-time frontier.");
    AppendSample(out, "lyra_engine_virtual_time_seconds", "", "", virtual_time);
    for (int k = 0; k < n; ++k) {
      if (shard_snaps[static_cast<std::size_t>(k)] != nullptr) {
        AppendSample(out, "lyra_engine_virtual_time_seconds", "",
                     shard_label(k),
                     shard_snaps[static_cast<std::size_t>(k)]->time);
      }
    }
    AppendHeader(out, "lyra_engine_events_processed_total", "counter",
                 "Discrete events processed by the engine.");
    AppendCountSample(out, "lyra_engine_events_processed_total", "", "",
                      events);
    for (int k = 0; k < n; ++k) {
      if (shard_snaps[static_cast<std::size_t>(k)] != nullptr) {
        AppendCountSample(
            out, "lyra_engine_events_processed_total", "", shard_label(k),
            shard_snaps[static_cast<std::size_t>(k)]->events_processed);
      }
    }
    AppendHeader(out, "lyra_engine_snapshot_version", "gauge",
                 "Monotone version of the published read snapshot.");
    AppendCountSample(out, "lyra_engine_snapshot_version", "", "", version);
    for (int k = 0; k < n; ++k) {
      if (shard_snaps[static_cast<std::size_t>(k)] != nullptr) {
        AppendCountSample(out, "lyra_engine_snapshot_version", "",
                          shard_label(k),
                          shard_snaps[static_cast<std::size_t>(k)]->version);
      }
    }
    AppendHeader(out, "lyra_engine_jobs", "gauge",
                 "Jobs known to the engine, by state.");
    for (std::size_t st = 0; st < states.size(); ++st) {
      AppendCountSample(out, "lyra_engine_jobs", "",
                        std::string("state=\"") + kJobStateNames[st] + "\"",
                        states[st]);
    }
    for (int k = 0; k < n; ++k) {
      const auto& snap = shard_snaps[static_cast<std::size_t>(k)];
      if (snap == nullptr) {
        continue;
      }
      for (std::size_t st = 0; st < states.size(); ++st) {
        AppendCountSample(out, "lyra_engine_jobs", "",
                          std::string("state=\"") + kJobStateNames[st] +
                              "\"," + shard_label(k),
                          snap->state_counts[st]);
      }
    }
    AppendHeader(out, "lyra_engine_pool_servers", "gauge",
                 "Servers per cluster pool.");
    AppendPool(out, "training", training);
    AppendPool(out, "on_loan", on_loan);
    AppendPool(out, "inference", inference);
    AppendHeader(out, "lyra_engine_pool_gpus", "gauge",
                 "GPUs per cluster pool, by kind (total/used/free).");
    AppendPoolGpus(out, "training", training);
    AppendPoolGpus(out, "on_loan", on_loan);
    AppendPoolGpus(out, "inference", inference);
  }
  return out;
}

const PromSample* PromScrape::Find(
    const std::string& name,
    const std::map<std::string, std::string>& labels) const {
  for (const PromSample& sample : samples) {
    if (sample.name != name) {
      continue;
    }
    bool match = true;
    for (const auto& [key, value] : labels) {
      const auto it = sample.labels.find(key);
      if (it == sample.labels.end() || it->second != value) {
        match = false;
        break;
      }
    }
    if (match) {
      return &sample;
    }
  }
  return nullptr;
}

double PromScrape::Value(const std::string& name,
                         const std::map<std::string, std::string>& labels,
                         double fallback) const {
  const PromSample* sample = Find(name, labels);
  return sample == nullptr ? fallback : sample->value;
}

namespace {

// Parses one `name{k="v",...} value` sample line. The renderer never emits
// escaped quotes inside label values, but accept `\"` anyway for robustness.
Status ParseSampleLine(const std::string& line, PromSample* sample) {
  std::size_t i = 0;
  while (i < line.size() && (std::isalnum(static_cast<unsigned char>(line[i])) ||
                             line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  if (i == 0) {
    return Status::InvalidArgument("prom: sample line without a name: " + line);
  }
  sample->name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t key_start = i;
      while (i < line.size() && line[i] != '=') {
        ++i;
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("prom: unterminated label: " + line);
      }
      const std::string key = line.substr(key_start, i - key_start);
      ++i;  // '='
      if (i >= line.size() || line[i] != '"') {
        return Status::InvalidArgument("prom: label value not quoted: " + line);
      }
      ++i;  // opening quote
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          ++i;
        }
        value.push_back(line[i]);
        ++i;
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("prom: unterminated label value: " + line);
      }
      ++i;  // closing quote
      sample->labels[key] = std::move(value);
      if (i < line.size() && line[i] == ',') {
        ++i;
      }
    }
    if (i >= line.size()) {
      return Status::InvalidArgument("prom: unterminated label set: " + line);
    }
    ++i;  // '}'
  }
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i >= line.size()) {
    return Status::InvalidArgument("prom: sample line without a value: " + line);
  }
  const std::string value_text = line.substr(i);
  if (value_text == "+Inf") {
    sample->value = std::numeric_limits<double>::infinity();
  } else if (value_text == "-Inf") {
    sample->value = -std::numeric_limits<double>::infinity();
  } else {
    char* end = nullptr;
    sample->value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str()) {
      return Status::InvalidArgument("prom: bad sample value: " + line);
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<PromScrape> ParsePrometheus(const std::string& text) {
  PromScrape scrape;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // "# HELP <family> <text>" / "# TYPE <family> <type>"; other comments
      // are ignored.
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) {
        continue;
      }
      const std::size_t family_start = 7;
      const std::size_t family_end = line.find(' ', family_start);
      if (family_end == std::string::npos) {
        continue;
      }
      const std::string family =
          line.substr(family_start, family_end - family_start);
      const std::string rest = line.substr(family_end + 1);
      if (is_help) {
        scrape.helps[family] = rest;
      } else {
        scrape.types[family] = rest;
      }
      continue;
    }
    PromSample sample;
    const Status parsed = ParseSampleLine(line, &sample);
    if (!parsed.ok()) {
      return parsed;
    }
    scrape.samples.push_back(std::move(sample));
  }
  return scrape;
}

StatusOr<obs::Histogram> ExtractHistogram(
    const PromScrape& scrape, const std::string& family,
    const std::map<std::string, std::string>& labels) {
  // Buckets arrive in ascending-le order (+Inf last) from any conforming
  // exposition; sortedness is re-checked by the Histogram constructor.
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  bool have_inf = false;
  std::uint64_t inf_count = 0;
  const std::string bucket_name = family + "_bucket";
  for (const PromSample& sample : scrape.samples) {
    if (sample.name != bucket_name) {
      continue;
    }
    bool match = true;
    for (const auto& [key, value] : labels) {
      const auto it = sample.labels.find(key);
      if (it == sample.labels.end() || it->second != value) {
        match = false;
        break;
      }
    }
    if (!match) {
      continue;
    }
    const auto le = sample.labels.find("le");
    if (le == sample.labels.end()) {
      continue;
    }
    const auto count = static_cast<std::uint64_t>(sample.value);
    if (le->second == "+Inf") {
      have_inf = true;
      inf_count = count;
    } else {
      bounds.push_back(std::strtod(le->second.c_str(), nullptr));
      cumulative.push_back(count);
    }
  }
  if (bounds.empty() || !have_inf) {
    return Status::NotFound("prom: no histogram for family " + family);
  }
  cumulative.push_back(inf_count);
  std::vector<std::uint64_t> counts(cumulative.size());
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    counts[i] = cumulative[i] >= previous ? cumulative[i] - previous : 0;
    previous = cumulative[i];
  }
  const double sum = scrape.Value(family + "_sum", labels, 0.0);
  return obs::Histogram(std::move(bounds), std::move(counts), sum);
}

}  // namespace lyra::svc
