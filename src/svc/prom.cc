#include "src/svc/prom.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <tuple>
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

// Joins two pre-rendered label lists, e.g. `thread="io0"` and `shard="1"`.
// Every label value here is identifier-like, so nothing needs escaping.
std::string Labels(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) {
    return a + b;
  }
  return a + ',' + b;
}

std::string Label(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + value + '"';
}

// The samples of one family. Only WriteFamily makes one, so a family's
// samples always follow its own HELP and TYPE as one group.
class Family {
 public:
  Family(std::string& out, const std::string& name) : out_(out), name_(name) {}

  void Value(const std::string& labels, double value) {
    Open("", labels);
    AppendNumber(out_, value);
    out_ += '\n';
  }

  void Count(const std::string& labels, std::uint64_t value,
             const char* suffix = "") {
    Open(suffix, labels);
    AppendCount(out_, value);
    out_ += '\n';
  }

  // The cumulative _bucket series, then _sum and _count, for one label set
  // (which must not carry `le`).
  void Histogram(const std::string& labels, const obs::Histogram& histogram) {
    const auto& bounds = histogram.upper_bounds();
    const auto& counts = histogram.bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      cumulative += counts[i];
      std::string le = "+Inf";
      if (i < bounds.size()) {
        le.clear();
        AppendNumber(le, bounds[i]);
      }
      Count(Labels(labels, Label("le", le)), cumulative, "_bucket");
    }
    Open("_sum", labels);
    AppendNumber(out_, histogram.sum());
    out_ += '\n';
    Count(labels, histogram.count(), "_count");
  }

 private:
  void Open(const char* suffix, const std::string& labels) {
    out_ += name_;
    out_ += suffix;
    if (!labels.empty()) {
      out_ += '{';
      out_ += labels;
      out_ += '}';
    }
    out_ += ' ';
  }

  std::string& out_;
  const std::string& name_;
};

template <typename Body>
void WriteFamily(std::string& out, const std::string& name, const char* type,
                 const std::string& help, Body&& body) {
  out += "# HELP " + name + ' ' + help + "\n# TYPE " + name + ' ' + type +
         '\n';
  Family family(out, name);
  body(family);
}

// What the engine families read from one engine, or from a fleet's merged
// total.
struct EngineValues {
  TelemetrySummary telemetry;
  SchedulerService::Stats stats;
  std::shared_ptr<const StateSnapshot> snap;  // null until published
};

using TelemetryHistograms = std::vector<obs::Histogram> TelemetrySummary::*;

// Engine families fed by the engine thread's telemetry shard.
constexpr struct {
  const char* name;
  const char* help;
  TelemetryHistograms member;
} kEngineHistograms[] = {
    {"lyra_svc_engine_batch_apply_seconds",
     "Engine time applying one command batch.",
     &TelemetrySummary::engine_batch_apply},
    {"lyra_svc_engine_snapshot_publish_seconds",
     "Engine time publishing one read snapshot.",
     &TelemetrySummary::engine_snapshot_publish},
    {"lyra_svc_engine_batch_commands", "Commands applied per engine batch.",
     &TelemetrySummary::engine_batch_commands},
};

// Engine families fed by SchedulerService::Stats.
constexpr struct {
  const char* name;
  const char* type;
  const char* help;
  std::uint64_t SchedulerService::Stats::*member;
} kStatFamilies[] = {
    {"lyra_svc_commands_applied_total", "counter", "Engine commands applied.",
     &SchedulerService::Stats::commands_applied},
    {"lyra_svc_jobs_submitted_total", "counter", "Jobs accepted via submit.",
     &SchedulerService::Stats::jobs_submitted},
    {"lyra_svc_jobs_cancelled_total", "counter", "Jobs cancelled via cancel.",
     &SchedulerService::Stats::jobs_cancelled},
    {"lyra_svc_rejected_overload_total", "counter",
     "Commands rejected or shed under backpressure.",
     &SchedulerService::Stats::rejected_overload},
    {"lyra_svc_command_errors_total", "counter",
     "Malformed or failed commands.", &SchedulerService::Stats::command_errors},
    {"lyra_svc_reads_served_total", "counter",
     "Read-only commands answered from the snapshot.",
     &SchedulerService::Stats::reads_served},
    {"lyra_svc_snapshots_published_total", "counter",
     "Read snapshots published by the engine.",
     &SchedulerService::Stats::snapshots_published},
    {"lyra_svc_queue_depth", "gauge", "Engine command queue depth.",
     &SchedulerService::Stats::queue_depth},
    {"lyra_svc_queue_peak", "gauge", "Engine command queue high-watermark.",
     &SchedulerService::Stats::queue_peak},
};

// The engine and service families for `services` (engine 0 first, which
// homes the I/O threads). Service families (request latency, transport,
// uptime, identity) are engine 0's. Every engine family follows one
// labelling rule: one engine writes unlabelled rows; N engines write the
// merged total first, then one shard="k" row per engine.
std::string RenderEngines(
    const std::vector<const SchedulerService*>& services) {
  const std::size_t n = services.size();
  std::vector<EngineValues> engines;
  std::vector<std::shared_ptr<const StateSnapshot>> snaps;
  for (const SchedulerService* service : services) {
    engines.push_back({service->telemetry().Collect(), service->stats(),
                       service->snapshot()});
    snaps.push_back(engines.back().snap);
  }
  const bool published =
      std::all_of(snaps.begin(), snaps.end(),
                  [](const auto& snap) { return snap != nullptr; });

  // The merged total: histograms merge bucketwise, Stats fold by
  // Stats::Add, snapshots by MergeSnapshots.
  EngineValues total{engines.front().telemetry, engines.front().stats,
                     nullptr};
  for (std::size_t k = 1; k < n; ++k) {
    for (const auto& family : kEngineHistograms) {
      (total.telemetry.*family.member)[0].Merge(
          (engines[k].telemetry.*family.member)[0]);
    }
    total.stats.Add(engines[k].stats);
  }
  if (published && n > 1) {
    total.snap = std::make_shared<const StateSnapshot>(MergeSnapshots(snaps));
  }
  struct Row {
    std::string shard;
    const EngineValues* values;
  };
  std::vector<Row> rows;
  if (n > 1) {
    rows.push_back({"", &total});
  }
  for (std::size_t k = 0; k < n; ++k) {
    rows.push_back(
        {n > 1 ? Label("shard", std::to_string(k)) : "", &engines[k]});
  }
  const EngineValues& front = engines.front();
  const SchedulerService& front_service = *services.front();

  std::string out;
  out.reserve(32768 * n);
  const auto per_row = [&](const std::string& name, const char* type,
                           const std::string& help, auto write) {
    WriteFamily(out, name, type, help, [&](Family& f) {
      for (const Row& row : rows) {
        write(f, row.shard, *row.values);
      }
    });
  };

  WriteFamily(out, kRequestDurationFamily, "histogram",
              "Request latency from frame decode to reply queued, per "
              "command.",
              [&](Family& f) {
                for (int c = 0; c < kTelemetryWireCmdCount; ++c) {
                  const obs::Histogram& h =
                      front.telemetry.cmd_latency[static_cast<std::size_t>(c)];
                  if (h.count() > 0) {  // skip never-seen commands
                    f.Histogram(Label("cmd", TelemetryCmdName(
                                                 static_cast<TelemetryCmd>(c))),
                                h);
                  }
                }
              });
  for (const auto& [name, help, member] :
       {std::tuple{"lyra_svc_epoll_dispatch_lag_seconds",
                   "Delay from epoll_wait return to event dispatch.",
                   &TelemetrySummary::dispatch_lag},
        std::tuple{"lyra_svc_wake_batch_events",
                   "Ready epoll events handled per wakeup.",
                   &TelemetrySummary::wake_events},
        std::tuple{"lyra_svc_completion_batch",
                   "Engine completions delivered per mailbox drain.",
                   &TelemetrySummary::completion_batch}}) {
    WriteFamily(out, name, "histogram", help, [&](Family& f) {
      f.Histogram("", (front.telemetry.*member)[0]);
    });
  }
  for (const auto& family : kEngineHistograms) {
    per_row(family.name, "histogram", family.help,
            [&](Family& f, const auto& shard, const EngineValues& e) {
              f.Histogram(shard, (e.telemetry.*family.member)[0]);
            });
  }

  // Per-thread transport counters. The io threads live in engine 0's
  // telemetry; an engine thread never touches a socket, so only its span
  // count is exported, once per engine and with no merged row (a sum over
  // threads is no thread).
  using Thread = TelemetrySummary::ShardCounters;
  const auto is_io = [](const Thread& thread) {
    return thread.role.rfind("io", 0) == 0;
  };
  const auto io_family = [&](const char* name, const char* type,
                             const char* help, auto write) {
    WriteFamily(out, name, type, help, [&](Family& f) {
      for (const Thread& thread : front.telemetry.shards) {
        if (is_io(thread)) {
          write(f, Label("thread", thread.role), thread);
        }
      }
    });
  };
  io_family("lyra_svc_io_bytes_total", "counter",
            "Bytes moved by each io thread, by direction.",
            [](Family& f, const std::string& labels, const Thread& thread) {
              f.Count(Labels(labels, Label("dir", "in")), thread.bytes_in);
              f.Count(Labels(labels, Label("dir", "out")), thread.bytes_out);
            });
  io_family("lyra_svc_io_frames_total", "counter",
            "Frames moved by each io thread, by direction.",
            [](Family& f, const std::string& labels, const Thread& thread) {
              f.Count(Labels(labels, Label("dir", "in")), thread.frames_in);
              f.Count(Labels(labels, Label("dir", "out")), thread.frames_out);
            });
  io_family("lyra_svc_write_queue_bytes_peak", "gauge",
            "High-watermark of queued reply bytes per io thread.",
            [](Family& f, const std::string& labels, const Thread& thread) {
              f.Count(labels, thread.write_queue_peak);
            });
  WriteFamily(out, "lyra_svc_flight_spans_total", "counter",
              "Flight-recorder spans recorded per telemetry shard.",
              [&](Family& f) {
                for (const Row& row : rows) {
                  if (row.values == &total) {
                    continue;
                  }
                  for (const Thread& thread : row.values->telemetry.shards) {
                    f.Count(Labels(Label("thread", thread.role),
                                   is_io(thread) ? "" : row.shard),
                            thread.spans_recorded);
                  }
                }
              });

  for (const auto& family : kStatFamilies) {
    per_row(family.name, family.type, family.help,
            [&](Family& f, const auto& shard, const EngineValues& e) {
              f.Count(shard, e.stats.*family.member);
            });
  }
  WriteFamily(out, "lyra_svc_uptime_seconds", "gauge",
              "Seconds since the service started.", [&](Family& f) {
                f.Value("", front_service.UptimeSeconds());
              });
  WriteFamily(
      out, "lyra_svc_info", "gauge", "Service identity; value is always 1.",
      [&](Family& f) {
        const EngineConfig& engine = front_service.options().engine;
        f.Value(Labels(Labels(Label("scheduler", engine.scheduler),
                              Label("reclaim", engine.reclaim)),
                       Label("driver", front_service.driver_name())),
                1.0);
      });
  if (!published) {
    return out;
  }

  // Engine families from the read snapshots.
  per_row("lyra_engine_virtual_time_seconds", "gauge",
          "Engine virtual-time frontier.",
          [](Family& f, const auto& shard, const EngineValues& e) {
            f.Value(shard, e.snap->time);
          });
  per_row("lyra_engine_metrics_time_seconds", "gauge",
          "Virtual time of the registry copy the lyra_engine_<metric> "
          "families read (refreshed on a wall-clock throttle).",
          [](Family& f, const auto& shard, const EngineValues& e) {
            f.Value(shard, e.snap->metrics_time);
          });
  per_row("lyra_engine_ended", "gauge",
          "1 once the engine passed its end of time and schedules nothing "
          "more.",
          [](Family& f, const auto& shard, const EngineValues& e) {
            f.Count(shard, e.snap->ended ? 1 : 0);
          });
  per_row("lyra_engine_events_processed_total", "counter",
          "Discrete events processed by the engine.",
          [](Family& f, const auto& shard, const EngineValues& e) {
            f.Count(shard, e.snap->events_processed);
          });
  per_row("lyra_engine_snapshot_version", "gauge",
          "Monotone version of the published read snapshot.",
          [](Family& f, const auto& shard, const EngineValues& e) {
            f.Count(shard, e.snap->version);
          });
  per_row("lyra_svc_command_log", "gauge",
          "Commands in the engine's replay log, which a snapshot writes.",
          [](Family& f, const auto& shard, const EngineValues& e) {
            f.Count(shard, e.snap->command_log_size);
          });
  per_row("lyra_engine_jobs", "gauge", "Jobs known to the engine, by state.",
          [](Family& f, const auto& shard, const EngineValues& e) {
            for (std::size_t s = 0; s < e.snap->state_counts.size(); ++s) {
              const char* state = JobStateName(static_cast<JobState>(s));
              f.Count(Labels(Label("state", state), shard),
                      e.snap->state_counts[s]);
            }
          });
  const auto pools = [](const StateSnapshot& snap) {
    return std::array<std::pair<const char*, const PoolCounters*>, 3>{
        {{"training", &snap.training},
         {"on_loan", &snap.on_loan},
         {"inference", &snap.inference}}};
  };
  per_row("lyra_engine_pool_servers", "gauge", "Servers per cluster pool.",
          [&](Family& f, const auto& shard, const EngineValues& e) {
            for (const auto& [pool, c] : pools(*e.snap)) {
              f.Value(Labels(Label("pool", pool), shard), c->servers);
            }
          });
  per_row("lyra_engine_pool_gpus", "gauge",
          "GPUs per cluster pool, by kind (total/used/free).",
          [&](Family& f, const auto& shard, const EngineValues& e) {
            for (const auto& [pool, c] : pools(*e.snap)) {
              for (const auto& [kind, gpus] :
                   {std::pair{"total", c->total_gpus},
                    std::pair{"used", c->used_gpus},
                    std::pair{"free", c->free_gpus}}) {
                f.Value(Labels(Labels(Label("pool", pool), Label("kind", kind)),
                               shard),
                        gpus);
              }
            }
          });

  // One family per metric of the engines' registries, named
  // lyra_engine_<name> with each character a Prometheus name cannot hold
  // (the registry's dots) written as '_'; an engine without the metric
  // writes no row. The first row's registry (the merged or the only one)
  // names every metric.
  const obs::MetricsValues* all =
      rows.front().values->snap->engine_metrics.get();
  if (all == nullptr) {
    return out;
  }
  const auto registry_families = [&](auto member, const char* type,
                                     const char* suffix, auto write) {
    for (const auto& entry : all->*member) {
      const std::string& metric = entry.first;
      std::string name = "lyra_engine_";
      for (const char c : metric) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      const std::string help =
          std::string("Engine metrics registry ") + type + ' ' + metric + '.';
      per_row(name + suffix, type, help,
              [&](Family& f, const auto& shard, const EngineValues& e) {
                const obs::MetricsValues* values = e.snap->engine_metrics.get();
                if (values != nullptr) {
                  const auto it = (values->*member).find(metric);
                  if (it != (values->*member).end()) {
                    write(f, shard, it->second);
                  }
                }
              });
    }
  };
  registry_families(&obs::MetricsValues::counters, "counter", "_total",
                    [](Family& f, const auto& shard, std::uint64_t v) {
                      f.Count(shard, v);
                    });
  registry_families(&obs::MetricsValues::gauges, "gauge", "",
                    [](Family& f, const auto& shard, double v) {
                      f.Value(shard, v);
                    });
  registry_families(&obs::MetricsValues::histograms, "histogram", "",
                    [](Family& f, const auto& shard, const obs::Histogram& h) {
                      f.Histogram(shard, h);
                    });
  return out;
}

}  // namespace

std::string RenderPrometheus(const SchedulerService& service) {
  return RenderEngines({&service});
}

std::string RenderPrometheus(const FederationRouter& router) {
  const std::vector<const SchedulerService*> engines = router.engines();
  std::string out = RenderEngines(engines);
  if (engines.size() == 1) {
    return out;
  }
  WriteFamily(out, "lyra_svc_shards", "gauge",
              "Engine shards behind this front end.",
              [&](Family& f) { f.Count("", engines.size()); });
  // Cluster k is engine k: its name joins that engine's shard="k" rows.
  WriteFamily(out, "lyra_fed_cluster_info", "gauge",
              "Cluster identity (value is always 1).", [&](Family& f) {
                for (int c = 0; c < router.shard_count(); ++c) {
                  const ClusterSpec& spec = router.cluster_spec(c);
                  f.Value(Labels(Labels(Label("cluster", spec.name),
                                        Label("kind", ClusterKindName(spec.kind))),
                                 Label("shard", std::to_string(c))),
                          1.0);
                }
              });
  return out;
}

namespace {

// Whether `sample` carries every label in `labels` (a subset match).
bool HasLabels(const PromSample& sample,
               const std::map<std::string, std::string>& labels) {
  for (const auto& [key, value] : labels) {
    const auto it = sample.labels.find(key);
    if (it == sample.labels.end() || it->second != value) {
      return false;
    }
  }
  return true;
}

}  // namespace

const PromSample* PromScrape::Find(
    const std::string& name,
    const std::map<std::string, std::string>& labels) const {
  for (const PromSample& sample : samples) {
    if (sample.name == name && HasLabels(sample, labels)) {
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

namespace {

// A bucket bound: "+Inf", or a finite number that parses in full.
bool ParseBound(const std::string& text, double* bound) {
  if (text == "+Inf") {
    *bound = std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  *bound = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(*bound);
}

// A cumulative bucket count: a finite non-negative integer below 2^64.
bool ParseCount(double value, std::uint64_t* count) {
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!(value >= 0.0 && value < kTwoTo64) || value != std::floor(value)) {
    return false;
  }
  *count = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

StatusOr<obs::Histogram> ExtractHistogram(
    const PromScrape& scrape, const std::string& family,
    const std::map<std::string, std::string>& labels) {
  // Bounds must arrive strictly ascending with +Inf last, as the renderer
  // writes them; a scrape is untrusted bytes, so anything else is refused
  // here rather than reaching the Histogram constructor's CHECK.
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  const std::string bucket_name = family + "_bucket";
  const std::string sum_name = family + "_sum";
  const PromSample* sum = nullptr;
  for (const PromSample& sample : scrape.samples) {
    if (sum == nullptr && sample.name == sum_name && sample.labels == labels) {
      sum = &sample;
    }
    if (sample.name != bucket_name) {
      continue;
    }
    // One series only: the labels apart from `le` are exactly `labels`.
    const auto le = sample.labels.find("le");
    if (le == sample.labels.end() ||
        sample.labels.size() != labels.size() + 1 ||
        !HasLabels(sample, labels)) {
      continue;
    }
    double bound = 0.0;
    if (!ParseBound(le->second, &bound)) {
      return Status::InvalidArgument("prom: bad bucket bound le=\"" +
                                     le->second + "\" in " + family);
    }
    if (!bounds.empty() && !(bound > bounds.back())) {
      return Status::InvalidArgument(
          "prom: bucket bounds not strictly ascending in " + family);
    }
    std::uint64_t count = 0;
    if (!ParseCount(sample.value, &count)) {
      return Status::InvalidArgument("prom: bad bucket count in " + family);
    }
    bounds.push_back(bound);
    cumulative.push_back(count);
  }
  if (bounds.size() < 2 || !std::isinf(bounds.back())) {
    return Status::NotFound("prom: no histogram for family " + family);
  }
  bounds.pop_back();  // +Inf is the overflow bucket, not a bound
  std::vector<std::uint64_t> counts(cumulative.size());
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    counts[i] = cumulative[i] >= previous ? cumulative[i] - previous : 0;
    previous = cumulative[i];
  }
  return obs::Histogram(std::move(bounds), std::move(counts),
                        sum == nullptr ? 0.0 : sum->value);
}

obs::Histogram WindowSince(obs::Histogram now, const obs::Histogram& earlier) {
  if (now.upper_bounds() == earlier.upper_bounds()) {
    now.Subtract(earlier);
  }
  return now;
}

}  // namespace lyra::svc
