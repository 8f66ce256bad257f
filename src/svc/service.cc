#include "src/svc/service.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/obs/trace_exporter.h"
#include "src/svc/replies.h"

namespace lyra::svc {
namespace {

// Events the engine processes per auto-advance chunk before re-checking the
// command queue; bounds command latency while the engine free-runs.
constexpr std::uint64_t kAutoStepChunk = 4096;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Minimum wall-clock interval between registry copies into the read
// snapshot; bounds how stale the lyra_engine_<metric> rows of /metrics can
// be (lyra_engine_metrics_time_seconds says how stale they are). An engine
// that goes idle after a publish without a copy takes one when the interval
// closes, so the stale window ends with the interval.
constexpr std::chrono::milliseconds kMetricsRefresh(10);

bool ModelFamilyFromName(const std::string& name, ModelFamily* family) {
  for (ModelFamily candidate :
       {ModelFamily::kResNet, ModelFamily::kVgg, ModelFamily::kBert,
        ModelFamily::kGnmt, ModelFamily::kOther}) {
    if (name == ModelFamilyName(candidate)) {
      *family = candidate;
      return true;
    }
  }
  // Lowercase shorthands for hand-typed commands.
  if (name == "resnet") {
    *family = ModelFamily::kResNet;
  } else if (name == "vgg") {
    *family = ModelFamily::kVgg;
  } else if (name == "bert") {
    *family = ModelFamily::kBert;
  } else if (name == "gnmt") {
    *family = ModelFamily::kGnmt;
  } else if (name == "other" || name.empty()) {
    *family = ModelFamily::kOther;
  } else {
    return false;
  }
  return true;
}

// A submit's spec from one walk over the request's members instead of a
// Find() scan per field: submit dominates saturation traffic and the scans
// were measurable there.
Status DecodeSpec(const JsonValue& request, JobSpec* out) {
  JobSpec& spec = *out;
  spec.gpus_per_worker = 1;
  spec.min_workers = 1;
  spec.max_workers = 0;  // defaults to min_workers when absent
  bool have_max_workers = false;
  const JsonValue* model_field = nullptr;
  unsigned seen = 0;  // first occurrence wins, matching Find()'s semantics
  const auto first = [&seen](int bit) {
    if ((seen & (1u << bit)) != 0) {
      return false;
    }
    seen |= 1u << bit;
    return true;
  };
  const auto num = [](const JsonValue& v, double fb) {
    return v.is_number() ? v.AsDouble() : fb;
  };
  // Converting a double outside int's range to int is undefined: such a
  // field is named here and the submit rejected.
  const char* out_of_range = nullptr;
  const auto integer = [&out_of_range](const char* name, double v, int* out) {
    if (v > static_cast<double>(std::numeric_limits<int>::min()) - 1.0 &&
        v < static_cast<double>(std::numeric_limits<int>::max()) + 1.0) {
      *out = static_cast<int>(v);
    } else if (out_of_range == nullptr) {
      out_of_range = name;
    }
  };
  for (const auto& [key, value] : request.AsObject()) {
    if (key == "gpus_per_worker") {
      if (first(0)) integer("gpus_per_worker", num(value, 1), &spec.gpus_per_worker);
    } else if (key == "min_workers") {
      if (first(1)) integer("min_workers", num(value, 1), &spec.min_workers);
    } else if (key == "max_workers") {
      if (first(2) && value.is_number()) {
        integer("max_workers", value.AsDouble(), &spec.max_workers);
        have_max_workers = true;
      }
    } else if (key == "requested_workers") {
      if (first(3)) integer("requested_workers", num(value, 0), &spec.requested_workers);
    } else if (key == "fungible") {
      if (first(4)) spec.fungible = value.is_bool() && value.AsBool();
    } else if (key == "heterogeneous") {
      if (first(5)) spec.heterogeneous = value.is_bool() && value.AsBool();
    } else if (key == "checkpointing") {
      if (first(6)) spec.checkpointing = value.is_bool() && value.AsBool();
    } else if (key == "total_work") {
      if (first(7)) spec.total_work = num(value, 0.0);
    } else if (key == "model") {
      if (first(8)) model_field = &value;
    }
  }
  if (out_of_range != nullptr) {
    return Status::InvalidArgument(std::string(out_of_range) +
                                   " is outside the int range");
  }
  if (!have_max_workers) {
    spec.max_workers = spec.min_workers;
  }
  const std::string model =
      model_field != nullptr && model_field->is_string() ? model_field->AsString()
                                                         : "other";
  if (!ModelFamilyFromName(model, &spec.model)) {
    return Status::InvalidArgument("unknown model family: " + model);
  }
  return Status::Ok();
}

// Builds and begins the daemon's engine: an empty trace `horizon_days` long
// (jobs arrive by SubmitJob) and the decision log, the replay artifact, on.
Status BeginServingEngine(const ServiceOptions& options, Engine& engine) {
  const EngineConfig& config = options.engine;
  if (!(config.horizon_days > 0.0) || !std::isfinite(config.horizon_days)) {
    return Status::InvalidArgument("horizon_days must be positive");
  }
  Trace trace;
  trace.duration = config.horizon_days * kDay;
  SimulatorOptions run;
  run.record_decisions = true;
  run.trace_path = options.trace_path;
  StatusOr<Engine> built = BuildEngine(config, trace, run);
  if (!built.ok()) {
    return built.status();
  }
  engine = std::move(built.value());
  engine.sim->Begin();
  return Status::Ok();
}

}  // namespace

StatusOr<EngineCommand> DecodeEngineCommand(TelemetryCmd cmd,
                                            const JsonValue& request) {
  EngineCommand decoded;
  decoded.cmd = cmd;
  decoded.seq = SeqOf(request);
  switch (cmd) {
    case TelemetryCmd::kSubmit: {
      const Status status = DecodeSpec(request, &decoded.command.spec);
      if (!status.ok()) {
        return status;
      }
      decoded.command.kind = CommandKind::kSubmit;
      decoded.at = request.GetDouble("at", -1.0);
      return decoded;
    }
    case TelemetryCmd::kCancel: {
      const StatusOr<std::int64_t> job = JobIdField(request, "cancel");
      if (!job.ok()) {
        return job.status();
      }
      decoded.command.kind = CommandKind::kCancel;
      decoded.command.job = job.value();
      decoded.at = request.GetDouble("at", -1.0);
      return decoded;
    }
    case TelemetryCmd::kAdvance:
      decoded.command.kind = CommandKind::kAdvance;
      decoded.at = request.GetDouble("to", -1.0);
      if (decoded.at < 0.0 || !std::isfinite(decoded.at)) {
        return Status::InvalidArgument(
            "advance requires a finite non-negative \"to\"");
      }
      return decoded;
    case TelemetryCmd::kDrain:
      decoded.command.kind = CommandKind::kDrain;
      return decoded;
    case TelemetryCmd::kSnapshot:
      decoded.path = request.GetString("path");
      if (decoded.path.empty()) {
        return Status::InvalidArgument("snapshot requires a \"path\"");
      }
      return decoded;
    case TelemetryCmd::kShutdown:
      return decoded;
    default:
      return Status::InvalidArgument(std::string("not an engine command: ") +
                                     TelemetryCmdName(cmd));
  }
}

SchedulerService::SchedulerService(ServiceOptions options,
                                   std::unique_ptr<TimeDriver> driver,
                                   FleetIds ids)
    : options_(std::move(options)), driver_(std::move(driver)), ids_(ids) {
  LYRA_CHECK(driver_ != nullptr);
  LYRA_CHECK_GT(options_.queue_capacity, 0);
  LYRA_CHECK_LT(ids_.engine, ids_.engines);
}

SchedulerService::~SchedulerService() { Stop(); }

Status SchedulerService::Start() {
  if (Status begun = BeginServingEngine(options_, engine_); !begun.ok()) {
    return begun;
  }
  Serve();
  return Status::Ok();
}

void SchedulerService::Serve() {
  engine_.sim->set_job_dirty_sink(builder_.sink());
  snapshot_.store(builder_.Publish(*engine_.sim, log_.size(), true),
                  std::memory_order_release);
  last_metrics_refresh_ = std::chrono::steady_clock::now();
  engine_shard_ = telemetry_.AcquireShard("engine");
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    snapshots_published_ = 1;
  }
  serving_.store(true, std::memory_order_release);
  engine_thread_ = std::thread(&SchedulerService::EngineLoop, this);
}

Status SchedulerService::Restore(const std::string& snapshot_path) {
  StatusOr<ServiceSnapshot> loaded = LoadSnapshot(snapshot_path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  return RestoreSnapshot(std::move(loaded).value());
}

Status SchedulerService::RestoreBytes(const std::string& image,
                                      const std::string& origin) {
  StatusOr<ServiceSnapshot> decoded = DecodeSnapshot(image, origin);
  if (!decoded.ok()) {
    return decoded.status();
  }
  return RestoreSnapshot(std::move(decoded).value());
}

Status SchedulerService::RestoreSnapshot(ServiceSnapshot snapshot) {
  options_.engine = snapshot.config;
  if (Status begun = BeginServingEngine(options_, engine_); !begun.ok()) {
    return begun;
  }
  // Replay: the step-and-mutate live apply ran, minus its end-of-time
  // checks (logs written before they existed must replay as they ran).
  // Event sequencing is a pure function of this command list, so the
  // rebuilt engine's decision log matches the original's byte-for-byte.
  for (const LoggedCommand& cmd : snapshot.commands) {
    const StatusOr<JobId> replayed = StepAndMutate(cmd);
    if (!replayed.ok()) {
      return Status::DataLoss(std::string("snapshot replay: ") +
                              CommandKindName(cmd.kind) + " failed: " +
                              replayed.status().message());
    }
  }
  // An ended engine persisted an infinite horizon: stepping to it passes
  // the end again, whether a logged command or an unlogged free-run did.
  engine_.sim->StepUntil(snapshot.horizon);
  driver_->AdvanceTo(engine_.sim->now());
  log_ = std::move(snapshot.commands);
  Serve();
  return Status::Ok();
}

StatusOr<JobId> SchedulerService::StepAndMutate(const LoggedCommand& cmd) {
  Simulator& sim = *engine_.sim;
  sim.StepUntil(cmd.kind == CommandKind::kDrain ? kInfinity : cmd.stamp);
  if (cmd.kind == CommandKind::kSubmit) {
    return sim.SubmitJob(cmd.spec);
  }
  if (cmd.kind == CommandKind::kCancel) {
    const Status cancelled = sim.CancelJob(JobId(cmd.job));
    if (!cancelled.ok()) {
      return cancelled;
    }
  }
  return JobId(cmd.job);
}

void SchedulerService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return;
    }
    stop_requested_ = true;
  }
  serving_.store(false, std::memory_order_release);
  cv_.notify_all();
  driver_->Interrupt();
  if (engine_thread_.joinable()) {
    engine_thread_.join();
  }
  if (engine_.sim != nullptr && !finalized_) {
    finalized_ = true;
    engine_.sim->Finalize();  // closes meters, writes the trace file
  }
}

void SchedulerService::Stats::Add(const Stats& other) {
  commands_applied += other.commands_applied;
  jobs_submitted += other.jobs_submitted;
  jobs_cancelled += other.jobs_cancelled;
  rejected_overload += other.rejected_overload;
  command_errors += other.command_errors;
  reads_served += other.reads_served;
  snapshots_published += other.snapshots_published;
  queue_depth += other.queue_depth;
  queue_peak = std::max(queue_peak, other.queue_peak);
}

SchedulerService::Stats SchedulerService::stats() const {
  Stats stats;
  stats.command_errors = command_errors_.load(std::memory_order_relaxed);
  stats.reads_served = reads_served_.load(std::memory_order_relaxed);
  // One lock for the queue-coupled counters: a reader never observes a batch
  // counted as applied while queue_depth still includes it, or a queue_peak
  // below a previously returned queue_depth.
  std::lock_guard<std::mutex> lock(mu_);
  stats.commands_applied = commands_applied_;
  stats.jobs_submitted = jobs_submitted_;
  stats.jobs_cancelled = jobs_cancelled_;
  stats.rejected_overload =
      rejected_overload_ + rejected_shed_.load(std::memory_order_relaxed);
  stats.snapshots_published = snapshots_published_;
  stats.queue_depth = queue_.size();
  stats.queue_peak = queue_peak_;
  return stats;
}

void SchedulerService::Enqueue(EngineCommand command,
                               std::shared_ptr<CompletionSink> sink,
                               std::uint64_t a, std::uint64_t b) {
  JsonValue rejection;
  bool was_empty = false;
  if (stopped()) {
    rejection = ErrorReply("unavailable", "service is stopped");
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_requested_) {
      rejection = ErrorReply("unavailable", "service is stopped");
    } else if (queue_.size() >= static_cast<std::size_t>(options_.queue_capacity)) {
      ++rejected_overload_;
      rejection = OverloadedReply();
    } else {
      was_empty = queue_.empty();
      queue_.push_back(PendingCommand{std::move(command), std::move(sink), a, b});
      queue_len_.store(queue_.size(), std::memory_order_relaxed);
      queue_peak_ = std::max(queue_peak_, queue_.size());
    }
  }
  if (rejection.is_object()) {
    EchoSeq(command.seq, rejection);
    sink->OnReply(a, b, std::move(rejection));
    return;
  }
  // Only the push that makes the queue non-empty can find the engine asleep:
  // the engine drains the whole queue under the lock, so while it holds
  // earlier commands it is awake and will pick ours up in its next drain.
  // Pipelined bursts thus pay one wakeup, not one per command.
  if (was_empty) {
    cv_.notify_one();
    driver_->Interrupt();
  }
}

SchedulerService::NextAction SchedulerService::Next(
    std::vector<PendingCommand>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      // Drain the whole queue in one lock hold: pipelined clients pay one
      // mutex round and one snapshot publish per batch, not per command.
      batch->reserve(queue_.size());
      for (PendingCommand& cmd : queue_) {
        batch->push_back(std::move(cmd));
      }
      queue_.clear();
      queue_len_.store(0, std::memory_order_relaxed);
      return NextAction::kApply;
    }
    if (stop_requested_) {
      return NextAction::kStop;
    }
    Simulator& sim = *engine_.sim;
    if (driver_->realtime()) {
      if (sim.HasUnfinishedJobs() && std::isfinite(sim.NextEventTime())) {
        return NextAction::kWaitRealTime;
      }
    } else if (options_.auto_advance && !auto_quiescent_ &&
               sim.HasUnfinishedJobs()) {
      return NextAction::kStep;
    }
    if (registry_stale_) {
      // Idle with the registry copy behind: sleep only until the refresh
      // interval closes, then publish once with a copy.
      if (cv_.wait_until(lock, last_metrics_refresh_ + kMetricsRefresh) ==
              std::cv_status::timeout &&
          queue_.empty() && !stop_requested_) {
        return NextAction::kRefresh;
      }
      continue;
    }
    cv_.wait(lock);
  }
}

void SchedulerService::PublishSnapshot() {
  const auto wall = std::chrono::steady_clock::now();
  const bool refresh = wall - last_metrics_refresh_ >= kMetricsRefresh;
  if (refresh) {
    last_metrics_refresh_ = wall;
  }
  registry_stale_ = !refresh;
  const std::uint64_t publish_start =
      engine_shard_ != nullptr ? TelemetryNowNs() : 0;
  snapshot_.store(builder_.Publish(*engine_.sim, log_.size(), refresh),
                  std::memory_order_release);
  if (engine_shard_ != nullptr) {
    engine_shard_->engine_snapshot_publish.Record(TelemetryNowNs() -
                                                  publish_start);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_published_;
}

void SchedulerService::EngineLoop() {
  std::vector<PendingCommand> batch;
  std::vector<JsonValue> replies;
  for (;;) {
    batch.clear();
    switch (Next(&batch)) {
      case NextAction::kApply: {
        const std::uint64_t apply_start = TelemetryNowNs();
        replies.clear();
        replies.reserve(batch.size());
        for (PendingCommand& cmd : batch) {
          replies.push_back(Apply(cmd.command));
          EchoSeq(cmd.command.seq, replies.back());
        }
        if (engine_shard_ != nullptr) {
          const std::uint64_t apply_end = TelemetryNowNs();
          engine_shard_->engine_batch_apply.Record(apply_end - apply_start);
          engine_shard_->engine_batch_commands.Record(batch.size());
          engine_shard_->spans.Record(
              apply_start, apply_end - apply_start, log_.size(), batch.size(),
              static_cast<std::uint32_t>(
                  queue_len_.load(std::memory_order_relaxed)),
              TelemetryCmd::kBatchApply);
        }
        // Publish before delivering replies: a client that saw its write
        // acknowledged reads a snapshot at or past that write.
        PublishSnapshot();
        {
          std::lock_guard<std::mutex> lock(mu_);
          commands_applied_ += batch_applied_;
          jobs_submitted_ += batch_submitted_;
          jobs_cancelled_ += batch_cancelled_;
        }
        batch_applied_ = 0;
        batch_submitted_ = 0;
        batch_cancelled_ = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          PendingCommand& cmd = batch[i];
          cmd.sink->OnReply(cmd.sink_a, cmd.sink_b, std::move(replies[i]));
        }
        break;
      }
      case NextAction::kStep: {
        // Free-run toward quiescence in bounded chunks so a newly queued
        // command waits at most one chunk.
        const bool more = engine_.sim->StepUntil(kInfinity, kAutoStepChunk);
        driver_->AdvanceTo(engine_.sim->now());
        if (!more) {
          auto_quiescent_ = true;
        }
        PublishSnapshot();
        break;
      }
      case NextAction::kWaitRealTime: {
        // Sleep (interruptibly) until the wall clock reaches the next
        // event, then catch the engine up to the driver's time.
        if (driver_->WaitUntil(engine_.sim->NextEventTime())) {
          engine_.sim->StepUntil(driver_->Now());
          PublishSnapshot();
        }
        break;
      }
      case NextAction::kRefresh:
        PublishSnapshot();
        break;
      case NextAction::kStop:
        return;
    }
  }
}

void SchedulerService::TraceCommand(const char* name, TimeSec stamp) {
  obs::TraceExporter* trace = engine_.sim->mutable_trace_exporter();
  if (trace != nullptr) {
    char args[48];
    std::snprintf(args, sizeof(args), "\"log_seq\": %zu", log_.size());
    trace->Instant(obs::TraceTrack::kService, name, stamp, args);
  }
}

JsonValue SchedulerService::Apply(EngineCommand& command) {
  ++batch_applied_;
  if (command.cmd == TelemetryCmd::kSnapshot) {
    return ApplySnapshot(command.image);
  }
  if (command.cmd == TelemetryCmd::kShutdown) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
    }
    serving_.store(false, std::memory_order_release);
    cv_.notify_all();
    JsonValue reply = OkReply();
    reply.Set("stopping", JsonValue::MakeBool(true));
    return reply;
  }

  Simulator& sim = *engine_.sim;
  LoggedCommand& cmd = command.command;
  const char* name = CommandKindName(cmd.kind);
  // A cancel arrives with the fleet id; it runs and is logged with the
  // engine's own.
  const std::int64_t fleet_job = cmd.job;
  if (cmd.kind == CommandKind::kCancel) {
    if (ids_.EngineOf(fleet_job) != ids_.engine) {
      CountError();
      return NoSuchJobReply(fleet_job);
    }
    cmd.job = ids_.Local(fleet_job);
  }
  // Monotone by construction: never behind the engine's frontier.
  cmd.stamp = std::max(command.at >= 0.0 ? command.at : driver_->Now(),
                       sim.now());
  // A cancel still works on an ended engine: it schedules nothing.
  if (cmd.kind != CommandKind::kCancel && sim.ended()) {
    return EndedReply(std::string(name) + " refused: the engine passed its");
  }
  if (cmd.kind == CommandKind::kSubmit) {
    if (cmd.stamp > sim.max_time()) {
      char at[32];
      std::snprintf(at, sizeof(at), "%.9g", cmd.stamp);
      return EndedReply(std::string("submit at t=") + at +
                        " is past the engine's");
    }
    cmd.spec.submit_time = cmd.stamp;
  }
  const StatusOr<JobId> job = StepAndMutate(cmd);
  if (!job.ok()) {
    CountError();
    // The simulator's cancel errors name the local id: answered here with
    // the one the client sent.
    if (cmd.kind == CommandKind::kCancel) {
      if (job.status().code() == StatusCode::kNotFound) {
        return NoSuchJobReply(fleet_job);
      }
      if (job.status().code() == StatusCode::kFailedPrecondition) {
        return ErrorReply("failed_precondition",
                          "job " + std::to_string(fleet_job) +
                              " already terminated");
      }
    }
    return StatusReply(job.status());
  }
  if (cmd.kind == CommandKind::kDrain) {
    cmd.stamp = sim.now();
  }
  TraceCommand(name, cmd.stamp);
  log_.push_back(cmd);
  auto_quiescent_ = cmd.kind == CommandKind::kDrain;

  JsonValue reply = OkReply();
  switch (cmd.kind) {
    case CommandKind::kSubmit:
      ++batch_submitted_;
      reply.Set("job", JsonValue::MakeNumber(static_cast<double>(
                           ids_.Global(job.value().value))));
      reply.Set("time", JsonValue::MakeNumber(cmd.stamp));
      break;
    case CommandKind::kCancel:
      ++batch_cancelled_;
      reply.Set("job", JsonValue::MakeNumber(static_cast<double>(fleet_job)));
      reply.Set("time", JsonValue::MakeNumber(sim.now()));
      break;
    case CommandKind::kAdvance:
      driver_->AdvanceTo(cmd.stamp);
      reply.Set("time", JsonValue::MakeNumber(sim.now()));
      reply.Set("virtual_time", JsonValue::MakeNumber(cmd.stamp));
      break;
    case CommandKind::kDrain: {
      driver_->AdvanceTo(cmd.stamp);
      std::size_t terminal = 0;
      for (const auto& job_state : sim.jobs()) {
        if (job_state->state() == JobState::kFinished ||
            job_state->state() == JobState::kCancelled) {
          ++terminal;
        }
      }
      reply.Set("time", JsonValue::MakeNumber(sim.now()));
      reply.Set("jobs",
                JsonValue::MakeNumber(static_cast<double>(sim.jobs().size())));
      reply.Set("terminal", JsonValue::MakeNumber(static_cast<double>(terminal)));
      break;
    }
  }
  return reply;
}

JsonValue SchedulerService::EndedReply(const std::string& what) {
  CountError();
  char end[32];
  std::snprintf(end, sizeof(end), "%.9g", engine_.sim->max_time());
  return ErrorReply("failed_precondition",
                    what + " end of time (t=" + end + ")");
}

StatusOr<std::size_t> SchedulerService::DumpFlightRecorder(
    const std::string& path) const {
  const std::vector<RequestSpan> spans = telemetry_.CollectSpans();
  obs::TraceExporter exporter(std::max<std::size_t>(spans.size() + 16, 1024));
  const std::uint64_t epoch = telemetry_.epoch_ns();
  for (const RequestSpan& span : spans) {
    // Stamps are wall time since the telemetry epoch; a clamped start keeps
    // a torn ring slot from producing a negative timestamp.
    const double start_s =
        span.start_ns >= epoch
            ? static_cast<double>(span.start_ns - epoch) * 1e-9
            : 0.0;
    const double dur_s = static_cast<double>(span.dur_ns) * 1e-9;
    char args[128];
    std::snprintf(args, sizeof(args),
                  "\"conn\": %" PRIu64 ", \"seq\": %" PRIu64
                  ", \"queue_depth\": %u, \"shard\": %u",
                  span.conn, span.seq, span.queue_depth,
                  static_cast<unsigned>(span.shard));
    exporter.Complete(obs::TraceTrack::kService, TelemetryCmdName(span.cmd),
                      start_s, start_s + dur_s, args);
  }
  const Status written = exporter.WriteJson(path);
  if (!written.ok()) {
    return written;
  }
  return spans.size();
}

JsonValue SchedulerService::ApplySnapshot(std::string* image) {
  LYRA_CHECK(image != nullptr);
  const TimeSec now = engine_.sim->now();
  ServiceSnapshot snapshot;
  snapshot.config = options_.engine;
  // Lent to the encoder and taken back: the image is the only copy made.
  snapshot.commands = std::move(log_);
  // An ended engine may have passed its end in an unlogged free-run step;
  // an infinite horizon makes the restore pass it too.
  snapshot.horizon = engine_.sim->ended() ? kInfinity : now;
  *image = EncodeSnapshot(snapshot);
  log_ = std::move(snapshot.commands);
  TraceCommand("snapshot", now);
  JsonValue reply = OkReply();
  reply.Set("commands", JsonValue::MakeNumber(static_cast<double>(log_.size())));
  reply.Set("time", JsonValue::MakeNumber(now));
  return reply;
}

}  // namespace lyra::svc
