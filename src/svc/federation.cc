#include "src/svc/federation.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/codec.h"
#include "src/svc/prom.h"
#include "src/svc/replies.h"

namespace lyra::svc {
namespace {

// Deterministic time/cost rendering for ledger event lines: the lines feed
// the rolling ledger hash, so the format must be stable across platforms.
std::string FormatTime(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", t);
  return buf;
}

bool ParseKindToken(const std::string& token, ClusterKind* kind) {
  if (token == "inference" || token == "inf") {
    *kind = ClusterKind::kInference;
    return true;
  }
  if (token == "training" || token == "train") {
    *kind = ClusterKind::kTraining;
    return true;
  }
  return false;
}

bool ParseUint(const std::string& text, long long* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0 || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

// How a "cluster"/"to" field renders in error messages.
std::string DescribeTarget(const JsonValue& target) {
  if (target.is_string()) {
    return target.AsString();
  }
  if (target.is_number()) {
    return std::to_string(target.AsInt());
  }
  return "?";
}

JsonValue Number(double v) { return JsonValue::MakeNumber(v); }

JsonValue PoolJson(const PoolCounters& counters) {
  JsonValue stats = JsonValue::MakeObject();
  stats.Set("servers", Number(counters.servers));
  stats.Set("total_gpus", Number(counters.total_gpus));
  stats.Set("used_gpus", Number(counters.used_gpus));
  stats.Set("free_gpus", Number(counters.free_gpus));
  return stats;
}

}  // namespace

StatusOr<std::vector<ClusterSpec>> ParseFederationSpec(
    const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty federation spec");
  }

  // Compact form first: "NxM".
  const std::size_t x = spec.find('x');
  if (x != std::string::npos && spec.find(',') == std::string::npos &&
      spec.find(':') == std::string::npos) {
    long long inference = 0, training = 0;
    if (!ParseUint(spec.substr(0, x), &inference) ||
        !ParseUint(spec.substr(x + 1), &training)) {
      return Status::InvalidArgument("bad federation spec: \"" + spec + "\"");
    }
    // Each count is bounded before its clusters are built, so a huge count
    // allocates nothing; ValidateClusters then checks the total.
    constexpr long long kMax = static_cast<long long>(kMaxClusters);
    if (inference > kMax || training > kMax) {
      return Status::InvalidArgument(
          "federation engine count must be in [1, 64], got more than 64");
    }
    std::vector<ClusterSpec> clusters;
    for (long long i = 0; i < inference; ++i) {
      clusters.push_back({"inf" + std::to_string(i), ClusterKind::kInference});
    }
    for (long long i = 0; i < training; ++i) {
      clusters.push_back({"train" + std::to_string(i), ClusterKind::kTraining});
    }
    if (Status valid = ValidateClusters(clusters); !valid.ok()) {
      return valid;
    }
    return clusters;
  }

  // Explicit list: "name:kind,...".
  std::vector<ClusterSpec> clusters;
  for (const std::string& entry : SplitOn(spec, ',')) {
    const std::vector<std::string> fields = SplitOn(entry, ':');
    if (fields.size() != 2) {
      return Status::InvalidArgument("bad federation cluster: \"" + entry +
                                     "\"");
    }
    ClusterSpec cluster;
    cluster.name = fields[0];
    if (!ParseKindToken(fields[1], &cluster.kind)) {
      return Status::InvalidArgument("unknown cluster kind: \"" + fields[1] +
                                     "\"");
    }
    clusters.push_back(std::move(cluster));
  }
  if (Status valid = ValidateClusters(clusters); !valid.ok()) {
    return valid;
  }
  return clusters;
}

// --- FederationRouter -----------------------------------------------------

// Barrier aggregator for fanout commands: each engine's reply, and for a
// snapshot its image, lands in its own slot (no lock — distinct indices),
// and the last engine to complete merges and delivers to the client's sink.
// The acq_rel countdown makes every slot write visible to the merging
// thread.
class FederationRouter::FanoutSink : public SchedulerService::CompletionSink {
 public:
  FanoutSink(const FederationRouter* router, TelemetryCmd cmd,
             std::optional<double> seq, std::string snapshot_path,
             std::uint64_t snapshot_submit_seq,
             std::shared_ptr<SchedulerService::CompletionSink> parent,
             std::uint64_t a, std::uint64_t b, int engines)
      : router_(router),
        cmd_(cmd),
        seq_(seq),
        snapshot_path_(std::move(snapshot_path)),
        snapshot_submit_seq_(snapshot_submit_seq),
        parent_(std::move(parent)),
        a_(a),
        b_(b),
        replies_(static_cast<std::size_t>(engines)),
        images_(static_cast<std::size_t>(engines)),
        remaining_(engines) {}

  std::string* image(int engine) {
    return &images_[static_cast<std::size_t>(engine)];
  }

  void OnReply(std::uint64_t engine, std::uint64_t /*unused*/,
               JsonValue reply) override {
    replies_[static_cast<std::size_t>(engine)] = std::move(reply);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      JsonValue merged =
          router_->MergeFanout(cmd_, seq_, snapshot_path_,
                               snapshot_submit_seq_, replies_, images_);
      parent_->OnReply(a_, b_, std::move(merged));
    }
  }

 private:
  const FederationRouter* router_;
  const TelemetryCmd cmd_;
  const std::optional<double> seq_;
  const std::string snapshot_path_;
  const std::uint64_t snapshot_submit_seq_;
  const std::shared_ptr<SchedulerService::CompletionSink> parent_;
  const std::uint64_t a_;
  const std::uint64_t b_;
  std::vector<JsonValue> replies_;
  std::vector<std::string> images_;
  std::atomic<int> remaining_;
};

// Synchronous bridge for FederationRouter::Execute, the one waiter.
class FederationRouter::WaitSink : public SchedulerService::CompletionSink {
 public:
  void OnReply(std::uint64_t /*a*/, std::uint64_t /*b*/,
               JsonValue reply) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      reply_ = std::move(reply);
      done_ = true;
    }
    cv_.notify_all();
  }

  JsonValue Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_; });
    return std::move(reply_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  JsonValue reply_;
};

// Two-hop migration chain: cancel on the source cluster, then resubmit on
// the destination cluster with the remaining work plus the checkpoint cost.
// Each hop's reply arrives on that engine's thread; `a` carries the phase.
class FederationRouter::MigrationSink
    : public SchedulerService::CompletionSink,
      public std::enable_shared_from_this<MigrationSink> {
 public:
  MigrationSink(FederationRouter* router, std::optional<double> seq,
                std::shared_ptr<SchedulerService::CompletionSink> parent,
                std::uint64_t a, std::uint64_t b, std::int64_t from_global,
                std::uint32_t source, std::uint32_t dest, EngineCommand submit,
                double checkpoint_cost)
      : router_(router),
        seq_(seq),
        parent_(std::move(parent)),
        a_(a),
        b_(b),
        from_global_(from_global),
        source_(source),
        dest_(dest),
        submit_(std::move(submit)),
        checkpoint_cost_(checkpoint_cost) {}

  void OnReply(std::uint64_t phase, std::uint64_t /*unused*/,
               JsonValue reply) override {
    if (!reply.GetBool("ok", false)) {
      EchoSeq(seq_, reply);
      parent_->OnReply(a_, b_, std::move(reply));
      return;
    }
    if (phase == 0) {
      // The job left the source at the cancel's engine time; it arrives at
      // the destination no earlier (the destination still maxes the stamp
      // with its own frontier).
      submit_.at = reply.GetDouble("time", 0.0);
      router_->shard(static_cast<int>(dest_))
          ->Enqueue(std::move(submit_), shared_from_this(), 1, 0);
      return;
    }
    const std::int64_t to_global =
        static_cast<std::int64_t>(reply.GetDouble("job", -1.0));
    const double time = reply.GetDouble("time", 0.0);
    {
      std::lock_guard<std::mutex> lock(router_->ledger_mu_);
      router_->RecordMigration(time, from_global_, to_global, source_, dest_,
                               checkpoint_cost_);
    }
    JsonValue done = OkReply();
    done.Set("job", JsonValue::MakeNumber(static_cast<double>(to_global)));
    done.Set("from_job",
             JsonValue::MakeNumber(static_cast<double>(from_global_)));
    done.Set("cluster", JsonValue::MakeString(
                            router_->clusters_[dest_].name));
    done.Set("checkpoint_cost", JsonValue::MakeNumber(checkpoint_cost_));
    done.Set("time", JsonValue::MakeNumber(time));
    EchoSeq(seq_, done);
    parent_->OnReply(a_, b_, std::move(done));
  }

 private:
  FederationRouter* const router_;
  const std::optional<double> seq_;
  const std::shared_ptr<SchedulerService::CompletionSink> parent_;
  const std::uint64_t a_;
  const std::uint64_t b_;
  const std::int64_t from_global_;
  const std::uint32_t source_;  // cluster, and so engine
  const std::uint32_t dest_;
  EngineCommand submit_;
  const double checkpoint_cost_;
};

FederationRouter::FederationRouter(std::vector<SchedulerService*> engines,
                                   std::vector<ClusterSpec> clusters)
    : shards_(std::move(engines)), clusters_(std::move(clusters)) {
  LYRA_CHECK(!shards_.empty());
  for (SchedulerService* engine : shards_) {
    LYRA_CHECK(engine != nullptr);
  }
  LYRA_CHECK(clusters_.size() == shards_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    kind_engines_[static_cast<int>(clusters_[c].kind)].push_back(
        static_cast<std::uint32_t>(c));
  }
}

int FederationRouter::FindCluster(const std::string& name) const {
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (clusters_[c].name == name) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

std::uint64_t FederationRouter::ledger_hash() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return ledger_hash_;
}

std::vector<std::string> FederationRouter::RecentEvents() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return events_;
}

void FederationRouter::RestoreLedger(std::uint64_t ledger_hash) {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  ledger_hash_ = ledger_hash;
}

void FederationRouter::RecordMigration(double now, std::int64_t from_job,
                                       std::int64_t to_job,
                                       std::uint32_t from_cluster,
                                       std::uint32_t to_cluster,
                                       double checkpoint_cost) {
  const std::string event =
      "t=" + FormatTime(now) + " migrate job=" + std::to_string(from_job) +
      " to_job=" + std::to_string(to_job) +
      " from=" + std::to_string(from_cluster) +
      " to=" + std::to_string(to_cluster) +
      " cost=" + FormatTime(checkpoint_cost);
  // Each event line, newline included, extends the rolling FNV-1a.
  ledger_hash_ = Fnv1a(
      "\n", Fnv1a(event, ledger_hash_ == 0 ? kFnv1aOffset : ledger_hash_));
  events_.push_back(event);
  if (events_.size() > kMaxEvents) {
    events_.erase(events_.begin());
  }
}

std::span<const std::uint32_t> FederationRouter::TargetEngines(
    const JsonValue& request) const {
  const JsonValue* cluster = request.Find("cluster");
  if (cluster != nullptr) {
    int c = -1;
    if (cluster->is_string()) {
      c = FindCluster(cluster->AsString());
    } else if (cluster->is_number()) {
      const std::int64_t index = cluster->AsInt();
      if (index >= 0 && index < shard_count()) {
        c = static_cast<int>(index);
      }
    }
    if (c < 0) {
      return {};
    }
    // Engine c, as the one-element run of its kind's ascending list.
    const ClusterKind kind = clusters_[static_cast<std::size_t>(c)].kind;
    const std::vector<std::uint32_t>& same_kind =
        kind_engines_[static_cast<int>(kind)];
    const auto [first, last] = std::equal_range(
        same_kind.begin(), same_kind.end(), static_cast<std::uint32_t>(c));
    return {first, last};
  }
  const JsonValue* kind_field = request.Find("kind");
  if (kind_field == nullptr && shard_count() == 1) {
    // Untargeted submit to a single-cluster fleet goes to that cluster
    // whatever its kind.
    return kind_engines_[static_cast<int>(clusters_[0].kind)];
  }
  ClusterKind kind = ClusterKind::kTraining;
  if (kind_field != nullptr &&
      (!kind_field->is_string() ||
       !ParseKindToken(kind_field->AsString(), &kind))) {
    return {};
  }
  return kind_engines_[static_cast<int>(kind)];
}

JsonValue FederationRouter::RejectReply(TelemetryCmd cmd,
                                        const JsonValue& request) const {
  JsonValue reply;
  if (cmd == TelemetryCmd::kMigrate) {
    if (shard_count() < 2) {
      reply = ErrorReply("failed_precondition",
                         "migration requires at least two clusters");
    } else {
      reply = StatusReply(JobIdField(request, "migrate").status());
    }
  } else {
    const JsonValue* cluster = request.Find("cluster");
    if (cluster != nullptr) {
      reply = ErrorReply("invalid_argument",
                         "no such cluster: " + DescribeTarget(*cluster));
    } else {
      const JsonValue* kind = request.Find("kind");
      ClusterKind parsed;
      if (kind != nullptr &&
          (!kind->is_string() || !ParseKindToken(kind->AsString(), &parsed))) {
        reply = ErrorReply("invalid_argument",
                           "unknown cluster kind: " + DescribeTarget(*kind));
      } else {
        reply = ErrorReply("failed_precondition",
                           "no cluster of the requested kind");
      }
    }
  }
  return reply;
}

bool FederationRouter::Dispatch(
    TelemetryCmd cmd, const JsonValue& request,
    std::shared_ptr<SchedulerService::CompletionSink> sink, std::uint64_t a,
    std::uint64_t b, bool may_shed) {
  const auto fail = [&](JsonValue reply) {
    front()->CountError();
    EchoSeq(SeqOf(request), reply);
    sink->OnReply(a, b, std::move(reply));
    return false;
  };

  // Route: the target engine (engine 0 stands in for a barrier), peeked
  // from the submit counter for a keyless submit at E > 1.
  std::uint32_t engine = 0;
  bool fanout = false;
  std::span<const std::uint32_t> counter_targets;
  if (cmd == TelemetryCmd::kMigrate) {
    const StatusOr<std::int64_t> job = JobIdField(request, "migrate");
    if (shard_count() < 2 || !job.ok()) {
      return fail(RejectReply(cmd, request));
    }
    engine = ShardOfJob(job.value());
  } else if (shard_count() == 1 && cmd != TelemetryCmd::kSnapshot) {
    // The plain daemon's hot path: no JSON lookups, engine 0 answers.
  } else if (cmd == TelemetryCmd::kSubmit) {
    const std::span<const std::uint32_t> targets = TargetEngines(request);
    if (targets.empty()) {
      return fail(RejectReply(cmd, request));
    }
    const JsonValue* key = request.Find("key");
    if (key != nullptr && key->is_string()) {
      engine = targets[Fnv1a(key->AsString()) % targets.size()];
    } else {
      counter_targets = targets;
      engine = targets[Fnv1aU64(submit_seq()) % targets.size()];
    }
  } else if (cmd == TelemetryCmd::kCancel) {
    // An invalid "job" goes to engine 0, whose decode answers it.
    const StatusOr<std::int64_t> job = JobIdField(request, "cancel");
    if (job.ok()) {
      engine = ShardOfJob(job.value());
    }
  } else {
    fanout = true;
  }

  // Shed on the peeked route: a shed submit must not consume a routing
  // sequence number, or a restore would route later submits differently
  // than the uninterrupted run (the counter is snapshotted).
  if (may_shed &&
      (fanout ? AnySaturated() : shards_[engine]->EngineSaturated())) {
    shards_[engine]->CountShedOverload();
    return true;
  }
  if (!counter_targets.empty()) {
    // The fetch_add is the authoritative routing decision: two I/O threads
    // that both peeked the same value still dispatch to distinct,
    // deterministic engines. It precedes the decode, so a malformed keyless
    // submit consumes its number like any other.
    const std::uint64_t seq =
        submit_seq_.fetch_add(1, std::memory_order_relaxed);
    engine = counter_targets[Fnv1aU64(seq) % counter_targets.size()];
  }
  if (cmd == TelemetryCmd::kMigrate) {
    JsonValue refused = StartMigration(request, sink, a, b);
    return refused.is_object() ? fail(std::move(refused)) : false;
  }
  StatusOr<EngineCommand> decoded = DecodeEngineCommand(cmd, request);
  if (!decoded.ok()) {
    // Answered once here, whatever the fanout: no engine sees it.
    return fail(StatusReply(decoded.status()));
  }
  EngineCommand& command = decoded.value();
  if (!fanout) {
    shards_[engine]->Enqueue(std::move(command), std::move(sink), a, b);
    return false;
  }
  // Sampled at dispatch: every engine's queue is FIFO, so the commands an
  // engine applies before its snapshot image are exactly the ones
  // dispatched before this point — the counter value here matches the
  // command set the container captures.
  const std::uint64_t snapshot_seq =
      cmd == TelemetryCmd::kSnapshot ? submit_seq() : 0;
  auto fan = std::make_shared<FanoutSink>(
      this, cmd, command.seq, std::move(command.path), snapshot_seq,
      std::move(sink), a, b, shard_count());
  // The merged reply echoes "seq" once; the engines' copies carry none.
  command.seq.reset();
  for (int k = 0; k < shard_count(); ++k) {
    EngineCommand copy = command;
    if (cmd == TelemetryCmd::kSnapshot) {
      copy.image = fan->image(k);
    }
    shards_[static_cast<std::size_t>(k)]->Enqueue(
        std::move(copy), fan, static_cast<std::uint64_t>(k), 0);
  }
  return false;
}

JsonValue FederationRouter::StartMigration(
    const JsonValue& request,
    const std::shared_ptr<SchedulerService::CompletionSink>& sink,
    std::uint64_t a, std::uint64_t b) {
  const std::int64_t global = JobIdField(request, "migrate").value();  // Dispatch-checked
  const std::uint32_t source_cluster = ShardOfJob(global);

  const JsonValue* to = request.Find("to");
  if (to == nullptr) {
    return ErrorReply("invalid_argument", "migrate requires a \"to\" cluster");
  }
  int dest = -1;
  if (to->is_string()) {
    dest = FindCluster(to->AsString());
  } else if (to->is_number()) {
    const std::int64_t index = to->AsInt();
    if (index >= 0 && index < shard_count()) {
      dest = static_cast<int>(index);
    }
  }
  if (dest < 0) {
    return ErrorReply("invalid_argument",
                      "no such cluster: " + DescribeTarget(*to));
  }
  if (clusters_[static_cast<std::size_t>(dest)].kind !=
      ClusterKind::kTraining) {
    return ErrorReply("failed_precondition",
                      "destination cluster \"" +
                          clusters_[static_cast<std::size_t>(dest)].name +
                          "\" is not a training cluster");
  }
  if (clusters_[source_cluster].kind != ClusterKind::kTraining) {
    return ErrorReply("failed_precondition",
                      "job " + std::to_string(global) +
                          " is not on a training cluster");
  }
  if (static_cast<std::uint32_t>(dest) == source_cluster) {
    return ErrorReply("failed_precondition",
                      "job " + std::to_string(global) +
                          " is already on cluster \"" +
                          clusters_[source_cluster].name + "\"");
  }

  SchedulerService* source = shard(static_cast<int>(source_cluster));
  if (source->stopped()) {
    return ErrorReply("unavailable", "service is stopped");
  }
  // RCU read: the record can be stale, but the cancel below is the
  // authoritative gate — a job that finished in between fails there and the
  // engine error is forwarded verbatim.
  const std::shared_ptr<const StateSnapshot> snap = source->snapshot();
  const JobRecord* record = snap->FindJob(source->ids().Local(global));
  if (record == nullptr) {
    return NoSuchJobReply(global);
  }
  if (record->state == JobState::kFinished ||
      record->state == JobState::kCancelled) {
    return ErrorReply(
        "failed_precondition",
        "job " + std::to_string(global) + " is already " +
            (record->state == JobState::kFinished ? "finished" : "cancelled"));
  }

  const double cost = record->spec.checkpointing ? kMigrationCheckpointCost
                                                 : kMigrationColdCost;

  // The destination runs the source's spec (its own id to assign) with the
  // remaining work plus the cost, stamped once the cancel has answered.
  EngineCommand submit;
  submit.cmd = TelemetryCmd::kSubmit;
  submit.command.kind = CommandKind::kSubmit;
  submit.command.spec = record->spec;
  submit.command.spec.id = JobId();
  submit.command.spec.total_work = record->work_remaining + cost;

  EngineCommand cancel;
  cancel.cmd = TelemetryCmd::kCancel;
  cancel.command.kind = CommandKind::kCancel;
  cancel.command.job = global;
  cancel.at = request.GetDouble("at", -1.0);

  auto chain = std::make_shared<MigrationSink>(
      this, SeqOf(request), sink, a, b, global, source_cluster,
      static_cast<std::uint32_t>(dest), std::move(submit), cost);
  source->Enqueue(std::move(cancel), std::move(chain), 0, 0);
  return JsonValue();
}

JsonValue FederationRouter::MergeFanout(
    TelemetryCmd cmd, std::optional<double> seq,
    const std::string& snapshot_path, std::uint64_t snapshot_submit_seq,
    std::vector<JsonValue>& replies, std::vector<std::string>& images) const {
  // Any failed engine fails the whole command; the merged reply is that
  // engine's error annotated with its index. Engines that did apply keep the
  // command in their logs (per-engine replay-exactness is untouched); the
  // client sees the failure and can retry the idempotent fanout commands.
  for (std::size_t k = 0; k < replies.size(); ++k) {
    if (!replies[k].GetBool("ok", false)) {
      JsonValue failed = std::move(replies[k]);
      if (shard_count() > 1) {
        failed.Set("shard", JsonValue::MakeNumber(static_cast<double>(k)));
      }
      EchoSeq(seq, failed);
      return failed;
    }
  }

  JsonValue merged = OkReply();
  double time = 0.0;
  for (const JsonValue& reply : replies) {
    time = std::max(time, reply.GetDouble("time", 0.0));
  }
  switch (cmd) {
    case TelemetryCmd::kAdvance: {
      double virtual_time = 0.0;
      for (const JsonValue& reply : replies) {
        virtual_time = std::max(virtual_time, reply.GetDouble("virtual_time", 0.0));
      }
      merged.Set("time", JsonValue::MakeNumber(time));
      merged.Set("virtual_time", JsonValue::MakeNumber(virtual_time));
      break;
    }
    case TelemetryCmd::kDrain: {
      double jobs = 0.0, terminal = 0.0;
      for (const JsonValue& reply : replies) {
        jobs += reply.GetDouble("jobs", 0.0);
        terminal += reply.GetDouble("terminal", 0.0);
      }
      merged.Set("time", JsonValue::MakeNumber(time));
      merged.Set("jobs", JsonValue::MakeNumber(jobs));
      merged.Set("terminal", JsonValue::MakeNumber(terminal));
      break;
    }
    case TelemetryCmd::kShutdown:
      merged.Set("stopping", JsonValue::MakeBool(true));
      break;
    case TelemetryCmd::kSnapshot: {
      // The one write of the snapshot, on the last engine thread to encode
      // its image.
      const Status saved = WriteFileAtomic(
          snapshot_path, EncodeFleetSnapshot(snapshot_submit_seq, images));
      if (!saved.ok()) {
        front()->CountError();
        JsonValue failed = StatusReply(saved);
        EchoSeq(seq, failed);
        return failed;
      }
      double commands = 0.0;
      for (const JsonValue& reply : replies) {
        commands += reply.GetDouble("commands", 0.0);
      }
      merged.Set("path", JsonValue::MakeString(snapshot_path));
      merged.Set("commands", JsonValue::MakeNumber(commands));
      merged.Set("time", JsonValue::MakeNumber(time));
      if (shard_count() > 1) {
        merged.Set("clusters",
                   JsonValue::MakeNumber(static_cast<double>(shard_count())));
      }
      break;
    }
    default:
      break;
  }
  EchoSeq(seq, merged);
  return merged;
}

std::string FederationRouter::EncodeFleetSnapshot(
    std::uint64_t submit_seq, std::vector<std::string>& images) const {
  FedSnapshot fed;
  fed.submit_seq = submit_seq;
  for (int c = 0; c < shard_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    fed.clusters.push_back({spec.name, static_cast<std::uint8_t>(spec.kind),
                            std::move(images[static_cast<std::size_t>(c)])});
  }
  fed.ledger_hash = ledger_hash();
  return EncodeFedSnapshot(fed);
}

JsonValue FederationRouter::Read(TelemetryCmd cmd,
                                 const JsonValue& request) const {
  using Reader = JsonValue (FederationRouter::*)(const JsonValue&) const;
  Reader reader = nullptr;
  switch (cmd) {
    case TelemetryCmd::kQueryJob:
      reader = &FederationRouter::QueryJob;
      break;
    case TelemetryCmd::kClusterStats:
      reader = &FederationRouter::ClusterStats;
      break;
    case TelemetryCmd::kPing:
      reader = &FederationRouter::Ping;
      break;
    case TelemetryCmd::kStatsProm:
      reader = &FederationRouter::StatsProm;
      break;
    case TelemetryCmd::kTraceDump:
      reader = &FederationRouter::TraceDump;
      break;
    case TelemetryCmd::kFederationStats:
      reader = &FederationRouter::FederationStats;
      break;
    default:
      break;
  }
  JsonValue reply;
  if (reader == nullptr) {
    front()->CountError();
    reply = ErrorReply("invalid_argument",
                       "unknown cmd: \"" + request.GetString("cmd") + "\"");
  } else if (std::any_of(shards_.begin(), shards_.end(),
                         [](const SchedulerService* engine) {
                           return engine->stopped();
                         })) {
    reply = ErrorReply("unavailable", "service is stopped");
  } else {
    reply = (this->*reader)(request);
    front()->CountRead();
  }
  EchoSeq(SeqOf(request), reply);
  return reply;
}

std::shared_ptr<const StateSnapshot> FederationRouter::FleetSnapshot() const {
  if (shard_count() == 1) {
    return front()->snapshot();
  }
  std::vector<std::shared_ptr<const StateSnapshot>> snaps;
  snaps.reserve(shards_.size());
  for (const SchedulerService* engine : shards_) {
    snaps.push_back(engine->snapshot());
  }
  return std::make_shared<const StateSnapshot>(SumSnapshots(snaps));
}

JsonValue FederationRouter::QueryJob(const JsonValue& request) const {
  const StatusOr<std::int64_t> job = JobIdField(request, "query_job");
  if (!job.ok()) {
    front()->CountError();
    return StatusReply(job.status());
  }
  // The global id names its engine and the engine's own id.
  const std::int64_t id = job.value();
  const SchedulerService* engine = shards_[ShardOfJob(id)];
  const std::shared_ptr<const StateSnapshot> snap = engine->snapshot();
  const JobRecord* record = snap->FindJob(engine->ids().Local(id));
  if (record == nullptr) {
    front()->CountError();
    return NoSuchJobReply(id);
  }
  JsonValue reply = OkReply();
  reply.Set("job", Number(static_cast<double>(id)));
  reply.Set("state", JsonValue::MakeString(JobStateName(record->state)));
  reply.Set("submit_time", Number(record->spec.submit_time));
  reply.Set("gpus_per_worker", Number(record->spec.gpus_per_worker));
  reply.Set("min_workers", Number(record->spec.min_workers));
  reply.Set("max_workers", Number(record->spec.max_workers));
  reply.Set("workers", Number(record->current_workers));
  reply.Set("work_remaining", Number(record->work_remaining));
  reply.Set("preemptions", Number(record->preemptions));
  reply.Set("scaling_operations", Number(record->scaling_operations));
  if (record->first_start_time >= 0.0) {
    reply.Set("first_start_time", Number(record->first_start_time));
  }
  if (record->finish_time >= 0.0) {
    reply.Set("finish_time", Number(record->finish_time));
  }
  return reply;
}

JsonValue FederationRouter::ClusterStats(const JsonValue& /*request*/) const {
  const std::shared_ptr<const StateSnapshot> snap = FleetSnapshot();
  JsonValue jobs = JsonValue::MakeObject();
  jobs.Set("total", Number(static_cast<double>(snap->job_count)));
  for (std::size_t s = 0; s < snap->state_counts.size(); ++s) {
    jobs.Set(JobStateName(static_cast<JobState>(s)),
             Number(static_cast<double>(snap->state_counts[s])));
  }
  JsonValue pools = JsonValue::MakeObject();
  pools.Set("training", PoolJson(snap->training));
  pools.Set("on_loan", PoolJson(snap->on_loan));
  pools.Set("inference", PoolJson(snap->inference));

  JsonValue reply = OkReply();
  reply.Set("time", Number(snap->time));
  reply.Set("events_processed",
            Number(static_cast<double>(snap->events_processed)));
  reply.Set("jobs", std::move(jobs));
  reply.Set("cluster", std::move(pools));
  reply.Set("ended", JsonValue::MakeBool(snap->ended));
  return reply;
}

JsonValue FederationRouter::Ping(const JsonValue& /*request*/) const {
  // Liveness and identity: enough to tell which fleet answered and how far
  // it has gotten, without the cost of a metrics export.
  const bool fleet = shard_count() > 1;
  JsonValue shards = JsonValue::MakeArray();
  double time = 0.0, virtual_time = 0.0, snapshot_seq = 0.0;
  double commands_applied = 0.0;
  bool ended = false;
  for (int k = 0; k < shard_count(); ++k) {
    const std::shared_ptr<const StateSnapshot> snap = shards_[k]->snapshot();
    const double applied =
        static_cast<double>(shards_[k]->stats().commands_applied);
    const double shard_virtual = shards_[k]->driver()->Now();
    time = std::max(time, snap->time);
    virtual_time = std::max(virtual_time, shard_virtual);
    snapshot_seq = std::max(snapshot_seq, static_cast<double>(snap->version));
    commands_applied += applied;
    ended = ended || snap->ended;
    if (fleet) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("shard", Number(k));
      entry.Set("commands_applied", Number(applied));
      entry.Set("snapshot_seq", Number(static_cast<double>(snap->version)));
      entry.Set("virtual_time", Number(shard_virtual));
      shards.Append(std::move(entry));
    }
  }
  JsonValue reply = OkReply();
  reply.Set("time", Number(time));
  reply.Set("virtual_time", Number(virtual_time));
  reply.Set("driver", JsonValue::MakeString(front()->driver_name()));
  reply.Set("uptime_s", Number(front()->UptimeSeconds()));
  reply.Set("commands_applied", Number(commands_applied));
  reply.Set("snapshot_seq", Number(snapshot_seq));
  reply.Set("scheduler",
            JsonValue::MakeString(front()->options().engine.scheduler));
  reply.Set("reclaim", JsonValue::MakeString(front()->options().engine.reclaim));
  reply.Set("ended", JsonValue::MakeBool(ended));
  if (fleet) {
    reply.Set("shard_count", Number(shard_count()));
    reply.Set("shards", std::move(shards));
  }
  return reply;
}

JsonValue FederationRouter::StatsProm(const JsonValue& /*request*/) const {
  // Wire counterpart of `GET /metrics`: the exposition document as a reply
  // field, for clients without an HTTP path.
  JsonValue reply = OkReply();
  reply.Set("text", JsonValue::MakeString(RenderPrometheus(*this)));
  return reply;
}

JsonValue FederationRouter::TraceDump(const JsonValue& request) const {
  const std::string path = request.GetString("path");
  if (path.empty()) {
    front()->CountError();
    return ErrorReply("invalid_argument", "trace_dump requires a \"path\"");
  }
  double spans = 0.0;
  for (int k = 0; k < shard_count(); ++k) {
    const StatusOr<std::size_t> dumped =
        shards_[k]->DumpFlightRecorder(EnginePath(path, k));
    if (!dumped.ok()) {
      front()->CountError();
      return StatusReply(dumped.status());
    }
    spans += static_cast<double>(dumped.value());
  }
  JsonValue reply = OkReply();
  reply.Set("path", JsonValue::MakeString(path));
  reply.Set("spans", Number(spans));
  if (shard_count() > 1) {
    reply.Set("shards", Number(shard_count()));
  }
  return reply;
}

JsonValue FederationRouter::ClusterInfo(int c) const {
  const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
  const std::shared_ptr<const StateSnapshot> snap = shard(c)->snapshot();
  const PoolCounters& pool =
      spec.kind == ClusterKind::kInference ? snap->inference : snap->training;

  JsonValue info = JsonValue::MakeObject();
  info.Set("cluster", JsonValue::MakeNumber(static_cast<double>(c)));
  info.Set("name", JsonValue::MakeString(spec.name));
  info.Set("kind", JsonValue::MakeString(ClusterKindName(spec.kind)));
  JsonValue jobs = JsonValue::MakeObject();
  for (std::size_t s = 0; s < snap->state_counts.size(); ++s) {
    jobs.Set(JobStateName(static_cast<JobState>(s)),
             JsonValue::MakeNumber(static_cast<double>(snap->state_counts[s])));
  }
  info.Set("jobs", std::move(jobs));
  JsonValue gpus = JsonValue::MakeObject();
  gpus.Set("total", JsonValue::MakeNumber(static_cast<double>(pool.total_gpus)));
  gpus.Set("used", JsonValue::MakeNumber(static_cast<double>(pool.used_gpus)));
  gpus.Set("free", JsonValue::MakeNumber(static_cast<double>(pool.free_gpus)));
  info.Set("gpus", std::move(gpus));
  return info;
}

JsonValue FederationRouter::FederationStats(
    const JsonValue& /*request*/) const {
  std::uint64_t hash = 0;
  std::vector<std::string> events;
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    hash = ledger_hash_;
    events = events_;
  }

  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(FleetSnapshot()->time));
  reply.Set("submit_seq",
            JsonValue::MakeNumber(static_cast<double>(submit_seq())));
  JsonValue clusters = JsonValue::MakeArray();
  for (int c = 0; c < shard_count(); ++c) {
    clusters.Append(ClusterInfo(c));
  }
  reply.Set("clusters", std::move(clusters));

  // The migration ledger. Hex string: the hash is a full u64 and would lose bits as a double.
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  JsonValue broker = JsonValue::MakeObject();
  broker.Set("ledger_hash", JsonValue::MakeString(hex));
  JsonValue recent = JsonValue::MakeArray();
  for (const std::string& event : events) {
    recent.Append(JsonValue::MakeString(event));
  }
  broker.Set("events", std::move(recent));
  reply.Set("broker", std::move(broker));
  return reply;
}

JsonValue FederationRouter::Execute(const JsonValue& request) {
  const TelemetryCmd cmd = TelemetryCmdFromName(request.GetString("cmd"));
  if (!IsEngineCmd(cmd)) {
    return Read(cmd, request);
  }
  // Synchronous callers take the authoritative per-engine rejection rather
  // than the advisory shed (there is no canned-reply fast path to protect).
  auto waiter = std::make_shared<WaitSink>();
  Dispatch(cmd, request, waiter, 0, 0, /*may_shed=*/false);
  return waiter->Wait();
}

bool FederationRouter::AnySaturated() const {
  for (const SchedulerService* engine : shards_) {
    if (engine->EngineSaturated()) {
      return true;
    }
  }
  return false;
}

std::size_t FederationRouter::QueueDepthHint() const {
  std::size_t depth = 0;
  for (const SchedulerService* engine : shards_) {
    depth += engine->QueueDepthHint();
  }
  return depth;
}

SchedulerService::Stats FederationRouter::AggregateStats() const {
  SchedulerService::Stats total;
  for (const SchedulerService* engine : shards_) {
    total.Add(engine->stats());
  }
  return total;
}

// --- Build / restore ------------------------------------------------------

std::vector<ClusterSpec> SingleCluster() {
  return {{"train0", ClusterKind::kTraining}};
}

std::string EnginePath(const std::string& path, int engine) {
  return engine == 0 || path.empty() ? path
                                     : path + ".shard" + std::to_string(engine);
}

namespace {

// Wraps the fleet's engines in a router over `clusters`.
void AttachRouter(FederationSet& set, std::vector<ClusterSpec> clusters) {
  std::vector<SchedulerService*> pointers;
  pointers.reserve(set.services.size());
  for (const auto& service : set.services) {
    pointers.push_back(service.get());
  }
  set.router =
      std::make_unique<FederationRouter>(std::move(pointers), std::move(clusters));
}

}  // namespace

StatusOr<FederationSet> BuildFederation(
    const ServiceOptions& base, const std::vector<ClusterSpec>& clusters,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  if (Status valid = ValidateClusters(clusters); !valid.ok()) {
    return valid;
  }
  const int total = static_cast<int>(clusters.size());

  FederationSet set;
  for (int k = 0; k < total; ++k) {
    ServiceOptions options = base;
    // Independent deterministic streams per engine; engine 0 keeps the base
    // seed so a one-engine fleet is the plain service exactly.
    options.engine.seed = base.engine.seed + static_cast<std::uint64_t>(k);
    options.trace_path = EnginePath(base.trace_path, k);
    auto service = std::make_unique<SchedulerService>(
        std::move(options), make_driver(k),
        FleetIds{static_cast<std::uint32_t>(k),
                 static_cast<std::uint32_t>(total)});
    const Status started = service->Start();
    if (!started.ok()) {
      return started;  // ~FederationSet stops the engines already started
    }
    set.services.push_back(std::move(service));
  }
  AttachRouter(set, clusters);
  return set;
}

StatusOr<FederationSet> RestoreFederation(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  StatusOr<LoadedFleet> loaded = LoadFleetSnapshot(snapshot_path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  LoadedFleet& fleet = loaded.value();
  // Engine k restores cluster k's image.
  const auto total = static_cast<std::uint32_t>(fleet.engines.size());
  FederationSet set;
  for (std::uint32_t k = 0; k < total; ++k) {
    ServiceOptions options = base;
    options.trace_path = EnginePath(base.trace_path, static_cast<int>(k));
    auto service = std::make_unique<SchedulerService>(
        std::move(options), make_driver(static_cast<int>(k)),
        FleetIds{k, total});
    const Status restored = service->Restore(std::move(fleet.engines[k]));
    if (!restored.ok()) {
      return restored;
    }
    set.services.push_back(std::move(service));
  }
  AttachRouter(set, std::move(fleet.clusters));
  set.router->set_submit_seq(fleet.submit_seq);
  set.router->RestoreLedger(fleet.ledger_hash);
  return set;
}

}  // namespace lyra::svc
