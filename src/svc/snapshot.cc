#include "src/svc/snapshot.h"

#include <string_view>
#include <utility>

namespace lyra::svc {
namespace {

// Smallest encodings, used to bound counts read from a payload.
constexpr std::size_t kMinCommandBytes = 1 + 8;  // kind + stamp
// name length + kind + image length framing
constexpr std::size_t kMinClusterBytes = 4 + 1 + 8;

bool ValidClusterName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

void PutConfig(ByteWriter& out, const EngineConfig& config) {
  out.Str(config.scheduler);
  out.Str(config.reclaim);
  out.Bool(config.info_agnostic);
  out.Bool(config.tuned);
  out.Bool(config.loaning);
  out.Bool(config.lstm);
  out.Bool(config.faults);
  out.F64(config.scale);
  out.F64(config.horizon_days);
  out.U64(config.seed);
}

EngineConfig ReadConfig(ByteReader& in) {
  EngineConfig config;
  config.scheduler = in.Str();
  config.reclaim = in.Str();
  config.info_agnostic = in.Bool();
  config.tuned = in.Bool();
  config.loaning = in.Bool();
  config.lstm = in.Bool();
  config.faults = in.Bool();
  config.scale = in.F64();
  config.horizon_days = in.F64();
  config.seed = in.U64();
  return config;
}

void PutCommand(ByteWriter& out, const LoggedCommand& cmd) {
  out.U8(static_cast<std::uint8_t>(cmd.kind));
  out.F64(cmd.stamp);
  switch (cmd.kind) {
    case CommandKind::kSubmit: {
      const JobSpec& spec = cmd.spec;
      out.F64(spec.submit_time);
      out.U32(static_cast<std::uint32_t>(spec.gpus_per_worker));
      out.U32(static_cast<std::uint32_t>(spec.min_workers));
      out.U32(static_cast<std::uint32_t>(spec.max_workers));
      out.U32(static_cast<std::uint32_t>(spec.requested_workers));
      out.Bool(spec.fungible);
      out.Bool(spec.heterogeneous);
      out.Bool(spec.checkpointing);
      out.U8(static_cast<std::uint8_t>(spec.model));
      out.F64(spec.total_work);
      break;
    }
    case CommandKind::kCancel:
      out.I64(cmd.job);
      break;
    case CommandKind::kAdvance:
    case CommandKind::kDrain:
      break;
  }
}

LoggedCommand ReadCommand(ByteReader& in) {
  LoggedCommand cmd;
  const std::uint8_t kind = in.U8();
  cmd.stamp = in.F64();
  if (!in.ok()) {
    return cmd;
  }
  if (kind < 1 || kind > 4) {
    in.Fail("unknown command kind " + std::to_string(kind));
    return cmd;
  }
  cmd.kind = static_cast<CommandKind>(kind);
  if (cmd.kind == CommandKind::kSubmit) {
    JobSpec& spec = cmd.spec;
    spec.submit_time = in.F64();
    spec.gpus_per_worker = static_cast<int>(in.U32());
    spec.min_workers = static_cast<int>(in.U32());
    spec.max_workers = static_cast<int>(in.U32());
    spec.requested_workers = static_cast<int>(in.U32());
    spec.fungible = in.Bool();
    spec.heterogeneous = in.Bool();
    spec.checkpointing = in.Bool();
    const std::uint8_t model = in.U8();
    if (model > static_cast<std::uint8_t>(ModelFamily::kOther)) {
      in.Fail("unknown model family " + std::to_string(model));
    }
    spec.model = static_cast<ModelFamily>(model);
    spec.total_work = in.F64();
  } else if (cmd.kind == CommandKind::kCancel) {
    cmd.job = in.I64();
  }
  return cmd;
}

}  // namespace

const char* ClusterKindName(ClusterKind kind) {
  return kind == ClusterKind::kInference ? "inference" : "training";
}

Status ValidateClusters(const std::vector<ClusterSpec>& clusters) {
  if (clusters.empty() || clusters.size() > kMaxClusters) {
    return Status::InvalidArgument(
        "federation engine count must be in [1, 64], got " +
        std::to_string(clusters.size()));
  }
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (!ValidClusterName(clusters[c].name)) {
      return Status::InvalidArgument("bad cluster name: \"" +
                                     clusters[c].name + "\"");
    }
    for (std::size_t other = 0; other < c; ++other) {
      if (clusters[other].name == clusters[c].name) {
        return Status::InvalidArgument("duplicate cluster name: \"" +
                                       clusters[c].name + "\"");
      }
    }
  }
  return Status::Ok();
}

const char* CommandKindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kSubmit:
      return "submit";
    case CommandKind::kCancel:
      return "cancel";
    case CommandKind::kAdvance:
      return "advance";
    case CommandKind::kDrain:
      return "drain";
  }
  return "?";
}

std::string EncodeSnapshot(const ServiceSnapshot& snapshot) {
  ByteWriter payload;
  PutConfig(payload, snapshot.config);
  payload.U64(snapshot.commands.size());
  for (const LoggedCommand& cmd : snapshot.commands) {
    PutCommand(payload, cmd);
  }
  payload.F64(snapshot.horizon);
  return Seal(kSnapshotFormat, payload.bytes());
}

StatusOr<ServiceSnapshot> DecodeSnapshot(const std::string& image,
                                         const std::string& origin) {
  StatusOr<std::string_view> payload = Open(kSnapshotFormat, image, origin);
  if (!payload.ok()) {
    return payload.status();
  }
  ByteReader in(payload.value(), origin);
  ServiceSnapshot snapshot;
  snapshot.config = ReadConfig(in);
  const std::uint64_t count = in.U64();
  if (in.Fits(count, kMinCommandBytes)) {
    snapshot.commands.reserve(count);
  }
  for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
    snapshot.commands.push_back(ReadCommand(in));
  }
  snapshot.horizon = in.F64();
  const Status status = in.Finish();
  if (!status.ok()) {
    return status;
  }
  return snapshot;
}

std::string EncodeFedSnapshot(const FedSnapshot& snapshot) {
  ByteWriter payload;
  payload.U64(snapshot.submit_seq);
  payload.U64(snapshot.ledger_hash);
  payload.U32(static_cast<std::uint32_t>(snapshot.clusters.size()));
  for (const FedClusterImage& cluster : snapshot.clusters) {
    payload.Str(cluster.name);
    payload.U8(cluster.kind);
    payload.Blob(cluster.image);
  }
  return Seal(kFedSnapshotFormat, payload.bytes());
}

StatusOr<FedSnapshot> DecodeFedSnapshot(const std::string& image,
                                        const std::string& origin) {
  StatusOr<std::string_view> payload = Open(kFedSnapshotFormat, image, origin);
  if (!payload.ok()) {
    return payload.status();
  }
  ByteReader in(payload.value(), origin);
  FedSnapshot snapshot;
  snapshot.submit_seq = in.U64();
  snapshot.ledger_hash = in.U64();
  const std::uint32_t cluster_count = in.U32();
  if (in.ok() && (cluster_count == 0 || cluster_count > kMaxClusters)) {
    in.Fail("implausible cluster count " + std::to_string(cluster_count));
  }
  if (in.Fits(cluster_count, kMinClusterBytes)) {
    snapshot.clusters.reserve(cluster_count);
  }
  for (std::uint32_t i = 0; i < cluster_count && in.ok(); ++i) {
    FedClusterImage cluster;
    cluster.name = in.Str();
    cluster.kind = in.U8();
    if (in.ok() && cluster.kind > 1) {
      in.Fail("unknown cluster kind " + std::to_string(cluster.kind));
    }
    cluster.image = in.Blob();
    snapshot.clusters.push_back(std::move(cluster));
  }
  const Status status = in.Finish();
  if (!status.ok()) {
    return status;
  }
  return snapshot;
}

StatusOr<FedSnapshot> LoadFedSnapshot(const std::string& path) {
  StatusOr<std::string> file = ReadFile(path);
  if (!file.ok()) {
    return file.status();
  }
  return DecodeFedSnapshot(file.value(), path);
}

StatusOr<LoadedFleet> LoadFleetSnapshot(const std::string& path) {
  StatusOr<FedSnapshot> file = LoadFedSnapshot(path);
  if (!file.ok()) {
    return file.status();
  }
  FedSnapshot& fed = file.value();
  LoadedFleet fleet;
  fleet.submit_seq = fed.submit_seq;
  fleet.ledger_hash = fed.ledger_hash;
  for (const FedClusterImage& cluster : fed.clusters) {
    fleet.clusters.push_back({cluster.name, static_cast<ClusterKind>(cluster.kind)});
  }
  if (Status valid = ValidateClusters(fleet.clusters); !valid.ok()) {
    return Status::InvalidArgument(valid.message() + " in " + path);
  }
  for (FedClusterImage& cluster : fed.clusters) {
    StatusOr<ServiceSnapshot> engine = DecodeSnapshot(
        cluster.image, path + " (cluster " + cluster.name + ")");
    if (!engine.ok()) {
      return engine.status();
    }
    std::string().swap(cluster.image);  // decoded: drop the bytes early
    fleet.engines.push_back(std::move(engine).value());
  }
  return fleet;
}

}  // namespace lyra::svc
