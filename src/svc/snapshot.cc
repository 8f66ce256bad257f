#include "src/svc/snapshot.h"

#include <string_view>
#include <utility>

namespace lyra::svc {
namespace {

// Smallest encodings, used to bound counts read from a payload.
constexpr std::size_t kMinCommandBytes = 1 + 8;  // kind + stamp
constexpr std::size_t kMinLoanBytes = 8 + 4 + 4 + 8 + 8;

void PutConfig(ByteWriter& out, const EngineConfig& config) {
  out.Str(config.scheduler);
  out.Str(config.reclaim);
  out.Str(config.policy_weights);
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
  config.policy_weights = in.Str();
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

Status SaveSnapshot(const ServiceSnapshot& snapshot, const std::string& path) {
  return WriteFileAtomic(path, EncodeSnapshot(snapshot));
}

StatusOr<ServiceSnapshot> LoadSnapshot(const std::string& path) {
  StatusOr<std::string> file = ReadFile(path);
  if (!file.ok()) {
    return file.status();
  }
  return DecodeSnapshot(file.value(), path);
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

std::string EncodeMultiSnapshot(const MultiSnapshot& snapshot) {
  if (snapshot.shard_images.size() == 1) {
    // Bit-compatible with the unsharded service: one shard writes the plain
    // LYRASNAP image, so existing tooling keeps working on shards=1 files.
    return snapshot.shard_images.front();
  }
  ByteWriter payload;
  payload.U32(static_cast<std::uint32_t>(snapshot.shard_images.size()));
  payload.U64(snapshot.submit_seq);
  for (const std::string& image : snapshot.shard_images) {
    payload.Blob(image);
  }
  return Seal(kMultiSnapshotFormat, payload.bytes());
}

Status SaveMultiSnapshot(const MultiSnapshot& snapshot,
                         const std::string& path) {
  if (snapshot.shard_images.empty()) {
    return Status::InvalidArgument("multi-snapshot has no shards");
  }
  return WriteFileAtomic(path, EncodeMultiSnapshot(snapshot));
}

StatusOr<MultiSnapshot> DecodeMultiSnapshot(const std::string& image,
                                            const std::string& origin) {
  // A plain LYRASNAP image is a valid one-shard snapshot: the sequence number
  // never influenced routing at one shard, so 0 is exact, not a guess.
  if (HasMagic(kSnapshotFormat, image)) {
    MultiSnapshot snapshot;
    snapshot.shard_images.push_back(image);
    return snapshot;
  }
  StatusOr<std::string_view> payload = Open(kMultiSnapshotFormat, image, origin);
  if (!payload.ok()) {
    return payload.status();
  }
  ByteReader in(payload.value(), origin);
  MultiSnapshot snapshot;
  const std::uint32_t shard_count = in.U32();
  if (in.ok() && (shard_count == 0 || shard_count > 4096)) {
    in.Fail("implausible shard count " + std::to_string(shard_count));
  }
  snapshot.submit_seq = in.U64();
  for (std::uint32_t i = 0; i < shard_count && in.ok(); ++i) {
    snapshot.shard_images.push_back(in.Blob());
  }
  const Status status = in.Finish();
  if (!status.ok()) {
    return status;
  }
  return snapshot;
}

StatusOr<MultiSnapshot> LoadMultiSnapshot(const std::string& path) {
  StatusOr<std::string> file = ReadFile(path);
  if (!file.ok()) {
    return file.status();
  }
  return DecodeMultiSnapshot(file.value(), path);
}

std::string EncodeFedSnapshot(const FedSnapshot& snapshot) {
  ByteWriter payload;
  payload.U64(snapshot.submit_seq);
  payload.U64(snapshot.ledger.next_loan_id);
  payload.U64(snapshot.ledger.total_granted);
  payload.U64(snapshot.ledger.total_reclaimed);
  payload.U64(snapshot.ledger.total_returned);
  payload.U64(snapshot.ledger.ledger_hash);
  payload.U32(static_cast<std::uint32_t>(snapshot.ledger.loans.size()));
  for (const FedLoan& loan : snapshot.ledger.loans) {
    payload.U64(loan.id);
    payload.U32(loan.lender);
    payload.U32(loan.borrower);
    payload.I64(loan.gpus);
    payload.F64(loan.granted_at);
  }
  payload.U32(static_cast<std::uint32_t>(snapshot.clusters.size()));
  for (const FedClusterImage& cluster : snapshot.clusters) {
    payload.Str(cluster.name);
    payload.U8(cluster.kind);
    payload.I64(cluster.loan_priority);
    payload.U32(cluster.shards);
    payload.Blob(cluster.image);
  }
  return Seal(kFedSnapshotFormat, payload.bytes());
}

Status SaveFedSnapshot(const FedSnapshot& snapshot, const std::string& path) {
  if (snapshot.clusters.empty()) {
    return Status::InvalidArgument("federation snapshot has no clusters");
  }
  return WriteFileAtomic(path, EncodeFedSnapshot(snapshot));
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
  snapshot.ledger.next_loan_id = in.U64();
  snapshot.ledger.total_granted = in.U64();
  snapshot.ledger.total_reclaimed = in.U64();
  snapshot.ledger.total_returned = in.U64();
  snapshot.ledger.ledger_hash = in.U64();
  const std::uint32_t loan_count = in.U32();
  if (in.Fits(loan_count, kMinLoanBytes)) {
    snapshot.ledger.loans.reserve(loan_count);
  }
  for (std::uint32_t i = 0; i < loan_count && in.ok(); ++i) {
    FedLoan loan;
    loan.id = in.U64();
    loan.lender = in.U32();
    loan.borrower = in.U32();
    loan.gpus = in.I64();
    loan.granted_at = in.F64();
    snapshot.ledger.loans.push_back(loan);
  }
  const std::uint32_t cluster_count = in.U32();
  if (in.ok() && (cluster_count == 0 || cluster_count > 256)) {
    in.Fail("implausible cluster count " + std::to_string(cluster_count));
  }
  for (std::uint32_t i = 0; i < cluster_count && in.ok(); ++i) {
    FedClusterImage cluster;
    cluster.name = in.Str();
    cluster.kind = in.U8();
    cluster.loan_priority = in.I64();
    cluster.shards = in.U32();
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

}  // namespace lyra::svc
