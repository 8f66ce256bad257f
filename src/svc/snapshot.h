// Versioned binary snapshot of the online scheduler service (DESIGN.md §8).
//
// A snapshot is *logical*, not a memory image: it stores the EngineConfig and
// the ordered log of mutating commands (submit / cancel / advance / drain),
// each stamped with the virtual time it was applied at, plus the engine's
// position (horizon) when the snapshot was taken. Restore rebuilds the engine
// from the config and replays the log through the one step-and-mutate the
// live service applies every command with (StepUntil(stamp), then submit or
// cancel) — the exact discipline the live service uses — then steps to the
// horizon. Because the engine is seed-deterministic and StepUntil chunk
// boundaries never change behaviour, the restored service's decision log
// and fault-log hash are byte-identical to an uninterrupted run's
// (ctest-enforced).
//
// One snapshot file at every fleet size: the LYRAFED container below, with
// one cluster per engine. An engine's LYRASNAP image (the shared checksummed
// envelope of src/common/codec.h around the EngineConfig, the command count,
// the commands, and the horizon) lives only inside it; a bare LYRASNAP file
// is refused. An engine encodes its image in memory and the router writes
// the file (federation.h); both restore entry points read it through
// LoadFleetSnapshot, which checks the whole file before any engine starts.
#ifndef SRC_SVC_SNAPSHOT_H_
#define SRC_SVC_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/status.h"
#include "src/svc/registry.h"
#include "src/workload/job.h"

namespace lyra::svc {

// v3 dropped the config's weights-file path, so the engine a restore builds
// depends only on the snapshot's bytes. Decoding is strict: any other version
// is rejected, not migrated.
inline constexpr EnvelopeFormat kSnapshotFormat{"LYRASNAP", 3};

enum class CommandKind : std::uint8_t {
  kSubmit = 1,
  kCancel = 2,
  kAdvance = 3,  // explicit StepUntil(stamp)
  kDrain = 4,    // run to quiescence
};

const char* CommandKindName(CommandKind kind);

// One mutating command, as replayed on restore. `stamp` is the virtual time
// the command was applied at (the engine steps to it before re-applying).
struct LoggedCommand {
  CommandKind kind = CommandKind::kSubmit;
  TimeSec stamp = 0.0;
  JobSpec spec;            // kSubmit only (id is reassigned on replay)
  std::int64_t job = -1;   // kCancel only

  friend bool operator==(const LoggedCommand&, const LoggedCommand&) = default;
};

struct ServiceSnapshot {
  EngineConfig config;
  std::vector<LoggedCommand> commands;
  // Engine position when the snapshot was taken; restore steps here after
  // the replay so the service resumes exactly where it left off. +inf for
  // an engine past its end of time, so the restore passes the end too.
  TimeSec horizon = 0.0;
};

// Codec for one engine's LYRASNAP image (magic + version + payload +
// checksum), the bytes the fleet container carries per cluster. Decoding is
// InvalidArgument on bad magic or an unsupported version, DataLoss on a
// truncated image or checksum mismatch. `origin` only flavors error
// messages (a path and a cluster name).
std::string EncodeSnapshot(const ServiceSnapshot& snapshot);
StatusOr<ServiceSnapshot> DecodeSnapshot(const std::string& image,
                                         const std::string& origin);

enum class ClusterKind : std::uint8_t { kInference = 0, kTraining = 1 };

const char* ClusterKindName(ClusterKind kind);

struct ClusterSpec {
  std::string name;  // [A-Za-z0-9_.-]+, unique within the fleet
  ClusterKind kind = ClusterKind::kTraining;
};

inline constexpr std::size_t kMaxClusters = 64;

// The one rule for a fleet's cluster list, from a spec, a build or a
// snapshot file: 1 to kMaxClusters clusters, each name matching
// [A-Za-z0-9_.-]+, no name twice. InvalidArgument otherwise.
Status ValidateClusters(const std::vector<ClusterSpec>& clusters);

// The snapshot file (DESIGN.md §10), written by every fleet, one cluster
// included. It holds each cluster's name, kind and engine's complete
// LYRASNAP image, plus the front end's submit-routing sequence number and
// the migration ledger's rolling hash, so a restart resumes every cluster's
// identity, routing and the ledger's hash chain exactly where the killed
// process was.
//
// File layout (version 4): the shared envelope with magic "LYRAFED_"; the
// payload is u64 submit_seq, u64 ledger_hash, u32 cluster count (1..64),
// then per cluster its name, u8 kind and one u64-framed LYRASNAP image.
// Decoding is strict, as for LYRASNAP: any other version is rejected, not
// migrated.
inline constexpr EnvelopeFormat kFedSnapshotFormat{"LYRAFED_", 4};

struct FedClusterImage {
  std::string name;
  std::uint8_t kind = 0;  // ClusterKind as a byte (0 inference, 1 training)
  std::string image;      // the cluster's engine's LYRASNAP image
};

struct FedSnapshot {
  std::uint64_t submit_seq = 0;
  std::uint64_t ledger_hash = 0;  // rolling FNV-1a of the migration ledger
  std::vector<FedClusterImage> clusters;
};

// The container's grammar only: InvalidArgument on bad magic or another
// version, DataLoss on a truncated file, checksum mismatch or a payload that
// breaks the layout. The cluster images stay encoded.
StatusOr<FedSnapshot> LoadFedSnapshot(const std::string& path);
std::string EncodeFedSnapshot(const FedSnapshot& snapshot);
StatusOr<FedSnapshot> DecodeFedSnapshot(const std::string& image,
                                        const std::string& origin);

// A snapshot file as a restore reads it: cluster k's spec and the decoded
// image engine k restores.
struct LoadedFleet {
  std::uint64_t submit_seq = 0;
  std::uint64_t ledger_hash = 0;
  std::vector<ClusterSpec> clusters;
  std::vector<ServiceSnapshot> engines;
};

// The one snapshot loader, for RestoreFederation and
// SchedulerService::Restore: reads the LYRAFED container, checks its
// cluster list with ValidateClusters, then decodes every cluster's image,
// so a bad file is refused whole before any engine is built. Errors are
// those of LoadFedSnapshot, ValidateClusters and DecodeSnapshot; a bare
// LYRASNAP file is InvalidArgument.
StatusOr<LoadedFleet> LoadFleetSnapshot(const std::string& path);

}  // namespace lyra::svc

#endif  // SRC_SVC_SNAPSHOT_H_
