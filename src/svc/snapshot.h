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
// File layout: the shared checksummed envelope (src/common/codec.h) with
// magic "LYRASNAP"; the payload is the EngineConfig, the command count, the
// commands, and the horizon.
//
// This file only encodes and decodes. An engine encodes its image in memory;
// the router writes the one snapshot file, a plain LYRASNAP image at one
// engine and a LYRAFED container otherwise (federation.h).
#ifndef SRC_SVC_SNAPSHOT_H_
#define SRC_SVC_SNAPSHOT_H_

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

// InvalidArgument on bad magic or an unsupported version, DataLoss on a
// truncated file or checksum mismatch.
StatusOr<ServiceSnapshot> LoadSnapshot(const std::string& path);

// String-level codec for the exact LYRASNAP file image (magic + version +
// payload + checksum); LoadSnapshot == file read + DecodeSnapshot. The fleet
// container below carries each engine's image byte-for-byte, and tests
// round-trip snapshots without touching the filesystem. `origin` only
// flavors error messages (a path or a "shard k" tag).
std::string EncodeSnapshot(const ServiceSnapshot& snapshot);
StatusOr<ServiceSnapshot> DecodeSnapshot(const std::string& image,
                                         const std::string& origin);

// Fleet snapshot container (DESIGN.md §10), written by every fleet of more
// than one cluster. It holds each cluster's engine's complete LYRASNAP
// image, stored byte-identically (the bytes that engine writes as a
// one-engine snapshot), plus the front end's submit-routing sequence number
// and the migration ledger's rolling hash, so a restart resumes routing and
// the ledger's hash chain exactly where the killed process was.
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
  std::string image;      // the cluster's engine's LYRASNAP file image
};

struct FedSnapshot {
  std::uint64_t submit_seq = 0;
  std::uint64_t ledger_hash = 0;  // rolling FNV-1a of the migration ledger
  std::vector<FedClusterImage> clusters;
};

// InvalidArgument on bad magic or another version, DataLoss on a truncated
// file, checksum mismatch or a payload that breaks the layout.
StatusOr<FedSnapshot> LoadFedSnapshot(const std::string& path);
std::string EncodeFedSnapshot(const FedSnapshot& snapshot);
StatusOr<FedSnapshot> DecodeFedSnapshot(const std::string& image,
                                        const std::string& origin);

}  // namespace lyra::svc

#endif  // SRC_SVC_SNAPSHOT_H_
