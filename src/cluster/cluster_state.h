// Mutable state of the combined training + inference GPU fleet.
//
// ClusterState owns every server and keeps a two-way index between jobs and
// the servers hosting their workers. All placement mutations go through this
// class so the job-side and server-side views can never diverge. It also
// implements the whitelist semantics of capacity loaning (§6): loaning moves
// a server from the inference pool to the on-loan pool (visible to the
// training scheduler), returning moves it back once it is idle.
//
// Capacity accounting is incremental: per-pool GPU totals, usage, and
// per-GPU-type free counts, the flexible-GPU total, sorted per-pool
// server-id lists, and the free-slot index (the up servers with a free GPU,
// bucketed by pool, GPU type, kind and free count) are maintained at every
// mutation point. All capacity queries are counter reads and pool listings
// return the maintained index — nothing on the query path scans the server
// vector.
// AuditInvariants() recomputes everything from scratch and is wired into the
// tests.
//
// What-if questions never mutate the live state: a read-only answer is a
// function of the placements (reclaim's collateral estimate), and anything
// that must run a mutating policy runs it on a Clone(). See DESIGN.md
// "What-if questions".
#ifndef SRC_CLUSTER_CLUSTER_STATE_H_
#define SRC_CLUSTER_CLUSTER_STATE_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace lyra {

// Job-side view: which servers host this job and how many GPUs on each,
// ascending by server id.
struct JobPlacement {
  SortedIdMap<ServerId, GpuShare> shares;
  // Mutation stamp: drawn from a cluster-wide counter at every change of
  // `shares`. Stamps never repeat, so a job whose stamp
  // is unchanged holds exactly the shares it held when the stamp was read.
  std::uint64_t stamp = 0;
  // Sum of the shares' flexible GPUs, kept by ClusterState at every change.
  int flexible_total = 0;

  // Worker-credit cache, owned by PlacedWorkers/PlacedFlexibleWorkers
  // (src/sched/elastic_util.cc): the rounded credits of these shares at
  // `credit_gpus_per_worker`, valid while `credit_stamp == stamp`. Stamps
  // start at 1, so a fresh placement's cache is never valid. A const read
  // may fill the cache, so one ClusterState is read from one thread at a time.
  mutable std::uint64_t credit_stamp = 0;
  mutable int credit_gpus_per_worker = 0;
  mutable int credit_workers = 0;
  mutable int credit_flexible_workers = 0;

  int total_gpus() const;
  int base_gpus() const;
  int flexible_gpus() const { return flexible_total; }
  int num_servers() const { return static_cast<int>(shares.size()); }
};

class ClusterState {
 public:
  ClusterState() = default;

  // Non-copyable: the state is large and holds identity; clone explicitly
  // via Clone() where what-if analysis needs a scratch copy.
  ClusterState(const ClusterState&) = delete;
  ClusterState& operator=(const ClusterState&) = delete;
  ClusterState(ClusterState&&) = default;
  ClusterState& operator=(ClusterState&&) = default;

  ClusterState Clone() const;

  // --- Topology -------------------------------------------------------------

  // Adds a server to the fleet.
  ServerId AddServer(GpuType gpu_type, int num_gpus, ServerPool pool);

  const Server& server(ServerId id) const;
  int num_servers() const { return static_cast<int>(servers_.size()); }
  const std::vector<Server>& servers() const { return servers_; }

  // Ids of the servers in the pool, ascending. Returns the maintained
  // membership index: O(1), no allocation. The reference is invalidated by
  // AddServer/LoanServer/ReturnServer — callers that move servers between
  // pools while iterating must copy first.
  const std::vector<ServerId>& ServersInPool(ServerPool pool) const {
    return pool_servers_[PoolIndex(pool)];
  }

  int NumServersInPool(ServerPool pool) const {
    return static_cast<int>(pool_servers_[PoolIndex(pool)].size());
  }

  // --- Free-slot index --------------------------------------------------------
  //
  // Every up server with a free GPU sits in exactly one bucket, keyed by its
  // pool, GPU type, kind and free-GPU count: the only servers placement can
  // still use. The best-fit placer (src/sched/placement_util.h) answers from
  // the buckets without listing a pool.

  // A server's kind: which demand it hosts. Bit 0 is HasBaseGpus, bit 1 is
  // HasFlexibleGpus, so kind 0 is an idle server.
  static constexpr int kNumServerKinds = 4;
  static int KindOf(const Server& srv) {
    return (srv.HasBaseGpus() ? 1 : 0) | (srv.HasFlexibleGpus() ? 2 : 0);
  }

  // Free counts are bits of a 64-bit mask, so a server has at most 63 GPUs.
  static constexpr int kMaxServerGpus = 63;

  // Bit f is set iff the bucket of free count f is non-empty.
  std::uint64_t FreeSlotMask(ServerPool pool, GpuType type, int kind) const {
    return free_slots_[SlotGroup(pool, type, kind)].mask;
  }

  // Ids of the up servers of the key with exactly `free` free GPUs
  // (1 <= free <= kMaxServerGpus), ascending. Invalidated by every mutation.
  const std::vector<ServerId>& FreeSlotBucket(ServerPool pool, GpuType type, int kind,
                                              int free) const {
    return free_slots_[SlotGroup(pool, type, kind)].by_free[static_cast<std::size_t>(free)];
  }

  // Servers visible to the training scheduler: the training pool plus the
  // on-loan pool (the training whitelist).
  std::vector<ServerId> TrainingVisibleServers() const;

  // --- Placement ------------------------------------------------------------

  // Places `gpus` GPUs of the job on the server. Requires free capacity.
  void Place(JobId job, ServerId server, int gpus, bool flexible);

  // Removes the job from every server it occupies (a preemption or a
  // completion). No-op if the job has no placement.
  void RemoveJob(JobId job);

  // Removes up to `gpus` flexible GPUs of the job from the given server;
  // returns the number removed.
  int RemoveFlexible(JobId job, ServerId server, int gpus);

  // Scales the job in to its base demand: removes all flexible GPUs from all
  // servers. Returns the total number of GPUs released.
  int RemoveAllFlexible(JobId job);

  // Null if the job currently occupies no server. One array read: the
  // placements are indexed by job id as well as held in placements().
  const JobPlacement* FindPlacement(JobId job) const {
    const auto index = static_cast<std::size_t>(job.value);
    return index < by_job_.size() ? by_job_[index] : nullptr;
  }

  // Number of distinct servers hosting the job (0 if not placed).
  int NumServersHosting(JobId job) const;

  const std::unordered_map<JobId, JobPlacement>& placements() const {
    return placements_;
  }

  // Changed-placement log, so a caller can find the placements that moved in
  // O(changes) instead of walking every placement. While armed, a job is
  // appended when its stamp moves or its placement is erased, unless it
  // already moved since the last ClearChanged (its stamp is past the clear's).
  // So each job is listed once per interval, except that one erased and
  // placed again is listed twice; readers dedupe and re-check FindPlacement.
  // Unarmed (the default, and in clones), nothing is kept.
  void ArmChangeLog() {
    log_changes_ = true;
    changed_floor_ = placement_stamp_;
  }
  const std::vector<JobId>& changed() const { return changed_; }
  void ClearChanged() {
    changed_.clear();
    changed_floor_ = placement_stamp_;
  }

  // --- Capacity loaning -----------------------------------------------------

  // Moves an inference server into the training whitelist.
  Status LoanServer(ServerId id);

  // Returns an on-loan server to the inference cluster. The server must be
  // idle: the orchestrator confirms no running workers before returning (§6).
  Status ReturnServer(ServerId id);

  // --- Health (fault model, DESIGN.md §7) -----------------------------------

  // Marks an idle server down (a crash): its capacity leaves the pool
  // counters and the membership index, so schedulers, the orchestrator, and
  // every capacity query stop seeing it. Callers vacate hosted jobs first.
  Status MarkServerDown(ServerId id);

  // Brings a down server back up; its capacity re-enters its pool.
  Status MarkServerUp(ServerId id);

  bool IsServerUp(ServerId id) const { return server(id).up(); }
  int NumServersDown() const { return servers_down_; }

  // --- Capacity queries -------------------------------------------------------
  //
  // All O(1) counter reads.

  int TotalGpus(ServerPool pool) const { return total_gpus_[PoolIndex(pool)]; }
  int UsedGpus(ServerPool pool) const { return used_gpus_[PoolIndex(pool)]; }
  int FreeGpus(ServerPool pool) const {
    return total_gpus_[PoolIndex(pool)] - used_gpus_[PoolIndex(pool)];
  }

  // GPUs held by flexible workers, over every pool.
  int FlexibleGpus() const { return flexible_gpus_; }

  // Physical free GPUs on training-visible servers.
  int TrainingSideFreeGpus() const;
  int TrainingSideUsedGpus() const;

  // --- Debug ----------------------------------------------------------------

  // Recomputes every maintained counter and index from the server vector and
  // cross-checks the job-side placement view against the server-side one.
  // LYRA_CHECK-aborts on any divergence. O(#servers + #placements); intended
  // for tests and debug builds, never for the hot path.
  void AuditInvariants() const;

 private:
  static constexpr int kNumPools = 3;
  static constexpr int kNumGpuTypes = 2;

  static constexpr int PoolIndex(ServerPool pool) {
    return static_cast<int>(pool);
  }
  static constexpr int TypeIndex(GpuType type) { return static_cast<int>(type); }

  Server& mutable_server(ServerId id);

  // Buckets of one (pool, GPU type, kind), indexed by free count.
  struct FreeSlotGroup {
    std::array<std::vector<ServerId>, kMaxServerGpus + 1> by_free;
    std::uint64_t mask = 0;  // bit f set iff by_free[f] is non-empty
  };

  static constexpr std::size_t SlotGroup(ServerPool pool, GpuType type, int kind) {
    return static_cast<std::size_t>((PoolIndex(pool) * kNumGpuTypes + TypeIndex(type)) *
                                        kNumServerKinds +
                                    kind);
  }

  // Adds (sign +1) or takes away (sign -1) a server's contribution to its
  // pool: the GPU counters and, with a free GPU, one free-slot bucket; a down
  // server contributes nothing. Every mutation of a server's pool, health or
  // usage is bracketed by -1 before it and +1 after it.
  void CountServer(const Server& srv, int sign);

  // Logs a change of the job's placement, whose stamp before the change is
  // `stamp` (0 for a new placement).
  void NoteChange(JobId job, std::uint64_t stamp) {
    if (log_changes_ && stamp <= changed_floor_) {
      changed_.push_back(job);
    }
  }

  // Moves an up server to another pool (loan/return).
  void MovePool(Server& srv, ServerPool to);

  // Erases a placement from the map and the index.
  void ErasePlacement(JobId job);

  std::vector<Server> servers_;
  // The one owner of the placements. Map nodes never move, so by_job_ (job
  // id -> its placement, null when unplaced) stays valid across rehashes;
  // job ids are dense (the simulator's are positions in its job list), so
  // the index costs one pointer per id.
  std::unordered_map<JobId, JobPlacement> placements_;
  std::vector<JobPlacement*> by_job_;
  bool log_changes_ = false;
  std::vector<JobId> changed_;
  // placement_stamp_ at the last ClearChanged: a job stamped past it is listed.
  std::uint64_t changed_floor_ = 0;

  // Incremental accounting (see class comment).
  std::array<int, kNumPools> total_gpus_{};
  std::array<int, kNumPools> used_gpus_{};
  int flexible_gpus_ = 0;
  std::array<std::vector<ServerId>, kNumPools> pool_servers_;
  std::array<FreeSlotGroup, kNumPools * kNumGpuTypes * kNumServerKinds> free_slots_;
  // Last JobPlacement::stamp handed out.
  std::uint64_t placement_stamp_ = 0;

  // Number of servers currently down (health, DESIGN.md §7).
  int servers_down_ = 0;
};

}  // namespace lyra

#endif  // SRC_CLUSTER_CLUSTER_STATE_H_
