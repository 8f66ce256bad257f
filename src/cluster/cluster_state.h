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
// per-GPU-type free counts, plus sorted per-pool server-id lists (all up
// servers, and the up servers with a free GPU), are maintained in O(1)
// (amortized) at every mutation point. All capacity
// queries are counter reads and pool listings return the maintained index —
// nothing on the query path scans the server vector. AuditInvariants()
// recomputes everything from scratch and is wired into the tests.
//
// Speculative what-if evaluation goes through ClusterTransaction: an RAII
// undo log that records the inverse of every placement/loan mutation and can
// Rollback() in O(ops applied) — per-pool counters and membership indices
// included — where Clone() would pay O(cluster size). See DESIGN.md
// "Speculative evaluation".
#ifndef SRC_CLUSTER_CLUSTER_STATE_H_
#define SRC_CLUSTER_CLUSTER_STATE_H_

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/cluster/server.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace lyra {

class ClusterTransaction;

// Job-side view: which servers host this job and how many GPUs on each.
struct JobPlacement {
  std::map<ServerId, GpuShare> shares;
  // Mutation stamp: drawn from a cluster-wide counter at every change of
  // `shares` (rollbacks included). Stamps never repeat, so a job whose stamp
  // is unchanged holds exactly the shares it held when the stamp was read.
  std::uint64_t stamp = 0;

  int total_gpus() const;
  int base_gpus() const;
  int flexible_gpus() const;
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

  // Adds a server to the fleet. Topology growth is not transactional: calling
  // this with an open ClusterTransaction is a programming error (what-if
  // evaluation speculates over placements and loans, never over hardware).
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

  // Ids of the pool's servers with at least one free GPU, ascending: the only
  // servers placement can still use (a subsequence of ServersInPool). O(1),
  // no allocation. Invalidated like ServersInPool and, additionally, by Place
  // and every removal.
  const std::vector<ServerId>& ServersWithFreeGpus(ServerPool pool) const {
    return free_servers_[PoolIndex(pool)];
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

  // Null if the job currently occupies no server.
  const JobPlacement* FindPlacement(JobId job) const;

  // Number of distinct servers hosting the job (0 if not placed).
  int NumServersHosting(JobId job) const;

  const std::unordered_map<JobId, JobPlacement>& placements() const {
    return placements_;
  }

  // New-placement log, so a caller can find what a scheduler launched in
  // O(launches) instead of walking every placement. While armed, each job
  // that goes from no placement to one is appended. The log is a superset:
  // a job whose placement is gone again (removed, rolled back) stays listed,
  // and one placed twice is listed twice, so readers re-check FindPlacement.
  // Unarmed (the default, and in clones), nothing is kept.
  void ArmNewPlacementLog() { log_new_placements_ = true; }
  const std::vector<JobId>& new_placements() const { return new_placements_; }
  void ClearNewPlacements() { new_placements_.clear(); }

  // --- Capacity loaning -----------------------------------------------------

  // Moves an inference server into the training whitelist.
  Status LoanServer(ServerId id);

  // Returns an on-loan server to the inference cluster. The server must be
  // idle: the orchestrator confirms no running workers before returning (§6).
  // While a transaction is open the idleness must also hold in the committed
  // state: a server emptied only by uncommitted (speculative) removals is
  // rejected, because the pending rollback would silently revert the return
  // after the caller already acted on its success.
  Status ReturnServer(ServerId id);

  // --- Health (fault model, DESIGN.md §7) -----------------------------------

  // Marks an idle server down (a crash): its capacity leaves the pool
  // counters and the membership index, so schedulers, the orchestrator, and
  // every capacity query stop seeing it. Callers vacate hosted jobs first.
  // Crashes are real events, never speculative: calling this with an open
  // transaction is a programming error.
  Status MarkServerDown(ServerId id);

  // Brings a down server back up; its capacity re-enters its pool.
  Status MarkServerUp(ServerId id);

  bool IsServerUp(ServerId id) const { return server(id).up(); }
  int NumServersDown() const { return servers_down_; }

  // Idleness judged against the committed state: share removals recorded in
  // the open transaction's undo log do not count. Equals Server::idle() when
  // no transaction is open.
  bool CommittedIdle(ServerId id) const;

  // --- Capacity queries -------------------------------------------------------
  //
  // All O(1) counter reads.

  int TotalGpus(ServerPool pool) const { return total_gpus_[PoolIndex(pool)]; }
  int UsedGpus(ServerPool pool) const { return used_gpus_[PoolIndex(pool)]; }
  int FreeGpus(ServerPool pool) const {
    return total_gpus_[PoolIndex(pool)] - used_gpus_[PoolIndex(pool)];
  }

  // Physical free GPUs on training-visible servers.
  int TrainingSideFreeGpus() const;
  int TrainingSideTotalGpus() const;
  int TrainingSideUsedGpus() const;

  // Free capacity on training-visible servers in training-GPU units: on-loan
  // inference GPUs count at their normalization factor (§5.2).
  double TrainingSideFreeNormalized() const;

  // --- Transactions ---------------------------------------------------------

  // True while at least one ClusterTransaction is open on this state.
  bool InTransaction() const { return txn_depth_ > 0; }

  // Undo entries recorded since the outermost open transaction began.
  std::size_t UndoLogSize() const { return undo_log_.size(); }

  // --- Debug ----------------------------------------------------------------

  // Recomputes every maintained counter and index from the server vector and
  // cross-checks the job-side placement view against the server-side one.
  // LYRA_CHECK-aborts on any divergence. O(#servers + #placements); intended
  // for tests and debug builds, never for the hot path.
  void AuditInvariants() const;

 private:
  friend class ClusterTransaction;

  static constexpr int kNumPools = 3;
  static constexpr int kNumGpuTypes = 2;

  static constexpr int PoolIndex(ServerPool pool) {
    return static_cast<int>(pool);
  }
  static constexpr int TypeIndex(GpuType type) { return static_cast<int>(type); }

  Server& mutable_server(ServerId id);

  // Membership index maintenance: ids are kept ascending per pool, in both
  // the all-servers and the free-servers index. A server is in its pool's
  // free index iff it is up and has a free GPU.
  void PoolInsert(ServerPool pool, ServerId id, bool has_free);
  void PoolErase(ServerPool pool, ServerId id, bool has_free);

  // Moves the counter contribution of a server between pools (loan/return).
  void MoveServerCounters(const Server& srv, ServerPool from, ServerPool to);

  // Adjusts used/free counters and the free-server index for `gpus` placed
  // (positive) or removed (negative) on the server, after the server-side
  // mutation.
  void AccountUsage(const Server& srv, int gpus);

  // One recorded inverse operation. kShareDelta re-applies a (base, flexible)
  // GPU delta of a job on a server; kSetPool moves a server back to `pool`.
  // Applying the log in reverse order restores the pre-transaction state,
  // counters and pool indices included.
  struct UndoEntry {
    enum class Kind : unsigned char { kShareDelta, kSetPool };
    Kind kind = Kind::kShareDelta;
    ServerPool pool = ServerPool::kTraining;  // kSetPool: pool to restore
    JobId job;
    ServerId server;
    int base_delta = 0;
    int flexible_delta = 0;
  };

  // Logging hooks called by the mutators while a transaction is open.
  void RecordShareDelta(JobId job, ServerId server, int base_delta,
                        int flexible_delta);
  void RecordSetPool(ServerId server, ServerPool pool);

  // The job's placement, created empty (and logged when the new-placement
  // log is armed) if it has none.
  JobPlacement& PlacementOf(JobId job);

  // Applies a share delta to the server-side and job-side views plus the
  // usage counters, creating/erasing map entries as shares cross zero. The
  // non-logging primitive behind rollback.
  void ApplyShareDelta(JobId job, ServerId server, int base_delta,
                       int flexible_delta);

  // Replays (and pops) the undo log down to `mark`, newest entry first.
  void RollbackTo(std::size_t mark);

  std::vector<Server> servers_;
  std::unordered_map<JobId, JobPlacement> placements_;
  bool log_new_placements_ = false;
  std::vector<JobId> new_placements_;

  // Incremental accounting (see class comment).
  std::array<int, kNumPools> total_gpus_{};
  std::array<int, kNumPools> used_gpus_{};
  std::array<std::array<int, kNumGpuTypes>, kNumPools> free_gpus_by_type_{};
  std::array<std::vector<ServerId>, kNumPools> pool_servers_;
  std::array<std::vector<ServerId>, kNumPools> free_servers_;
  // Last JobPlacement::stamp handed out.
  std::uint64_t placement_stamp_ = 0;

  // Number of servers currently down (health, DESIGN.md §7).
  int servers_down_ = 0;

  // Transaction support. The log holds inverse ops for every mutation since
  // the outermost transaction opened; nested transactions mark positions in
  // it. Never cloned: a Clone() starts with a clean (committed) state.
  std::vector<UndoEntry> undo_log_;
  int txn_depth_ = 0;
};

// RAII undo-log transaction over a ClusterState (the cheap alternative to
// Clone() for what-if evaluation, §4/§5 speculative searches).
//
//   ClusterTransaction txn(cluster);
//   ... Place / RemoveJob / RemoveFlexible / LoanServer / ReturnServer ...
//   txn.Rollback();   // or txn.Commit(); destructor rolls back if neither ran
//
// Rollback restores the exact pre-transaction state — placements, per-pool
// counters, membership indices — in O(operations applied). Transactions nest
// LIFO: an inner transaction may roll back its own suffix of the log while
// the outer one can still roll back everything (an inner Commit only
// surrenders the inner rollback point). The ClusterState must outlive the
// transaction and must not be moved while one is open.
class ClusterTransaction {
 public:
  explicit ClusterTransaction(ClusterState& cluster);
  ~ClusterTransaction();

  ClusterTransaction(const ClusterTransaction&) = delete;
  ClusterTransaction& operator=(const ClusterTransaction&) = delete;

  // Undoes every mutation applied since this transaction opened and closes
  // it. O(ops). Must be the innermost open transaction.
  void Rollback();

  // Keeps the mutations and closes this transaction. O(ops) for the
  // outermost transaction (the log is discarded), O(1) for nested ones.
  void Commit();

  bool open() const { return open_; }

  // Mutations recorded since this transaction opened (still rollback-able).
  std::size_t ops() const;

 private:
  ClusterState* cluster_;
  std::size_t mark_;  // undo-log size when this transaction opened
  int depth_;         // nesting depth, 1 = outermost; enforces LIFO close
  bool open_ = true;
};

}  // namespace lyra

#endif  // SRC_CLUSTER_CLUSTER_STATE_H_
