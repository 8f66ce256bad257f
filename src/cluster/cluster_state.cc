#include "src/cluster/cluster_state.h"

#include <algorithm>

namespace lyra {

int JobPlacement::total_gpus() const {
  int total = 0;
  for (const auto& [server, share] : shares) {
    total += share.total();
  }
  return total;
}

int JobPlacement::base_gpus() const {
  int total = 0;
  for (const auto& [server, share] : shares) {
    total += share.base_gpus;
  }
  return total;
}

int JobPlacement::flexible_gpus() const {
  int total = 0;
  for (const auto& [server, share] : shares) {
    total += share.flexible_gpus;
  }
  return total;
}

ClusterState ClusterState::Clone() const {
  ClusterState copy;
  copy.servers_ = servers_;
  copy.placements_ = placements_;
  copy.total_gpus_ = total_gpus_;
  copy.used_gpus_ = used_gpus_;
  copy.free_gpus_by_type_ = free_gpus_by_type_;
  copy.pool_servers_ = pool_servers_;
  copy.free_servers_ = free_servers_;
  copy.placement_stamp_ = placement_stamp_;
  copy.servers_down_ = servers_down_;
  return copy;
}

ServerId ClusterState::AddServer(GpuType gpu_type, int num_gpus, ServerPool pool) {
  LYRA_CHECK(txn_depth_ == 0);  // topology growth is not transactional
  const ServerId id(static_cast<std::int64_t>(servers_.size()));
  servers_.emplace_back(id, gpu_type, num_gpus, pool);
  total_gpus_[PoolIndex(pool)] += num_gpus;
  free_gpus_by_type_[PoolIndex(pool)][TypeIndex(gpu_type)] += num_gpus;
  PoolInsert(pool, id, num_gpus > 0);
  return id;
}

const Server& ClusterState::server(ServerId id) const {
  LYRA_CHECK(id.valid());
  LYRA_CHECK_LT(static_cast<std::size_t>(id.value), servers_.size());
  return servers_[static_cast<std::size_t>(id.value)];
}

Server& ClusterState::mutable_server(ServerId id) {
  return const_cast<Server&>(static_cast<const ClusterState*>(this)->server(id));
}

namespace {

void SortedInsert(std::vector<ServerId>& members, ServerId id) {
  // Ids are almost always appended in order; fall back to a sorted insert for
  // servers re-entering a list (loan/return, freed capacity).
  if (members.empty() || members.back() < id) {
    members.push_back(id);
    return;
  }
  members.insert(std::lower_bound(members.begin(), members.end(), id), id);
}

void SortedErase(std::vector<ServerId>& members, ServerId id) {
  auto it = std::lower_bound(members.begin(), members.end(), id);
  LYRA_CHECK(it != members.end() && *it == id);
  members.erase(it);
}

}  // namespace

void ClusterState::PoolInsert(ServerPool pool, ServerId id, bool has_free) {
  SortedInsert(pool_servers_[PoolIndex(pool)], id);
  if (has_free) {
    SortedInsert(free_servers_[PoolIndex(pool)], id);
  }
}

void ClusterState::PoolErase(ServerPool pool, ServerId id, bool has_free) {
  SortedErase(pool_servers_[PoolIndex(pool)], id);
  if (has_free) {
    SortedErase(free_servers_[PoolIndex(pool)], id);
  }
}

void ClusterState::MoveServerCounters(const Server& srv, ServerPool from,
                                      ServerPool to) {
  const int type = TypeIndex(srv.gpu_type());
  total_gpus_[PoolIndex(from)] -= srv.num_gpus();
  total_gpus_[PoolIndex(to)] += srv.num_gpus();
  used_gpus_[PoolIndex(from)] -= srv.used_gpus();
  used_gpus_[PoolIndex(to)] += srv.used_gpus();
  free_gpus_by_type_[PoolIndex(from)][type] -= srv.free_gpus();
  free_gpus_by_type_[PoolIndex(to)][type] += srv.free_gpus();
  PoolErase(from, srv.id(), srv.free_gpus() > 0);
  PoolInsert(to, srv.id(), srv.free_gpus() > 0);
}

void ClusterState::AccountUsage(const Server& srv, int gpus) {
  const int pool = PoolIndex(srv.pool());
  used_gpus_[pool] += gpus;
  free_gpus_by_type_[pool][TypeIndex(srv.gpu_type())] -= gpus;
  const bool had_free = srv.free_gpus() + gpus > 0;
  const bool has_free = srv.free_gpus() > 0;
  if (had_free != has_free) {
    if (has_free) {
      SortedInsert(free_servers_[pool], srv.id());
    } else {
      SortedErase(free_servers_[pool], srv.id());
    }
  }
}

std::vector<ServerId> ClusterState::TrainingVisibleServers() const {
  // Training servers are created before any server is loaned, so the
  // concatenation preserves ascending-id order in practice.
  std::vector<ServerId> out = pool_servers_[PoolIndex(ServerPool::kTraining)];
  const std::vector<ServerId>& loaned = pool_servers_[PoolIndex(ServerPool::kOnLoan)];
  out.insert(out.end(), loaned.begin(), loaned.end());
  return out;
}

void ClusterState::Place(JobId job, ServerId server_id, int gpus, bool flexible) {
  Server& srv = mutable_server(server_id);
  LYRA_CHECK(srv.up());  // down servers are invisible to placement
  srv.Place(job, gpus, flexible);
  AccountUsage(srv, gpus);
  JobPlacement& placement = PlacementOf(job);
  placement.stamp = ++placement_stamp_;
  GpuShare& share = placement.shares[server_id];
  if (flexible) {
    share.flexible_gpus += gpus;
  } else {
    share.base_gpus += gpus;
  }
  if (txn_depth_ > 0) {
    RecordShareDelta(job, server_id, flexible ? 0 : -gpus, flexible ? -gpus : 0);
  }
}

void ClusterState::RemoveJob(JobId job) {
  auto it = placements_.find(job);
  if (it == placements_.end()) {
    return;
  }
  for (const auto& [server_id, share] : it->second.shares) {
    Server& srv = mutable_server(server_id);
    srv.RemoveJob(job);
    AccountUsage(srv, -share.total());
    if (txn_depth_ > 0) {
      RecordShareDelta(job, server_id, share.base_gpus, share.flexible_gpus);
    }
  }
  placements_.erase(it);
}

int ClusterState::RemoveFlexible(JobId job, ServerId server_id, int gpus) {
  auto it = placements_.find(job);
  if (it == placements_.end()) {
    return 0;
  }
  auto share_it = it->second.shares.find(server_id);
  if (share_it == it->second.shares.end()) {
    return 0;
  }
  Server& srv = mutable_server(server_id);
  const int removed = srv.RemoveFlexible(job, gpus);
  AccountUsage(srv, -removed);
  share_it->second.flexible_gpus -= removed;
  LYRA_CHECK_GE(share_it->second.flexible_gpus, 0);
  if (share_it->second.total() == 0) {
    it->second.shares.erase(share_it);
  }
  if (it->second.shares.empty()) {
    placements_.erase(it);
  } else if (removed > 0) {
    it->second.stamp = ++placement_stamp_;
  }
  if (txn_depth_ > 0 && removed > 0) {
    RecordShareDelta(job, server_id, 0, removed);
  }
  return removed;
}

int ClusterState::RemoveAllFlexible(JobId job) {
  auto it = placements_.find(job);
  if (it == placements_.end()) {
    return 0;
  }
  // Collect first: RemoveFlexible mutates the share map we are iterating.
  std::vector<std::pair<ServerId, int>> flex;
  for (const auto& [server_id, share] : it->second.shares) {
    if (share.flexible_gpus > 0) {
      flex.emplace_back(server_id, share.flexible_gpus);
    }
  }
  int released = 0;
  for (const auto& [server_id, gpus] : flex) {
    released += RemoveFlexible(job, server_id, gpus);
  }
  return released;
}

const JobPlacement* ClusterState::FindPlacement(JobId job) const {
  auto it = placements_.find(job);
  return it == placements_.end() ? nullptr : &it->second;
}

int ClusterState::NumServersHosting(JobId job) const {
  const JobPlacement* placement = FindPlacement(job);
  return placement == nullptr ? 0 : placement->num_servers();
}

Status ClusterState::LoanServer(ServerId id) {
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is down");
  }
  if (srv.pool() != ServerPool::kInference) {
    return Status::FailedPrecondition("server is not in the inference pool");
  }
  srv.set_pool(ServerPool::kOnLoan);
  MoveServerCounters(srv, ServerPool::kInference, ServerPool::kOnLoan);
  if (txn_depth_ > 0) {
    RecordSetPool(id, ServerPool::kInference);
  }
  return Status::Ok();
}

Status ClusterState::ReturnServer(ServerId id) {
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is down");
  }
  if (srv.pool() != ServerPool::kOnLoan) {
    return Status::FailedPrecondition("server is not on loan");
  }
  if (!srv.idle()) {
    return Status::FailedPrecondition("server still has running workers");
  }
  if (txn_depth_ > 0 && !CommittedIdle(id)) {
    // The server looks idle only because an open transaction speculatively
    // removed its workers. A return based on that would be silently reverted
    // by the rollback while the caller keeps believing it succeeded.
    return Status::FailedPrecondition(
        "server idleness is speculative under an open transaction");
  }
  srv.set_pool(ServerPool::kInference);
  MoveServerCounters(srv, ServerPool::kOnLoan, ServerPool::kInference);
  if (txn_depth_ > 0) {
    RecordSetPool(id, ServerPool::kOnLoan);
  }
  return Status::Ok();
}

Status ClusterState::MarkServerDown(ServerId id) {
  LYRA_CHECK(txn_depth_ == 0);  // crashes are real, never speculative
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is already down");
  }
  if (!srv.idle()) {
    return Status::FailedPrecondition("server still has running workers");
  }
  const int pool = PoolIndex(srv.pool());
  total_gpus_[pool] -= srv.num_gpus();
  free_gpus_by_type_[pool][TypeIndex(srv.gpu_type())] -= srv.num_gpus();
  PoolErase(srv.pool(), id, srv.free_gpus() > 0);
  srv.set_up(false);
  ++servers_down_;
  return Status::Ok();
}

Status ClusterState::MarkServerUp(ServerId id) {
  LYRA_CHECK(txn_depth_ == 0);
  Server& srv = mutable_server(id);
  if (srv.up()) {
    return Status::FailedPrecondition("server is already up");
  }
  LYRA_CHECK(srv.idle());  // nothing can be placed on a down server
  const int pool = PoolIndex(srv.pool());
  total_gpus_[pool] += srv.num_gpus();
  free_gpus_by_type_[pool][TypeIndex(srv.gpu_type())] += srv.num_gpus();
  PoolInsert(srv.pool(), id, srv.free_gpus() > 0);
  srv.set_up(true);
  --servers_down_;
  return Status::Ok();
}

bool ClusterState::CommittedIdle(ServerId id) const {
  // Undo entries hold the inverse delta of each applied mutation; summing
  // them onto the current usage reconstructs the committed usage without
  // replaying the log.
  int used = server(id).used_gpus();
  for (const UndoEntry& entry : undo_log_) {
    if (entry.kind == UndoEntry::Kind::kShareDelta && entry.server == id) {
      used += entry.base_delta + entry.flexible_delta;
    }
  }
  return used == 0;
}

int ClusterState::TrainingSideFreeGpus() const {
  return FreeGpus(ServerPool::kTraining) + FreeGpus(ServerPool::kOnLoan);
}

int ClusterState::TrainingSideTotalGpus() const {
  return TotalGpus(ServerPool::kTraining) + TotalGpus(ServerPool::kOnLoan);
}

int ClusterState::TrainingSideUsedGpus() const {
  return UsedGpus(ServerPool::kTraining) + UsedGpus(ServerPool::kOnLoan);
}

double ClusterState::TrainingSideFreeNormalized() const {
  double total = 0.0;
  for (ServerPool pool : {ServerPool::kTraining, ServerPool::kOnLoan}) {
    for (int type = 0; type < kNumGpuTypes; ++type) {
      total += free_gpus_by_type_[PoolIndex(pool)][type] *
               GpuComputeFactor(static_cast<GpuType>(type));
    }
  }
  return total;
}

void ClusterState::AuditInvariants() const {
  std::array<int, kNumPools> total{};
  std::array<int, kNumPools> used{};
  std::array<std::array<int, kNumGpuTypes>, kNumPools> free_by_type{};
  std::array<std::vector<ServerId>, kNumPools> members;
  std::array<std::vector<ServerId>, kNumPools> free_members;

  int down = 0;
  for (const Server& srv : servers_) {
    if (!srv.up()) {
      // A down server is excluded from every counter and membership list and
      // must have been vacated before it crashed.
      LYRA_CHECK(srv.idle());
      LYRA_CHECK(srv.jobs().empty());
      ++down;
      continue;
    }
    const int pool = PoolIndex(srv.pool());
    total[pool] += srv.num_gpus();
    used[pool] += srv.used_gpus();
    free_by_type[pool][TypeIndex(srv.gpu_type())] += srv.free_gpus();
    members[pool].push_back(srv.id());
    if (srv.free_gpus() > 0) {
      free_members[pool].push_back(srv.id());
    }

    // Server-side per-job shares must sum to the server's used count and be
    // mirrored exactly in the job-side placement map.
    int server_used = 0;
    for (const auto& [job, share] : srv.jobs()) {
      LYRA_CHECK_GE(share.base_gpus, 0);
      LYRA_CHECK_GE(share.flexible_gpus, 0);
      LYRA_CHECK_GT(share.total(), 0);
      server_used += share.total();
      auto it = placements_.find(job);
      LYRA_CHECK(it != placements_.end());
      auto share_it = it->second.shares.find(srv.id());
      LYRA_CHECK(share_it != it->second.shares.end());
      LYRA_CHECK_EQ(share_it->second.base_gpus, share.base_gpus);
      LYRA_CHECK_EQ(share_it->second.flexible_gpus, share.flexible_gpus);
    }
    LYRA_CHECK_EQ(server_used, srv.used_gpus());
    LYRA_CHECK_LE(srv.used_gpus(), srv.num_gpus());
  }

  // Job-side shares must all exist on the server side (with the mirror check
  // above, the two views are then identical).
  for (const auto& [job, placement] : placements_) {
    LYRA_CHECK(!placement.shares.empty());
    for (const auto& [server_id, share] : placement.shares) {
      const Server& srv = server(server_id);
      auto it = srv.jobs().find(job);
      LYRA_CHECK(it != srv.jobs().end());
      LYRA_CHECK_EQ(it->second.base_gpus, share.base_gpus);
      LYRA_CHECK_EQ(it->second.flexible_gpus, share.flexible_gpus);
    }
  }

  for (int pool = 0; pool < kNumPools; ++pool) {
    LYRA_CHECK_EQ(total[pool], total_gpus_[pool]);
    LYRA_CHECK_EQ(used[pool], used_gpus_[pool]);
    for (int type = 0; type < kNumGpuTypes; ++type) {
      LYRA_CHECK_EQ(free_by_type[pool][type], free_gpus_by_type_[pool][type]);
    }
    LYRA_CHECK(members[pool] == pool_servers_[pool]);
    LYRA_CHECK(std::is_sorted(pool_servers_[pool].begin(), pool_servers_[pool].end()));
    LYRA_CHECK(free_members[pool] == free_servers_[pool]);
  }
  LYRA_CHECK_EQ(down, servers_down_);
}

// --- Transactions -----------------------------------------------------------

void ClusterState::RecordShareDelta(JobId job, ServerId server, int base_delta,
                                    int flexible_delta) {
  UndoEntry entry;
  entry.kind = UndoEntry::Kind::kShareDelta;
  entry.job = job;
  entry.server = server;
  entry.base_delta = base_delta;
  entry.flexible_delta = flexible_delta;
  undo_log_.push_back(entry);
}

void ClusterState::RecordSetPool(ServerId server, ServerPool pool) {
  UndoEntry entry;
  entry.kind = UndoEntry::Kind::kSetPool;
  entry.server = server;
  entry.pool = pool;
  undo_log_.push_back(entry);
}

JobPlacement& ClusterState::PlacementOf(JobId job) {
  const auto [entry, inserted] = placements_.try_emplace(job);
  if (inserted && log_new_placements_) {
    new_placements_.push_back(job);
  }
  return entry->second;
}

void ClusterState::ApplyShareDelta(JobId job, ServerId server_id, int base_delta,
                                   int flexible_delta) {
  Server& srv = mutable_server(server_id);
  srv.ApplyShareDelta(job, base_delta, flexible_delta);
  AccountUsage(srv, base_delta + flexible_delta);
  JobPlacement& placement = PlacementOf(job);
  placement.stamp = ++placement_stamp_;
  GpuShare& share = placement.shares[server_id];
  share.base_gpus += base_delta;
  share.flexible_gpus += flexible_delta;
  LYRA_CHECK_GE(share.base_gpus, 0);
  LYRA_CHECK_GE(share.flexible_gpus, 0);
  if (share.total() == 0) {
    auto it = placements_.find(job);
    it->second.shares.erase(server_id);
    if (it->second.shares.empty()) {
      placements_.erase(it);
    }
  }
}

void ClusterState::RollbackTo(std::size_t mark) {
  while (undo_log_.size() > mark) {
    const UndoEntry entry = undo_log_.back();
    undo_log_.pop_back();
    switch (entry.kind) {
      case UndoEntry::Kind::kShareDelta:
        ApplyShareDelta(entry.job, entry.server, entry.base_delta,
                        entry.flexible_delta);
        break;
      case UndoEntry::Kind::kSetPool: {
        Server& srv = mutable_server(entry.server);
        const ServerPool current = srv.pool();
        LYRA_CHECK(current != entry.pool);
        srv.set_pool(entry.pool);
        MoveServerCounters(srv, current, entry.pool);
        break;
      }
    }
  }
}

ClusterTransaction::ClusterTransaction(ClusterState& cluster)
    : cluster_(&cluster),
      mark_(cluster.undo_log_.size()),
      depth_(++cluster.txn_depth_) {}

ClusterTransaction::~ClusterTransaction() {
  if (open_) {
    Rollback();
  }
}

void ClusterTransaction::Rollback() {
  LYRA_CHECK(open_);
  LYRA_CHECK_EQ(cluster_->txn_depth_, depth_);  // LIFO close order
  cluster_->RollbackTo(mark_);
  --cluster_->txn_depth_;
  open_ = false;
}

void ClusterTransaction::Commit() {
  LYRA_CHECK(open_);
  LYRA_CHECK_EQ(cluster_->txn_depth_, depth_);  // LIFO close order
  if (depth_ == 1) {
    cluster_->undo_log_.clear();
  }
  // Nested commit: entries stay in the log so the outer transaction can
  // still roll the whole suffix back.
  --cluster_->txn_depth_;
  open_ = false;
}

std::size_t ClusterTransaction::ops() const {
  return open_ ? cluster_->undo_log_.size() - mark_ : 0;
}

}  // namespace lyra
