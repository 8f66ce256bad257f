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

ClusterState ClusterState::Clone() const {
  ClusterState copy;
  copy.servers_ = servers_;
  copy.placements_ = placements_;
  copy.by_job_.assign(by_job_.size(), nullptr);
  for (auto& [job, placement] : copy.placements_) {
    copy.by_job_[static_cast<std::size_t>(job.value)] = &placement;
  }
  copy.total_gpus_ = total_gpus_;
  copy.used_gpus_ = used_gpus_;
  copy.flexible_gpus_ = flexible_gpus_;
  copy.pool_servers_ = pool_servers_;
  copy.free_slots_ = free_slots_;
  copy.placement_stamp_ = placement_stamp_;
  copy.servers_down_ = servers_down_;
  return copy;
}

ServerId ClusterState::AddServer(GpuType gpu_type, int num_gpus, ServerPool pool) {
  LYRA_CHECK_LE(num_gpus, kMaxServerGpus);
  const ServerId id(static_cast<std::int64_t>(servers_.size()));
  servers_.emplace_back(id, gpu_type, num_gpus, pool);
  pool_servers_[PoolIndex(pool)].push_back(id);  // the largest id yet
  CountServer(servers_.back(), +1);
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

void ClusterState::CountServer(const Server& srv, int sign) {
  if (!srv.up()) {
    return;
  }
  const int pool = PoolIndex(srv.pool());
  const int free = srv.free_gpus();
  total_gpus_[pool] += sign * srv.num_gpus();
  used_gpus_[pool] += sign * srv.used_gpus();
  flexible_gpus_ += sign * srv.flexible_gpus();
  if (free == 0) {
    return;
  }
  FreeSlotGroup& group = free_slots_[SlotGroup(srv.pool(), srv.gpu_type(), KindOf(srv))];
  std::vector<ServerId>& bucket = group.by_free[static_cast<std::size_t>(free)];
  if (sign > 0) {
    SortedInsert(bucket, srv.id());
  } else {
    SortedErase(bucket, srv.id());
  }
  const std::uint64_t bit = std::uint64_t{1} << free;
  group.mask = bucket.empty() ? group.mask & ~bit : group.mask | bit;
}

void ClusterState::MovePool(Server& srv, ServerPool to) {
  CountServer(srv, -1);
  SortedErase(pool_servers_[PoolIndex(srv.pool())], srv.id());
  srv.set_pool(to);
  SortedInsert(pool_servers_[PoolIndex(to)], srv.id());
  CountServer(srv, +1);
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
  LYRA_CHECK(job.valid());
  Server& srv = mutable_server(server_id);
  LYRA_CHECK(srv.up());  // down servers are invisible to placement
  CountServer(srv, -1);
  srv.Place(job, gpus, flexible);
  CountServer(srv, +1);
  const auto index = static_cast<std::size_t>(job.value);
  if (index >= by_job_.size()) {
    by_job_.resize(index + 1, nullptr);
  }
  if (by_job_[index] == nullptr) {
    by_job_[index] = &placements_[job];
  }
  JobPlacement& placement = *by_job_[index];
  NoteChange(job, placement.stamp);
  placement.stamp = ++placement_stamp_;
  GpuShare& share = placement.shares[server_id];
  if (flexible) {
    share.flexible_gpus += gpus;
    placement.flexible_total += gpus;
  } else {
    share.base_gpus += gpus;
  }
}

void ClusterState::ErasePlacement(JobId job) {
  by_job_[static_cast<std::size_t>(job.value)] = nullptr;
  placements_.erase(job);
}

void ClusterState::RemoveJob(JobId job) {
  const JobPlacement* placement = FindPlacement(job);
  if (placement == nullptr) {
    return;
  }
  for (const auto& [server_id, share] : placement->shares) {
    Server& srv = mutable_server(server_id);
    CountServer(srv, -1);
    srv.RemoveJob(job);
    CountServer(srv, +1);
  }
  NoteChange(job, placement->stamp);
  ErasePlacement(job);
}

int ClusterState::RemoveFlexible(JobId job, ServerId server_id, int gpus) {
  JobPlacement* placement = const_cast<JobPlacement*>(FindPlacement(job));
  if (placement == nullptr) {
    return 0;
  }
  auto share_it = placement->shares.find(server_id);
  if (share_it == placement->shares.end()) {
    return 0;
  }
  Server& srv = mutable_server(server_id);
  CountServer(srv, -1);
  const int removed = srv.RemoveFlexible(job, gpus);
  CountServer(srv, +1);
  share_it->second.flexible_gpus -= removed;
  placement->flexible_total -= removed;
  LYRA_CHECK_GE(share_it->second.flexible_gpus, 0);
  if (share_it->second.total() == 0) {
    placement->shares.erase(share_it);
  }
  if (placement->shares.empty()) {
    NoteChange(job, placement->stamp);
    ErasePlacement(job);
  } else if (removed > 0) {
    NoteChange(job, placement->stamp);
    placement->stamp = ++placement_stamp_;
  }
  return removed;
}

int ClusterState::RemoveAllFlexible(JobId job) {
  const JobPlacement* placement = FindPlacement(job);
  if (placement == nullptr) {
    return 0;
  }
  // Collect first: RemoveFlexible erases from the share list we would walk.
  std::vector<std::pair<ServerId, int>> flex;
  for (const auto& [server_id, share] : placement->shares) {
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
  MovePool(srv, ServerPool::kOnLoan);
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
  MovePool(srv, ServerPool::kInference);
  return Status::Ok();
}

Status ClusterState::MarkServerDown(ServerId id) {
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is already down");
  }
  if (!srv.idle()) {
    return Status::FailedPrecondition("server still has running workers");
  }
  CountServer(srv, -1);
  SortedErase(pool_servers_[PoolIndex(srv.pool())], id);
  srv.set_up(false);
  ++servers_down_;
  return Status::Ok();
}

Status ClusterState::MarkServerUp(ServerId id) {
  Server& srv = mutable_server(id);
  if (srv.up()) {
    return Status::FailedPrecondition("server is already up");
  }
  LYRA_CHECK(srv.idle());  // nothing can be placed on a down server
  srv.set_up(true);
  SortedInsert(pool_servers_[PoolIndex(srv.pool())], id);
  CountServer(srv, +1);
  --servers_down_;
  return Status::Ok();
}

int ClusterState::TrainingSideFreeGpus() const {
  return FreeGpus(ServerPool::kTraining) + FreeGpus(ServerPool::kOnLoan);
}

int ClusterState::TrainingSideUsedGpus() const {
  return UsedGpus(ServerPool::kTraining) + UsedGpus(ServerPool::kOnLoan);
}

void ClusterState::AuditInvariants() const {
  std::array<int, kNumPools> total{};
  std::array<int, kNumPools> used{};
  int flexible_gpus = 0;
  std::array<std::vector<ServerId>, kNumPools> members;
  std::array<FreeSlotGroup, kNumPools * kNumGpuTypes * kNumServerKinds> free_slots;

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
    flexible_gpus += srv.flexible_gpus();
    members[pool].push_back(srv.id());
    if (srv.free_gpus() > 0) {
      FreeSlotGroup& group = free_slots[SlotGroup(srv.pool(), srv.gpu_type(), KindOf(srv))];
      group.by_free[static_cast<std::size_t>(srv.free_gpus())].push_back(srv.id());
      group.mask |= std::uint64_t{1} << srv.free_gpus();
    }

    // Server-side per-job shares, ascending by job id, must sum to the
    // server's used and flexible counts and be mirrored exactly in the
    // job-side placement map.
    LYRA_CHECK(IdsStrictlyAscending(srv.jobs()));
    int server_used = 0;
    int server_flexible = 0;
    for (const auto& [job, share] : srv.jobs()) {
      LYRA_CHECK_GE(share.base_gpus, 0);
      LYRA_CHECK_GE(share.flexible_gpus, 0);
      LYRA_CHECK_GT(share.total(), 0);
      server_used += share.total();
      server_flexible += share.flexible_gpus;
      auto it = placements_.find(job);
      LYRA_CHECK(it != placements_.end());
      auto share_it = it->second.shares.find(srv.id());
      LYRA_CHECK(share_it != it->second.shares.end());
      LYRA_CHECK_EQ(share_it->second.base_gpus, share.base_gpus);
      LYRA_CHECK_EQ(share_it->second.flexible_gpus, share.flexible_gpus);
    }
    LYRA_CHECK_EQ(server_used, srv.used_gpus());
    LYRA_CHECK_EQ(server_flexible, srv.flexible_gpus());
    LYRA_CHECK_LE(srv.used_gpus(), srv.num_gpus());
  }

  // Job-side shares, ascending by server id and none empty, must all exist on
  // the server side (with the mirror check above, the two views are then
  // identical). Every sum over a job's shares relies on that order.
  for (const auto& [job, placement] : placements_) {
    LYRA_CHECK(!placement.shares.empty());
    LYRA_CHECK(IdsStrictlyAscending(placement.shares));
    int flexible = 0;
    for (const auto& [server_id, share] : placement.shares) {
      LYRA_CHECK_GT(share.total(), 0);
      const Server& srv = server(server_id);
      auto it = srv.jobs().find(job);
      LYRA_CHECK(it != srv.jobs().end());
      LYRA_CHECK_EQ(it->second.base_gpus, share.base_gpus);
      LYRA_CHECK_EQ(it->second.flexible_gpus, share.flexible_gpus);
      flexible += share.flexible_gpus;
    }
    LYRA_CHECK_EQ(flexible, placement.flexible_total);
    // The id index names this very placement...
    LYRA_CHECK(FindPlacement(job) == &placement);
  }
  // ...and nothing else: an unplaced id reads null.
  std::size_t indexed = 0;
  for (const JobPlacement* placement : by_job_) {
    indexed += placement != nullptr ? 1 : 0;
  }
  LYRA_CHECK_EQ(indexed, placements_.size());

  for (int pool = 0; pool < kNumPools; ++pool) {
    LYRA_CHECK_EQ(total[pool], total_gpus_[pool]);
    LYRA_CHECK_EQ(used[pool], used_gpus_[pool]);
    LYRA_CHECK(members[pool] == pool_servers_[pool]);
    LYRA_CHECK(std::is_sorted(pool_servers_[pool].begin(), pool_servers_[pool].end()));
  }
  for (std::size_t g = 0; g < free_slots.size(); ++g) {
    LYRA_CHECK(free_slots[g].by_free == free_slots_[g].by_free);
    LYRA_CHECK_EQ(free_slots[g].mask, free_slots_[g].mask);
  }
  LYRA_CHECK_EQ(flexible_gpus, flexible_gpus_);
  LYRA_CHECK_EQ(down, servers_down_);
}

}  // namespace lyra
