// Brute-force oracle for ClusterState's free-slot index, shared by the churn
// and chaos tests: every bucket is rebuilt from the server vector, with each
// server's kind read from its shares rather than its counters, and compared
// with the maintained one.
#ifndef TESTS_FREE_SLOT_ORACLE_H_
#define TESTS_FREE_SLOT_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"

namespace lyra {

inline int BruteServerKind(const Server& server) {
  bool base = false;
  bool flexible = false;
  for (const auto& [job, share] : server.jobs()) {
    base = base || share.base_gpus > 0;
    flexible = flexible || share.flexible_gpus > 0;
  }
  return (base ? 1 : 0) | (flexible ? 2 : 0);
}

inline void ExpectFreeSlotsMatchBruteForce(const ClusterState& cluster) {
  using Key = std::tuple<ServerPool, GpuType, int, int>;
  std::map<Key, std::vector<ServerId>> brute;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.free_gpus() > 0) {
      brute[{s.pool(), s.gpu_type(), BruteServerKind(s), s.free_gpus()}].push_back(s.id());
    }
  }
  const std::vector<ServerId> none;
  int max_gpus = 0;
  for (const Server& s : cluster.servers()) {
    max_gpus = std::max(max_gpus, s.num_gpus());
  }
  std::size_t buckets = 0;
  for (ServerPool pool : {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
    for (GpuType type : {GpuType::kTrainingV100, GpuType::kInferenceT4}) {
      for (int kind = 0; kind < ClusterState::kNumServerKinds; ++kind) {
        std::uint64_t mask = 0;
        for (int free = 1; free <= max_gpus; ++free) {
          const auto it = brute.find({pool, type, kind, free});
          const std::vector<ServerId>& expected = it == brute.end() ? none : it->second;
          EXPECT_EQ(cluster.FreeSlotBucket(pool, type, kind, free), expected)
              << ServerPoolName(pool) << " " << GpuTypeName(type) << " kind " << kind
              << " free " << free;
          if (!expected.empty()) {
            mask |= std::uint64_t{1} << free;
            ++buckets;
          }
        }
        EXPECT_EQ(cluster.FreeSlotMask(pool, type, kind), mask)
            << ServerPoolName(pool) << " " << GpuTypeName(type) << " kind " << kind;
      }
    }
  }
}

// Clones the cluster and mutates the clone on its own: a job removed, a
// scale-in, base and flexible GPUs placed, an idle server crashed and
// recovered, an inference server loaned. Both must still match their own
// recount, so the clone shares no bucket with the original.
inline void ExpectCloneIndexesOnItsOwn(const ClusterState& cluster, std::uint64_t seed) {
  Rng rng(seed);
  ClusterState copy = cluster.Clone();
  ExpectFreeSlotsMatchBruteForce(copy);
  std::vector<JobId> jobs;
  for (const auto& [job, placement] : copy.placements()) {
    jobs.push_back(job);
  }
  std::sort(jobs.begin(), jobs.end());
  if (!jobs.empty()) {
    const auto pick = [&] {
      return jobs[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1))];
    };
    copy.RemoveJob(pick());
    copy.RemoveAllFlexible(pick());
  }
  for (const Server& s : cluster.servers()) {
    const Server& mine = copy.server(s.id());
    if (mine.up() && mine.pool() != ServerPool::kInference && mine.free_gpus() >= 2) {
      copy.Place(JobId(1'000'000), mine.id(), 1, /*flexible=*/false);
      copy.Place(JobId(1'000'001), mine.id(), 1, /*flexible=*/true);
      break;
    }
  }
  for (const Server& s : cluster.servers()) {
    if (copy.server(s.id()).up() && copy.server(s.id()).idle()) {
      EXPECT_TRUE(copy.MarkServerDown(s.id()).ok());
      ExpectFreeSlotsMatchBruteForce(copy);
      EXPECT_TRUE(copy.MarkServerUp(s.id()).ok());
      break;
    }
  }
  const std::vector<ServerId>& inference = copy.ServersInPool(ServerPool::kInference);
  if (!inference.empty()) {
    EXPECT_TRUE(copy.LoanServer(inference.front()).ok());
  }
  ExpectFreeSlotsMatchBruteForce(copy);
  ExpectFreeSlotsMatchBruteForce(cluster);
  copy.AuditInvariants();
  cluster.AuditInvariants();
}

}  // namespace lyra

#endif  // TESTS_FREE_SLOT_ORACLE_H_
