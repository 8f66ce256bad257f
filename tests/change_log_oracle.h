// Oracle for ClusterState's changed-placement log, shared by the churn and
// chaos tests: the placements' stamps are recorded at every ClearChanged, and
// after each operation every job whose stamp moved, whose placement vanished
// or that gained one since then must be listed, and nothing else but a job
// that was placed and removed again in between.
#ifndef TESTS_CHANGE_LOG_ORACLE_H_
#define TESTS_CHANGE_LOG_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"

namespace lyra {

class ChangeLogOracle {
 public:
  // Clears the cluster's log and records every placement's stamp.
  void Clear(ClusterState& cluster) {
    cluster.ClearChanged();
    stamps_.clear();
    for (const auto& [job, placement] : cluster.placements()) {
      stamps_[job] = placement.stamp;
    }
  }

  void ExpectListsEveryMove(const ClusterState& cluster) const {
    std::set<JobId> moved;
    for (const auto& [job, stamp] : stamps_) {
      const JobPlacement* placement = cluster.FindPlacement(job);
      if (placement == nullptr || placement->stamp != stamp) {
        moved.insert(job);
      }
    }
    for (const auto& [job, placement] : cluster.placements()) {
      if (stamps_.count(job) == 0) {
        moved.insert(job);
      }
    }
    const std::set<JobId> listed(cluster.changed().begin(), cluster.changed().end());
    for (JobId job : moved) {
      EXPECT_EQ(listed.count(job), 1u) << "job " << job.value << " moved, not listed";
    }
    // Nothing else is listed but a job placed and removed again since then.
    for (JobId job : listed) {
      EXPECT_TRUE(moved.count(job) == 1 ||
                  (stamps_.count(job) == 0 && cluster.FindPlacement(job) == nullptr))
          << "job " << job.value << " listed, did not move";
    }
  }

 private:
  std::map<JobId, std::uint64_t> stamps_;
};

}  // namespace lyra

#endif  // TESTS_CHANGE_LOG_ORACLE_H_
