// A physical GPU server: the unit of capacity loaning (§3).
#ifndef SRC_CLUSTER_SERVER_H_
#define SRC_CLUSTER_SERVER_H_

#include "src/cluster/gpu.h"
#include "src/cluster/sorted_id_map.h"
#include "src/common/check.h"
#include "src/common/types.h"

namespace lyra {

// Which scheduler currently controls the server. An inference server that has
// been loaned to the training cluster is kOnLoan: it appears in the training
// scheduler's whitelist but physically lives in the inference cluster.
enum class ServerPool {
  kTraining,
  kInference,
  kOnLoan,
};

constexpr const char* ServerPoolName(ServerPool pool) {
  switch (pool) {
    case ServerPool::kTraining:
      return "training";
    case ServerPool::kInference:
      return "inference";
    case ServerPool::kOnLoan:
      return "on-loan";
  }
  return "?";
}

// Per-job GPU usage on one server, split into the job's base (gang-scheduled
// minimum) demand and its flexible (elastic, beyond-base) demand. The split
// matters for reclaiming: flexible GPUs can be released by scaling in without
// preempting the job (§5.3).
struct GpuShare {
  int base_gpus = 0;
  int flexible_gpus = 0;

  int total() const { return base_gpus + flexible_gpus; }

  friend bool operator==(const GpuShare& a, const GpuShare& b) {
    return a.base_gpus == b.base_gpus && a.flexible_gpus == b.flexible_gpus;
  }
};

class Server {
 public:
  Server(ServerId id, GpuType gpu_type, int num_gpus, ServerPool pool)
      : id_(id), gpu_type_(gpu_type), num_gpus_(num_gpus), pool_(pool) {
    LYRA_CHECK_GT(num_gpus, 0);
  }

  ServerId id() const { return id_; }
  GpuType gpu_type() const { return gpu_type_; }
  int num_gpus() const { return num_gpus_; }
  ServerPool pool() const { return pool_; }
  void set_pool(ServerPool pool) { pool_ = pool; }

  // Health (§ fault model): a down server keeps its pool tag but its capacity
  // is invisible — ClusterState removes it from the pool counters and
  // membership index while down. Only ClusterState::MarkServerDown/Up flip
  // this so the accounting always moves with it.
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  int used_gpus() const { return used_gpus_; }
  int free_gpus() const { return num_gpus_ - used_gpus_; }
  bool idle() const { return used_gpus_ == 0; }

  // Jobs hosted by this server and the GPUs each occupies here, ascending by
  // job id.
  const SortedIdMap<JobId, GpuShare>& jobs() const { return jobs_; }
  int num_jobs() const { return static_cast<int>(jobs_.size()); }

  // Number of GPUs the given job occupies on this server (0 if absent).
  int JobGpus(JobId job) const;

  // GPUs of this server held as flexible (elastic beyond-base) demand.
  int flexible_gpus() const { return flexible_gpus_; }

  // True if this server hosts any flexible GPUs.
  bool HasFlexibleGpus() const { return flexible_gpus_ > 0; }

  // True if this server hosts any base GPUs: the rest of its used GPUs.
  bool HasBaseGpus() const { return used_gpus_ > flexible_gpus_; }

  // Adds `gpus` GPUs of the job to this server. Requires capacity.
  void Place(JobId job, int gpus, bool flexible);

  // Removes all of the job's GPUs from this server. Requires presence.
  void RemoveJob(JobId job);

  // Removes up to `gpus` flexible GPUs of the job; returns how many were
  // actually removed. Erases the job entry when its share reaches zero.
  int RemoveFlexible(JobId job, int gpus);

 private:
  ServerId id_;
  GpuType gpu_type_;
  int num_gpus_;
  ServerPool pool_;
  bool up_ = true;
  int used_gpus_ = 0;
  int flexible_gpus_ = 0;
  SortedIdMap<JobId, GpuShare> jobs_;
};

}  // namespace lyra

#endif  // SRC_CLUSTER_SERVER_H_
