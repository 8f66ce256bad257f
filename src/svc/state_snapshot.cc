#include "src/svc/state_snapshot.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/simulator.h"

namespace lyra::svc {
namespace {

JobRecord RecordOf(const Job& job) {
  JobRecord record;
  record.spec = job.spec();
  record.state = job.state();
  record.current_workers = job.current_workers();
  record.work_remaining = job.work_remaining();
  record.preemptions = job.preemptions();
  record.scaling_operations = job.scaling_operations();
  record.first_start_time = job.first_start_time();
  record.finish_time = job.finish_time();
  return record;
}

PoolCounters CountersOf(const ClusterState& cluster, ServerPool pool) {
  PoolCounters counters;
  counters.servers = cluster.NumServersInPool(pool);
  counters.total_gpus = cluster.TotalGpus(pool);
  counters.used_gpus = cluster.UsedGpus(pool);
  counters.free_gpus = cluster.FreeGpus(pool);
  return counters;
}

}  // namespace

std::shared_ptr<const StateSnapshot> SnapshotBuilder::Publish(
    const Simulator& sim, std::size_t command_log_size, bool refresh_metrics) {
  const auto& jobs = sim.jobs();

  // Every mutated job — including every newly submitted one, which is armed
  // dirty at SubmitJob — latched its id into the sink exactly once.
  dirty_chunks_.clear();
  for (const std::int64_t id : sink_.ids) {
    dirty_chunks_.push_back(static_cast<std::size_t>(id) / kSnapshotChunkSize);
  }
  std::sort(dirty_chunks_.begin(), dirty_chunks_.end());
  dirty_chunks_.erase(std::unique(dirty_chunks_.begin(), dirty_chunks_.end()),
                      dirty_chunks_.end());

  const std::size_t wanted_chunks =
      (jobs.size() + kSnapshotChunkSize - 1) / kSnapshotChunkSize;
  chunks_.resize(wanted_chunks);

  for (const std::size_t c : dirty_chunks_) {
    LYRA_CHECK_LT(c, chunks_.size());
    const std::size_t base = c * kSnapshotChunkSize;
    const std::size_t count = std::min(kSnapshotChunkSize, jobs.size() - base);
    auto rebuilt = std::make_shared<JobChunk>();
    rebuilt->records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      rebuilt->records.push_back(RecordOf(*jobs[base + i]));
      ++rebuilt->state_counts[static_cast<std::size_t>(
          rebuilt->records.back().state)];
    }
    if (chunks_[c] != nullptr) {
      for (std::size_t s = 0; s < 4; ++s) {
        state_counts_[s] -= chunks_[c]->state_counts[s];
      }
    }
    for (std::size_t s = 0; s < 4; ++s) {
      state_counts_[s] += rebuilt->state_counts[s];
    }
    chunks_[c] = std::move(rebuilt);
  }

  for (const std::int64_t id : sink_.ids) {
    jobs[static_cast<std::size_t>(id)]->ClearDirty();
  }
  sink_.ids.clear();

  if (refresh_metrics) {
    engine_metrics_ =
        std::make_shared<const obs::MetricsValues>(sim.metrics().Values());
    metrics_time_ = sim.now();
  }

  auto snapshot = std::make_shared<StateSnapshot>();
  snapshot->version = ++version_;
  snapshot->time = sim.now();
  snapshot->ended = sim.ended();
  snapshot->events_processed = sim.events_processed();
  snapshot->job_count = jobs.size();
  snapshot->command_log_size = command_log_size;
  snapshot->state_counts = state_counts_;
  snapshot->training = CountersOf(sim.cluster(), ServerPool::kTraining);
  snapshot->on_loan = CountersOf(sim.cluster(), ServerPool::kOnLoan);
  snapshot->inference = CountersOf(sim.cluster(), ServerPool::kInference);
  snapshot->chunks = chunks_;
  snapshot->engine_metrics = engine_metrics_;
  snapshot->metrics_time = metrics_time_;
  return snapshot;
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kRunning:
      return "running";
    case JobState::kFinished:
      return "finished";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

StateSnapshot SumSnapshots(
    const std::vector<std::shared_ptr<const StateSnapshot>>& snaps) {
  StateSnapshot sum;
  for (const std::shared_ptr<const StateSnapshot>& snap : snaps) {
    sum.version = std::max(sum.version, snap->version);
    sum.time = std::max(sum.time, snap->time);
    sum.ended = sum.ended || snap->ended;
    sum.metrics_time = std::max(sum.metrics_time, snap->metrics_time);
    sum.events_processed += snap->events_processed;
    sum.job_count += snap->job_count;
    sum.command_log_size += snap->command_log_size;
    for (std::size_t s = 0; s < sum.state_counts.size(); ++s) {
      sum.state_counts[s] += snap->state_counts[s];
    }
    sum.training.Add(snap->training);
    sum.on_loan.Add(snap->on_loan);
    sum.inference.Add(snap->inference);
  }
  return sum;
}

StateSnapshot MergeSnapshots(
    const std::vector<std::shared_ptr<const StateSnapshot>>& snaps) {
  StateSnapshot merged = SumSnapshots(snaps);
  std::shared_ptr<obs::MetricsValues> registry;
  for (const std::shared_ptr<const StateSnapshot>& snap : snaps) {
    if (snap->engine_metrics != nullptr) {
      if (registry == nullptr) {
        registry = std::make_shared<obs::MetricsValues>();
      }
      registry->Merge(*snap->engine_metrics);
    }
  }
  merged.engine_metrics = std::move(registry);
  return merged;
}

}  // namespace lyra::svc
