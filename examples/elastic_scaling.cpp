// Elastic scaling deep dive.
//
// Walks through Lyra's two-phase allocation on a hand-built cluster state:
// phase one admits jobs shortest-first at base demand, phase two solves the
// multiple-choice knapsack over the leftover GPUs, and the placement applies
// the result. Then it replays the same jobs through the simulator to show
// the resulting JCTs against a non-elastic FIFO run.
//
//   ./build/examples/elastic_scaling
#include <cstdio>
#include <memory>

#include "src/common/table.h"
#include "src/lyra/allocation.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/reclaim.h"
#include "src/sched/fifo.h"
#include "src/sim/simulator.h"

namespace {

lyra::JobSpec Spec(std::int64_t id, double submit, double work, int min_w, int max_w,
                   lyra::ModelFamily model) {
  lyra::JobSpec spec;
  spec.id = lyra::JobId(id);
  spec.submit_time = submit;
  spec.gpus_per_worker = 2;
  spec.min_workers = min_w;
  spec.max_workers = max_w;
  spec.requested_workers = min_w;
  spec.total_work = work;
  spec.model = model;
  return spec;
}

}  // namespace

int main() {
  // Three elastic jobs compete for a 3-server (24 GPU) cluster.
  std::vector<lyra::JobSpec> specs = {
      Spec(0, 0.0, 12000.0, 2, 4, lyra::ModelFamily::kResNet),  // 100 min at base
      Spec(1, 0.0, 2400.0, 2, 4, lyra::ModelFamily::kBert),     // 20 min at base
      Spec(2, 0.0, 4800.0, 1, 2, lyra::ModelFamily::kGnmt),     // 80 min at base
  };

  // --- Step 1: one allocation epoch, dissected -------------------------------
  std::printf("Step 1: one scheduling epoch of the two-phase allocator (SS5.2)\n\n");
  lyra::ClusterState cluster;
  for (int s = 0; s < 3; ++s) {
    cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
  }
  std::vector<std::unique_ptr<lyra::Job>> jobs;
  std::vector<lyra::Job*> pending;
  lyra::SchedulerContext ctx;
  ctx.cluster = &cluster;
  lyra::ThroughputModel model;
  ctx.throughput = &model;
  for (const lyra::JobSpec& spec : specs) {
    jobs.push_back(std::make_unique<lyra::Job>(spec));
    pending.push_back(jobs.back().get());
  }
  ctx.pending = pending;

  const lyra::AllocationDecision decision = lyra::TwoPhaseAllocate(ctx);
  std::printf("phase 1 (SJF over base demands) admits, in order:\n");
  for (const lyra::Job* job : decision.launches) {
    std::printf("  job %lld: base %d workers x2 GPUs, est. %.0fs remaining\n",
                static_cast<long long>(job->id().value), job->spec().min_workers,
                job->EstimatedRemainingTime(job->spec().min_workers));
  }
  std::printf("phase 2 (multiple-choice knapsack over the leftover GPUs):\n");
  for (const auto& [job, flex] : decision.flexible_targets) {
    std::printf("  job %lld: +%d flexible worker(s) -> %d total (max %d)\n",
                static_cast<long long>(job->id().value), flex,
                job->spec().min_workers + flex, job->spec().max_workers);
  }

  lyra::PlacementOptions placement;
  const lyra::PlacementStats stats = ApplyAllocation(cluster, decision, placement);
  std::printf("placement: %d launched, %d scale-outs, %d free GPUs left\n\n",
              stats.launched, stats.scale_outs,
              cluster.FreeGpus(lyra::ServerPool::kTraining));

  // --- Step 2: end-to-end JCT comparison -------------------------------------
  std::printf("Step 2: replaying the same jobs, FIFO (at requested demand) vs Lyra\n\n");
  lyra::Trace trace;
  trace.jobs = specs;
  trace.duration = lyra::kDay;

  auto run = [&](lyra::JobScheduler* scheduler) {
    lyra::SimulatorOptions options;
    options.training_servers = 3;
    options.enable_loaning = false;
    lyra::LyraReclaimPolicy reclaim;
    lyra::Simulator sim(options, trace, scheduler, &reclaim, nullptr);
    return sim.Run();
  };
  lyra::FifoScheduler fifo;
  lyra::LyraScheduler lyra_scheduler;
  const lyra::SimulationResult fifo_result = run(&fifo);
  const lyra::SimulationResult lyra_result = run(&lyra_scheduler);

  lyra::TextTable table({"scheme", "mean JCT (s)", "max JCT (s)", "scaling ops"});
  table.AddRow({"FIFO (requested demand)", lyra::FormatDouble(fifo_result.jct.mean, 0),
                lyra::FormatDouble(fifo_result.jct.max, 0), "0"});
  table.AddRow({"Lyra (elastic)", lyra::FormatDouble(lyra_result.jct.mean, 0),
                lyra::FormatDouble(lyra_result.jct.max, 0),
                std::to_string(lyra_result.scaling_operations)});
  table.Print();
  std::printf(
      "\nLyra finishes the batch %.2fx faster on average: jobs absorb the GPUs a\n"
      "finishing job releases instead of leaving them idle.\n",
      fifo_result.jct.mean / lyra_result.jct.mean);
  return 0;
}
