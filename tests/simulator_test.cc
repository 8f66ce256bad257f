// Tests for the discrete-event simulator: exact timing on hand-built
// scenarios, loaning and preemption lifecycles, metric accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/sched/fifo.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

JobSpec SimpleJob(std::int64_t id, double submit, double duration, int gpus,
                  bool fungible = false) {
  JobSpec spec;
  spec.id = JobId(id);
  spec.submit_time = submit;
  spec.gpus_per_worker = gpus;
  spec.min_workers = 1;
  spec.max_workers = 1;
  spec.total_work = duration;  // one worker => work == duration
  spec.fungible = fungible;
  return spec;
}

// Constant-traffic inference cluster helper.
std::unique_ptr<InferenceCluster> FlatInference(int servers, double serving,
                                                TimeSec duration = 10 * kDay) {
  DiurnalTrafficOptions traffic;
  traffic.duration = duration;
  traffic.trough = serving;
  traffic.peak = serving + 1e-4;
  traffic.noise_sigma = 0.0;
  traffic.bursts_per_day = 0.0;
  traffic.weekend_dip = 0.0;
  InferenceClusterOptions options;
  options.num_servers = servers;
  options.server_packing_spread = 1.0;
  return std::make_unique<InferenceCluster>(options, DiurnalTrafficModel(traffic),
                                            nullptr);
}

TEST(Simulator, SingleJobExactTiming) {
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 100.0, 1000.0, 4));
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.scheduler_interval = 60.0;
  options.enable_loaning = false;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, nullptr);
  const SimulationResult result = sim.Run();

  ASSERT_EQ(result.finished_jobs, 1u);
  // Submitted at t=100; the first tick at or after that is t=120.
  EXPECT_NEAR(result.queuing.mean, 20.0, 1e-6);
  EXPECT_NEAR(result.jct.mean, 20.0 + 1000.0, 1e-6);
}

TEST(Simulator, SameTimestampBatchSchedulesArrivalImmediately) {
  // An arrival landing exactly on a tick timestamp was queued before the
  // tick event (lower seq), so it is applied before the scheduler
  // invocation at that timestamp and the job starts with zero queuing
  // rather than waiting a full interval.
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 120.0, 1000.0, 4));
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.scheduler_interval = 60.0;
  options.enable_loaning = false;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, nullptr);
  const SimulationResult result = sim.Run();

  ASSERT_EQ(result.finished_jobs, 1u);
  EXPECT_NEAR(result.queuing.mean, 0.0, 1e-6);
}

TEST(Simulator, TickCoalescingCounterPresentAndZeroOnPeriodicSchedule) {
  // The event loop collapses a queued run of same-type tick events at one
  // timestamp into a single handler invocation. The periodic
  // self-rescheduling schedule never produces such a duplicate, so the
  // counter must exist and read zero — anything else means the coalescing
  // changed the tick cadence.
  Trace trace;
  for (int j = 0; j < 6; ++j) {
    trace.jobs.push_back(SimpleJob(j, j * 37.0, 500.0, 4, /*fungible=*/true));
  }
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 2;
  options.scheduler_interval = 60.0;
  options.enable_loaning = true;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, FlatInference(4, 0.2));
  const SimulationResult result = sim.Run();
  EXPECT_EQ(result.finished_jobs, 6u);

  const auto& counters = sim.metrics().counters();
  const auto coalesced = counters.find("sim.ticks_coalesced");
  ASSERT_NE(coalesced, counters.end());
  EXPECT_EQ(coalesced->second->value(), 0u);
  ASSERT_NE(counters.find("sim.events.scheduler_tick"), counters.end());
  EXPECT_GT(counters.at("sim.events.scheduler_tick")->value(), 0u);
  EXPECT_GT(counters.at("sim.events.orchestrator_tick")->value(), 0u);
}

TEST(Simulator, JobsQueueWhenClusterIsFull) {
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 0.0, 1000.0, 8));
  trace.jobs.push_back(SimpleJob(1, 0.0, 500.0, 8));
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.enable_loaning = false;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, nullptr);
  const SimulationResult result = sim.Run();

  ASSERT_EQ(result.finished_jobs, 2u);
  // The second job waits for the first to finish (~1000s).
  EXPECT_GT(result.queuing.max, 900.0);
  EXPECT_EQ(result.queued_flags[0], false);
  EXPECT_EQ(result.queued_flags[1], true);
}

TEST(Simulator, TrainingUsageAccountsBusyTime) {
  Trace trace;
  // One job occupying the whole 8-GPU cluster for half the trace window.
  trace.jobs.push_back(SimpleJob(0, 0.0, kDay / 2, 8));
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.enable_loaning = false;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, nullptr);
  const SimulationResult result = sim.Run();
  EXPECT_NEAR(result.training_usage, 0.5, 0.01);
}

TEST(Simulator, FungibleJobOverflowsToLoanedServers) {
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 0.0, 5000.0, 8));          // fills training
  trace.jobs.push_back(SimpleJob(1, 0.0, 600.0, 2, true));     // fungible
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.enable_loaning = true;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, FlatInference(4, 0.1));
  const SimulationResult result = sim.Run();

  ASSERT_EQ(result.finished_jobs, 2u);
  ASSERT_EQ(result.jct_on_loan_samples.size(), 1u);
  // On T4 GPUs the job uses 3x the GPUs at full nominal speed, so its
  // running time stays ~600s instead of waiting ~5000s for training GPUs.
  EXPECT_LT(result.jct_on_loan_samples[0], 1500.0);
  EXPECT_GT(result.orchestrator.servers_loaned, 0);
}

TEST(Simulator, NonFungibleJobWaitsInsteadOfUsingLoans) {
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 0.0, 5000.0, 8));       // fills training
  trace.jobs.push_back(SimpleJob(1, 0.0, 600.0, 2, false)); // NOT fungible
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, FlatInference(4, 0.1));
  const SimulationResult result = sim.Run();
  EXPECT_TRUE(result.jct_on_loan_samples.empty());
  EXPECT_GT(result.queuing.max, 4000.0);
}

TEST(Simulator, ReclaimPreemptsAndJobRestarts) {
  // Traffic: idle for the first half day, saturated afterwards. A long
  // fungible job lands on a loaned server, is reclaimed when traffic rises,
  // loses its progress (no checkpointing), and restarts on the training
  // cluster once the blocking job is done.
  DiurnalTrafficOptions traffic;
  traffic.duration = 10 * kDay;
  traffic.trough = 0.0;
  traffic.peak = 1.0;
  traffic.peak_time = 12 * kHour;  // t=0 is the trough
  traffic.peak_sharpness = 1.0;
  traffic.noise_sigma = 0.0;
  traffic.bursts_per_day = 0.0;
  traffic.weekend_dip = 0.0;
  InferenceClusterOptions inference_options;
  inference_options.num_servers = 6;
  inference_options.server_packing_spread = 1.0;
  auto inference = std::make_unique<InferenceCluster>(
      inference_options, DiurnalTrafficModel(traffic), nullptr);

  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 0.0, 20 * kHour, 8));        // hogs training
  trace.jobs.push_back(SimpleJob(1, 0.0, 10 * kHour, 8, true));  // fungible victim
  trace.duration = 2 * kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, std::move(inference));
  const SimulationResult result = sim.Run();

  ASSERT_EQ(result.finished_jobs, 2u);
  EXPECT_GE(result.preemptions, 1);
  EXPECT_GT(result.preemption_ratio, 0.0);
  // The victim's JCT reflects the lost progress: well beyond its 10h runtime.
  EXPECT_GT(result.jct.max, 20 * kHour);
}

TEST(Simulator, LoaningDisabledNeverTouchesInferenceServers) {
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 0.0, 1000.0, 2, true));
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.enable_loaning = false;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, FlatInference(4, 0.0));
  const SimulationResult result = sim.Run();
  EXPECT_EQ(result.orchestrator.servers_loaned, 0);
  EXPECT_TRUE(result.jct_on_loan_samples.empty());
}

TEST(Simulator, LyraScalesElasticJobToMaxWhenIdle) {
  JobSpec elastic;
  elastic.id = JobId(0);
  elastic.submit_time = 0.0;
  elastic.gpus_per_worker = 2;
  elastic.min_workers = 2;
  elastic.max_workers = 4;
  elastic.total_work = 4000.0;  // 1000s at max demand
  Trace trace;
  trace.jobs.push_back(elastic);
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 1;
  options.enable_loaning = false;
  LyraScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &scheduler, &reclaim, nullptr);
  const SimulationResult result = sim.Run();
  ASSERT_EQ(result.finished_jobs, 1u);
  // Scaled out to all 8 GPUs within the first epochs: JCT close to the
  // 1000s minimum running time, far below the 2000s base-demand time.
  // Starting directly at the scaled-out allocation counts as a launch, not a
  // scaling operation, so only the JCT reflects the scale-out here.
  EXPECT_LT(result.jct.mean, 1300.0);
}

TEST(Simulator, CheckpointingSoftensPreemption) {
  auto run = [&](bool checkpointing) {
    DiurnalTrafficOptions traffic;
    traffic.duration = 10 * kDay;
    traffic.trough = 0.0;
    traffic.peak = 1.0;
    traffic.peak_time = 12 * kHour;  // t=0 is the trough
    traffic.peak_sharpness = 1.0;
    traffic.noise_sigma = 0.0;
    traffic.bursts_per_day = 0.0;
    traffic.weekend_dip = 0.0;
    InferenceClusterOptions io;
    io.num_servers = 6;
    io.server_packing_spread = 1.0;
    auto inference = std::make_unique<InferenceCluster>(
        io, DiurnalTrafficModel(traffic), nullptr);

    Trace trace;
    trace.jobs.push_back(SimpleJob(0, 0.0, 30 * kHour, 8));
    JobSpec victim = SimpleJob(1, 0.0, 6 * kHour, 8, true);
    victim.checkpointing = checkpointing;
    trace.jobs.push_back(victim);
    trace.duration = 3 * kDay;

    SimulatorOptions options;
    options.training_servers = 1;
    options.reclaim_chunk = 1;  // no bulk-reclaim hysteresis at toy scale
    FifoScheduler fifo;
    LyraReclaimPolicy reclaim;
    Simulator sim(options, trace, &fifo, &reclaim, std::move(inference));
    return sim.Run();
  };
  const SimulationResult without = run(false);
  const SimulationResult with = run(true);
  ASSERT_GE(without.preemptions, 1);
  ASSERT_GE(with.preemptions, 1);
  // The victim is the only job that touched a loaned server; with a
  // checkpoint it resumes instead of restarting from scratch.
  ASSERT_EQ(without.jct_on_loan_samples.size(), 1u);
  ASSERT_EQ(with.jct_on_loan_samples.size(), 1u);
  EXPECT_LT(with.jct_on_loan_samples[0], without.jct_on_loan_samples[0]);
}

TEST(Simulator, DeterministicAcrossRuns) {
  Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.jobs.push_back(SimpleJob(i, i * 100.0, 500.0 + i * 37.0, 1 + i % 8));
  }
  trace.duration = kDay;

  auto run = [&]() {
    SimulatorOptions options;
    options.training_servers = 2;
    FifoScheduler fifo;
    LyraReclaimPolicy reclaim;
    Simulator sim(options, trace, &fifo, &reclaim, FlatInference(2, 0.5));
    return sim.Run();
  };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_DOUBLE_EQ(a.queuing.mean, b.queuing.mean);
  EXPECT_DOUBLE_EQ(a.jct.mean, b.jct.mean);
  EXPECT_DOUBLE_EQ(a.training_usage, b.training_usage);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

TEST(Simulator, MispredictionAffectsEstimatesNotGroundTruth) {
  Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.jobs.push_back(SimpleJob(i, i * 50.0, 1000.0, 2));
  }
  trace.duration = kDay;

  SimulatorOptions options;
  options.training_servers = 2;
  options.enable_loaning = false;
  options.misprediction_fraction = 1.0;
  options.misprediction_max_error = 0.25;
  LyraScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &scheduler, &reclaim, nullptr);
  const SimulationResult result = sim.Run();
  ASSERT_EQ(result.finished_jobs, 20u);
  // Ground-truth running times are unchanged: every JCT >= 1000s runtime.
  for (double jct : result.jct_samples) {
    EXPECT_GE(jct, 1000.0 - 1e-6);
  }
}

TEST(Simulator, SeriesRecordingProducesSamples) {
  Trace trace;
  trace.jobs.push_back(SimpleJob(0, 0.0, 3600.0, 2));
  trace.duration = 6 * kHour;

  SimulatorOptions options;
  options.training_servers = 1;
  options.record_series = true;
  FifoScheduler fifo;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &fifo, &reclaim, FlatInference(2, 0.5));
  const SimulationResult result = sim.Run();
  EXPECT_GT(result.series.size(), 10u);
  for (const SeriesPoint& point : result.series) {
    EXPECT_GE(point.training_usage, 0.0);
    EXPECT_LE(point.training_usage, 1.0);
  }
}

// --- Queue deltas and the orchestrator's pending sums --------------------------

// Wraps Lyra and checks, every round, what the simulator hands it: one
// queue identity, consecutive rounds, and deltas that turn the last round's
// queue into this one's.
class DeltaCheckingScheduler : public JobScheduler {
 public:
  const char* name() const override { return "delta-check"; }
  void Schedule(SchedulerContext& ctx) override {
    EXPECT_NE(ctx.queue_id, 0u);
    if (rounds_ > 0) {
      EXPECT_EQ(ctx.queue_id, queue_id_);
      EXPECT_EQ(ctx.round, round_ + 1);
    }
    queue_id_ = ctx.queue_id;
    round_ = ctx.round;
    ++rounds_;
    // Replay the deltas on last round's queue: the leavers go, and what
    // follows the survivors is stamped after all of them.
    std::vector<Job*> survivors;
    for (Job* job : last_) {
      if (std::find(ctx.dequeued.begin(), ctx.dequeued.end(), job) == ctx.dequeued.end()) {
        survivors.push_back(job);
      }
    }
    ASSERT_LE(survivors.size(), ctx.pending.size());
    EXPECT_TRUE(std::equal(survivors.begin(), survivors.end(), ctx.pending.begin()))
        << "round " << ctx.round;
    for (Job* job : ctx.pending.subspan(survivors.size())) {
      EXPECT_GT(job->queue_seq(), newest_) << "round " << ctx.round;
    }
    if (!ctx.pending.empty()) {
      newest_ = ctx.pending.back()->queue_seq();
    }
    inner_.Schedule(ctx);
    // This round's launches leave through the next round's deltas.
    last_.assign(ctx.pending.begin(), ctx.pending.end());
  }
  int rounds() const { return rounds_; }

 private:
  LyraScheduler inner_;
  std::vector<Job*> last_;
  std::uint64_t newest_ = 0;
  std::uint64_t queue_id_ = 0;
  std::uint64_t round_ = 0;
  int rounds_ = 0;
};

TEST(Simulator, QueueDeltasTurnEachRoundsQueueIntoTheNext) {
  SyntheticTraceOptions trace_options;
  trace_options.duration = 1 * kDay;
  trace_options.training_gpus = 8 * 8;
  trace_options.target_utilization = 2.0;
  trace_options.seed = 3;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();
  SimulatorOptions options;
  options.training_servers = 8;
  options.faults.enabled = true;  // crashes requeue running jobs
  options.faults.server_mtbf = 2 * kHour;
  DeltaCheckingScheduler scheduler;
  LyraReclaimPolicy reclaim;
  Simulator sim(options, trace, &scheduler, &reclaim, FlatInference(10, 0.5));
  // Online cancels of queued jobs, and of jobs that have not arrived yet.
  for (TimeSec t = 600.0; t < 1 * kDay; t += 600.0) {
    sim.StepUntil(t);
    const std::vector<Job*>& pending = sim.pending_jobs();
    if (!pending.empty()) {
      ASSERT_TRUE(sim.CancelJob(pending[pending.size() / 2]->id()).ok());
    }
    const auto future = static_cast<std::int64_t>(trace.jobs.size()) - 1 -
                        static_cast<std::int64_t>(t / 600.0);
    if (sim.jobs()[static_cast<std::size_t>(future)]->state() == JobState::kPending) {
      ASSERT_TRUE(sim.CancelJob(JobId(future)).ok());
    }
  }
  const SimulationResult result = sim.Run();
  EXPECT_GT(scheduler.rounds(), 100);
  EXPECT_GT(result.preemptions, 0);
  EXPECT_TRUE(sim.pending_jobs().empty() || sim.ended());
}

// The orchestrator keeps the pending demand as integer running sums
// (simulator.cc). They equal the per-job double sums it used to take over
// the queue because each T4-normalized term b / kInferenceGpuFactor is
// exactly 3b: 1/3.0 rounds down by less than half an ulp, so b / (1/3.0)
// lies within half an ulp of 3b whenever 3b needs at most 53 bits.
TEST(Simulator, PendingDemandTermsAreExactIntegers) {
  const auto exact = [](std::int64_t b) {
    const double x = static_cast<double>(b);
    return x / kInferenceGpuFactor == 3.0 * x;
  };
  for (std::int64_t b = 0; b <= (std::int64_t{1} << 20); ++b) {
    ASSERT_TRUE(exact(b)) << b;
  }
  // SubmitJob bounds one job's demand by INT_MAX; a queue's sum can pass it,
  // and stays exact below 2^51.
  for (int bit = 20; bit <= 51; ++bit) {
    const std::int64_t p = std::int64_t{1} << bit;
    for (std::int64_t b : {p - 2, p - 1, p, p + 1}) {
      if (b < (std::int64_t{1} << 51)) {
        ASSERT_TRUE(exact(b)) << b;
      }
    }
  }
  ASSERT_TRUE(exact(INT_MAX));
  ASSERT_TRUE(exact(std::int64_t{INT_MAX} - 1));
  Rng rng(17);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(exact(static_cast<std::int64_t>(rng.UniformInt(0, INT_MAX))));
    ASSERT_TRUE(exact(static_cast<std::int64_t>(rng.NextDouble() * 0x1p51)));
  }
}

TEST(Simulator, PendingDemandRunningSumsMatchSequentialDoubleSums) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const int jobs = static_cast<int>(rng.UniformInt(0, 20000));
    // Small demands most of the time, the INT_MAX bound now and then.
    const std::int64_t max_demand = trial % 4 == 0 ? INT_MAX : 64;
    double eligible_double = 0.0;
    double other_double = 0.0;
    std::int64_t eligible = 0;
    std::int64_t other = 0;
    for (int j = 0; j < jobs; ++j) {
      const auto b = static_cast<int>(rng.UniformInt(1, max_demand));
      if (rng.NextBernoulli(0.3)) {
        eligible_double += b / kInferenceGpuFactor;
        eligible += b;
      } else {
        other_double += b;
        other += b;
      }
    }
    ASSERT_EQ(static_cast<double>(eligible) / kInferenceGpuFactor, eligible_double);
    ASSERT_EQ(static_cast<double>(other), other_double);
  }
}

}  // namespace
}  // namespace lyra
