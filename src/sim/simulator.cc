#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

constexpr double kRateEpsilon = 1e-9;

std::string JobArgs(std::int64_t job, int workers) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"job\": %lld, \"workers\": %d",
                static_cast<long long>(job), workers);
  return buf;
}

std::string JobTrackName(std::int64_t job) {
  return "job " + std::to_string(job);
}

bool SeqBefore(const Job* job, std::uint64_t seq) { return job->queue_seq() < seq; }

}  // namespace

Simulator::Simulator(SimulatorOptions options, const Trace& trace,
                     JobScheduler* scheduler, ReclaimPolicy* reclaim_policy,
                     std::unique_ptr<InferenceCluster> inference)
    : options_(options),
      scheduler_(scheduler),
      reclaim_policy_(reclaim_policy),
      inference_(std::move(inference)),
      queue_id_(NewQueueId()) {
  LYRA_CHECK(scheduler_ != nullptr);
  cluster_.ArmChangeLog();

  for (int s = 0; s < options_.training_servers; ++s) {
    cluster_.AddServer(GpuType::kTrainingV100, kGpusPerServer, ServerPool::kTraining);
  }
  if (inference_ != nullptr) {
    const auto& opts = inference_->options();
    total_inference_gpus_ = opts.num_servers * kGpusPerServer;
    for (int s = 0; s < opts.num_servers; ++s) {
      cluster_.AddServer(GpuType::kInferenceT4, kGpusPerServer,
                         ServerPool::kInference);
    }
  }

  Rng rng(options_.seed);
  jobs_.reserve(trace.jobs.size());
  for (const JobSpec& spec : trace.jobs) {
    LYRA_CHECK_EQ(spec.id.value, static_cast<std::int64_t>(jobs_.size()));
    auto job = std::make_unique<Job>(spec);
    // Table 9: inject running-time estimation error for a random fraction of
    // jobs, each with a uniform relative error within kMispredictionMaxError.
    if (options_.misprediction_fraction > 0.0 &&
        rng.NextBernoulli(options_.misprediction_fraction)) {
      const double err = rng.Uniform(-kMispredictionMaxError, kMispredictionMaxError);
      job->set_estimated_total_work(spec.total_work * (1.0 + err));
    }
    jobs_.push_back(std::move(job));
  }
  finish_generation_.assign(jobs_.size(), 0);

  if (options_.max_time <= 0.0) {
    options_.max_time = trace.duration + 7 * kDay;
  }
  meter_cutoff_ = trace.duration;

  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<obs::TraceExporter>(options_.trace_capacity);
    obs_.trace = trace_.get();
    decision_log_.set_trace_exporter(trace_.get());
  }

  // The arrivals stay out of the heap: they are walked in (submit time, id)
  // order beside it, with seqs 0..n-1 as if pushed in job order. A normalized
  // trace is in that order already; only another one gets an order to walk.
  trace_arrivals_ = jobs_.size();
  next_seq_ = trace_arrivals_;
  const auto submit_time = [&](std::size_t job) { return jobs_[job]->spec().submit_time; };
  for (std::size_t job = 1; job < trace_arrivals_; ++job) {
    if (submit_time(job) < submit_time(job - 1)) {
      arrival_order_.resize(trace_arrivals_);
      std::iota(arrival_order_.begin(), arrival_order_.end(), std::size_t{0});
      std::stable_sort(
          arrival_order_.begin(), arrival_order_.end(),
          [&](std::size_t a, std::size_t b) { return submit_time(a) < submit_time(b); });
      break;
    }
  }
  PushEvent(0.0, EventType::kSchedulerTick);
  PushEvent(0.0, EventType::kOrchestratorTick);

  if (options_.faults.enabled) {
    faults_ = std::make_unique<FaultInjector>(options_.faults);
    straggler_generation_.assign(jobs_.size(), 0);
    // Draw order is fixed, so the schedule is a pure function of the seed.
    PushFaultEvent(faults_->NextCrash(0.0), EventType::kServerCrash);
    PushFaultEvent(faults_->NextWorkerFailure(0.0), EventType::kWorkerFailure);
    PushFaultEvent(faults_->NextStorm(0.0), EventType::kRevocationStorm);
    PushFaultEvent(faults_->NextStraggler(0.0), EventType::kStragglerStart);
  }

  result_.total_jobs = jobs_.size();
  result_.queued_flags.assign(jobs_.size(), false);
  result_.submit_times.resize(jobs_.size());
  for (const auto& job : jobs_) {
    result_.submit_times[static_cast<std::size_t>(job->id().value)] =
        job->spec().submit_time;
  }
}

void Simulator::PushEvent(TimeSec time, EventType type, std::int64_t job,
                          std::uint64_t generation) {
  events_.push(Event{time, next_seq_++, type, job, generation});
}

bool Simulator::ArrivalIsNext() const {
  if (next_arrival_ == trace_arrivals_) {
    return false;
  }
  return events_.empty() || events_.top() > NextArrival();
}

void Simulator::Enqueue(Job* job) {
  job->StampQueueSeq();
  pending_.push_back(job);
  const JobSpec& spec = job->spec();
  (spec.fungible || spec.heterogeneous ? eligible_pending_base_ : other_pending_base_) +=
      spec.base_gpus();
}

void Simulator::Dequeued(Job* job) {
  dequeued_.push_back(job);
  const JobSpec& spec = job->spec();
  (spec.fungible || spec.heterogeneous ? eligible_pending_base_ : other_pending_base_) -=
      spec.base_gpus();
}

void Simulator::PushFaultEvent(TimeSec time, EventType type) {
  // Disabled fault classes schedule at +inf; drop instead of queueing.
  if (std::isfinite(time)) {
    PushEvent(time, type);
  }
}

double Simulator::EffectiveRate(const Job& job, const PlacementProfile& profile,
                                const ThroughputModel& model) const {
  const double rate = model.Rate(job.spec(), profile, job.tuned());
  const double factor = job.perf_factor();
  // The explicit 1.0 branch guarantees a healthy job's rate is the exact
  // model rate, keeping faults-disabled runs bit-identical.
  return factor == 1.0 ? rate : rate * factor;
}

double Simulator::OverallUsedGpus(TimeSec now) const {
  double used = static_cast<double>(cluster_.UsedGpus(ServerPool::kTraining) +
                                    cluster_.UsedGpus(ServerPool::kOnLoan));
  if (inference_ != nullptr) {
    used += inference_->BusyGpusAt(now);
  }
  return used;
}

void Simulator::AdvanceMeters(TimeSec now) {
  // Usage is reported over the trace window only; the drain period after the
  // last arrival would otherwise dilute it.
  now = std::min(now, meter_cutoff_);
  const int training_total = cluster_.TotalGpus(ServerPool::kTraining);
  if (training_total == 0) {
    return;
  }
  const double training_used = cluster_.UsedGpus(ServerPool::kTraining);
  training_meter_.Advance(now, training_used / training_total);

  const double overall_total =
      static_cast<double>(training_total + total_inference_gpus_);
  overall_meter_.Advance(now, OverallUsedGpus(now) / overall_total);

  const int onloan_total = cluster_.TotalGpus(ServerPool::kOnLoan);
  if (onloan_total > 0) {
    onloan_meter_.Advance(now, static_cast<double>(cluster_.UsedGpus(ServerPool::kOnLoan)) /
                                   onloan_total);
  } else {
    onloan_meter_.Skip(now);
  }
}

void Simulator::ScheduleFinish(Job& job, TimeSec now) {
  const auto index = static_cast<std::size_t>(job.id().value);
  const std::uint64_t generation = ++finish_generation_[index];
  const TimeSec finish = job.PredictedFinish(now);
  if (std::isfinite(finish)) {
    PushEvent(finish, EventType::kJobFinish, job.id().value, generation);
  }
}

void Simulator::SyncAfterScheduling(TimeSec now) {
  const bool tuner = scheduler_->tunes_hyperparameters();

  // Newly placed pending jobs start now, in queue order. Every running job
  // holds a placement and nothing else does except the jobs just launched,
  // and those gained their placement this round, so the cluster's
  // changed-placement log names them: the start set costs O(changes), not
  // O(queue) or O(running).
  const std::size_t to_start = cluster_.placements().size() - running_.size();
  if (to_start > 0) {
    starting_.clear();
    for (JobId id : cluster_.changed()) {
      Job* job = jobs_[static_cast<std::size_t>(id.value)].get();
      if (job->state() == JobState::kPending && cluster_.FindPlacement(id) != nullptr) {
        starting_.push_back(job);
      }
    }
    std::sort(starting_.begin(), starting_.end(), [](const Job* a, const Job* b) {
      return a->queue_seq() < b->queue_seq();
    });
    starting_.erase(std::unique(starting_.begin(), starting_.end()), starting_.end());
    LYRA_CHECK_EQ(starting_.size(), to_start);
    const ThroughputModel model(options_.throughput);
    // Each start leaves a hole in pending_; the next search starts past it,
    // so no search meets a hole, and one compaction closes them all.
    auto search_from = pending_.begin();
    auto first_hole = pending_.end();
    for (Job* job : starting_) {
      const auto it =
          std::lower_bound(search_from, pending_.end(), job->queue_seq(), SeqBefore);
      LYRA_CHECK(it != pending_.end() && *it == job);
      *it = nullptr;
      first_hole = std::min(first_hole, it);
      search_from = it + 1;
      Dequeued(job);
      job->set_tuned(tuner && job->spec().elastic());
      const PlacementProfile profile = ProfileFor(cluster_, *job);
      job->Start(now, EffectiveRate(*job, profile, model), profile.workers);
      if (trace_ != nullptr) {
        trace_->AsyncBegin(obs::TraceTrack::kJobs, JobTrackName(job->id().value), now,
                           job->id().value, JobArgs(job->id().value, profile.workers));
      }
      if (options_.record_decisions) {
        decision_log_.Append(now, DecisionKind::kJobStart, job->id().value,
                             profile.workers);
      }
      running_.push_back(job);
      ScheduleFinish(*job, now);
      dirty_ = true;
    }
    pending_.erase(std::remove(first_hole, pending_.end(), nullptr), pending_.end());
  }

  // Rate refresh for running jobs whose placement changed since the last
  // sync, in running_ order (ascending start stamp). A job's rate is a
  // function of its placement profile, its straggler factor and its tuned
  // flag, and every write of it goes through EffectiveRate(profile) (the
  // Start above, RefreshScaledIn, the straggler handlers), which keeps it in
  // step with the factor and the flag. So a job whose placement did not move
  // since the last sync would recompute the rate it already has and change
  // nothing, and the change log lists every job that moved: the refresh
  // costs O(changes), not O(running). Any new rate write must also go
  // through EffectiveRate, or this skip stops being exact. The on-loan scan
  // can be skipped too: a server changes pool or health only while idle, so
  // an unchanged placement sits on the same pools.
  moved_.clear();
  for (JobId id : cluster_.changed()) {
    Job* job = jobs_[static_cast<std::size_t>(id.value)].get();
    if (job->state() == JobState::kRunning) {
      moved_.push_back(job);
    }
  }
  std::sort(moved_.begin(), moved_.end(), [](const Job* a, const Job* b) {
    return a->start_seq() < b->start_seq();
  });
  moved_.erase(std::unique(moved_.begin(), moved_.end()), moved_.end());
  const ThroughputModel model(options_.throughput);
  for (Job* job : moved_) {
    const JobPlacement* placement = cluster_.FindPlacement(job->id());
    const PlacementProfile profile = ProfileFor(cluster_, *job);
    const double rate = EffectiveRate(*job, profile, model);
    if (std::fabs(rate - job->rate()) > kRateEpsilon ||
        profile.workers != job->current_workers()) {
      if (trace_ != nullptr && profile.workers != job->current_workers()) {
        trace_->Instant(obs::TraceTrack::kJobs, "scale", now,
                        JobArgs(job->id().value, profile.workers));
      }
      if (options_.record_decisions && profile.workers != job->current_workers()) {
        decision_log_.Append(now, DecisionKind::kJobScale, job->id().value,
                             profile.workers);
      }
      job->UpdateRate(now, rate, profile.workers);
      ScheduleFinish(*job, now);
    }
    // On-loan attribution for Table 7.
    if (placement != nullptr) {
      for (const auto& [server_id, share] : placement->shares) {
        if (cluster_.server(server_id).pool() == ServerPool::kOnLoan) {
          job->set_ever_on_loaned_server();
          break;
        }
      }
    }
  }
  cluster_.ClearChanged();
}

void Simulator::HandleSchedulerTick(TimeSec now) {
  if (!dirty_ && pending_.empty()) {
    if (ticks_skipped_counter_ == nullptr) {
      ticks_skipped_counter_ = obs_.metrics.counter("sim.scheduler_ticks_skipped");
    }
    ticks_skipped_counter_->Add();
    return;
  }
  obs::PhaseSpan tick_span(obs::Phase::kSchedulerTick);
  if (pending_per_tick_ == nullptr) {
    pending_per_tick_ = obs_.metrics.histogram("sim.pending_jobs_per_tick");
  }
  pending_per_tick_->Record(static_cast<double>(pending_.size()));
  SchedulerContext ctx;
  ctx.now = now;
  ctx.cluster = &cluster_;
  ctx.pending = pending_;
  ctx.dequeued = dequeued_;
  ctx.queue_id = queue_id_;
  ctx.round = ++rounds_;
  ctx.running = running_;
  const ThroughputModel model(options_.throughput);
  ctx.throughput = &model;
  ctx.allow_loaned_placement = options_.enable_loaning;
  scheduler_->Schedule(ctx);
  dequeued_.clear();
  dirty_ = false;
  SyncAfterScheduling(now);
  // SyncAfterScheduling re-marks dirty when jobs started; that is fine — it
  // only forces the next tick to re-run, which is conservative.
}

void Simulator::HandleOrchestratorTick(TimeSec now) {
  if (inference_ == nullptr || !options_.enable_loaning) {
    RecordSeriesPoint(now);
    return;
  }
  obs::PhaseSpan tick_span(obs::Phase::kOrchestratorTick);
  // The orchestrator is stateless apart from its counters; a fresh instance
  // per tick keeps the reconcile logic pure, with counters folded into the
  // run-level result below.
  ResourceOrchestrator orchestrator(reclaim_policy_);
  const int allowance = inference_->TargetLoanedServers(now);
  // Demand-aware loaning: hold the servers that are already hosting work,
  // and take extra servers only for the loan-eligible pending demand. Idle
  // loans would be reclaimed under jobs for nothing and drag on-loan usage.
  int occupied_loaned = 0;
  for (ServerId id : cluster_.ServersInPool(ServerPool::kOnLoan)) {
    if (!cluster_.server(id).idle()) {
      ++occupied_loaned;
    }
  }
  // Loan-eligible pending demand in physical T4 GPUs, and the rest in
  // training GPUs. Each job's term is an integer (b / kInferenceGpuFactor is
  // exactly 3b below 2^51, see simulator_test), so the running integer sums
  // equal the per-job double sums in any order (DESIGN.md).
  const double eligible_pending_gpus =
      static_cast<double>(eligible_pending_base_) / kInferenceGpuFactor;
  const double noneligible_pending = static_cast<double>(other_pending_base_);
  const int current_loaned = cluster_.NumServersInPool(ServerPool::kOnLoan);
  // Borrow only for pending demand that free training capacity cannot absorb:
  // pending jobs take training GPUs first, so loans sized to the raw pending
  // demand would sit idle (and be reclaimed under future jobs for nothing).
  const double training_free_for_eligible =
      std::max(0.0, cluster_.FreeGpus(ServerPool::kTraining) - noneligible_pending);
  const double unmet_normalized =
      std::max(0.0, eligible_pending_gpus * kInferenceGpuFactor -
                        training_free_for_eligible);
  const int demand_target =
      occupied_loaned + static_cast<int>(std::ceil(
                            unmet_normalized / kInferenceGpuFactor / kGpusPerServer));
  int target = std::min(allowance, demand_target);
  // Reclaim hysteresis: the inference scheduler asks servers back in bulk
  // rather than trickling one server per interval — small deficits ride on
  // the headroom until a chunk's worth accumulates.
  int chunk = options_.reclaim_chunk;
  if (chunk <= 0) {
    chunk = std::max(1, inference_->options().num_servers / 32);
  }
  if (target < current_loaned && current_loaned - target < chunk && target > 0) {
    target = current_loaned;
  }
  ReclaimResult reclaim = orchestrator.Reconcile(cluster_, target);

  const OrchestratorStats& stats = orchestrator.stats();
  result_.orchestrator.Add(stats);

  if (!reclaim.preempted.empty() || !reclaim.scaled_in.empty() ||
      stats.servers_loaned > 0 || stats.servers_returned > 0) {
    dirty_ = true;
  }
  if (trace_ != nullptr) {
    trace_->Counter(obs::TraceTrack::kLoans, "loaned_servers", now,
                    static_cast<double>(cluster_.NumServersInPool(ServerPool::kOnLoan)));
    char args[96];
    if (stats.servers_loaned > 0) {
      std::snprintf(args, sizeof(args), "\"servers\": %d", stats.servers_loaned);
      trace_->Instant(obs::TraceTrack::kLoans, "loan", now, args);
    }
    if (stats.servers_returned > 0) {
      std::snprintf(args, sizeof(args),
                    "\"servers\": %d, \"preempted\": %zu, \"scaled_in\": %zu",
                    stats.servers_returned, reclaim.preempted.size(),
                    reclaim.scaled_in.size());
      trace_->Instant(obs::TraceTrack::kReclaims, "reclaim", now, args);
    }
  }
  if (options_.record_decisions) {
    if (stats.servers_loaned > 0) {
      decision_log_.Append(now, DecisionKind::kServersLoaned, stats.servers_loaned, 0);
    }
    if (stats.servers_returned > 0) {
      decision_log_.Append(now, DecisionKind::kServersReturned, stats.servers_returned,
                           0);
    }
  }

  PreemptAndRequeue(now, reclaim.preempted, obs::TraceTrack::kReclaims,
                    "\"reason\": \"preempted\"");
  RefreshScaledIn(now, reclaim.scaled_in);

  RecordSeriesPoint(now);
}

void Simulator::PreemptAndRequeue(TimeSec now, const std::vector<JobId>& preempted,
                                  obs::TraceTrack track, const char* end_reason) {
  for (JobId id : preempted) {
    Job* job = jobs_[static_cast<std::size_t>(id.value)].get();
    LYRA_CHECK(job->state() == JobState::kRunning);
    job->Preempt(now, kPreemptionOverhead,
                 options_.checkpoint_interval * job->spec().min_workers);
    if (trace_ != nullptr) {
      trace_->Instant(track, "preempt", now, JobArgs(id.value, job->current_workers()));
      trace_->AsyncEnd(obs::TraceTrack::kJobs, JobTrackName(id.value), now, id.value,
                       end_reason);
    }
    if (options_.record_decisions) {
      decision_log_.Append(now, DecisionKind::kJobPreempt, id.value, 0);
    }
    ++result_.preemptions;
    running_.erase(std::find(running_.begin(), running_.end(), job));
    Enqueue(job);
    ++finish_generation_[static_cast<std::size_t>(id.value)];  // invalidate finish
  }
}

void Simulator::RefreshScaledIn(TimeSec now, const std::vector<JobId>& scaled_in) {
  // Scaled-in jobs keep running at a lower rate.
  const ThroughputModel model(options_.throughput);
  for (JobId id : scaled_in) {
    Job* job = jobs_[static_cast<std::size_t>(id.value)].get();
    if (job->state() != JobState::kRunning) {
      continue;  // also appeared in the preempted list
    }
    const PlacementProfile profile = ProfileFor(cluster_, *job);
    job->UpdateRate(now, EffectiveRate(*job, profile, model), profile.workers);
    ScheduleFinish(*job, now);
  }
}

// --- Fault handlers (DESIGN.md §7) ------------------------------------------

void Simulator::HandleServerCrash(TimeSec now) {
  // Reschedule first so the injector's draw order is independent of cluster
  // state (the schedule depends only on the fault seed).
  PushFaultEvent(faults_->NextCrash(now), EventType::kServerCrash);
  const std::vector<ServerId> candidates = cluster_.TrainingVisibleServers();
  if (candidates.empty()) {
    return;  // everything already down; the draw above keeps the clock going
  }
  const ServerId victim = candidates[faults_->PickIndex(candidates.size())];

  // Vacate like a reclaim would: jobs with base GPUs on the victim die (and
  // re-enter the queue with checkpoint-restore semantics), flexible-only
  // residents just scale in.
  ReclaimResult vacated;
  VacateServer(cluster_, victim, vacated);
  PreemptAndRequeue(now, vacated.preempted, obs::TraceTrack::kFaults,
                    "\"reason\": \"server_crash\"");
  RefreshScaledIn(now, vacated.scaled_in);
  LYRA_CHECK(cluster_.MarkServerDown(victim).ok());
  PushEvent(faults_->DrawRecovery(now), EventType::kServerRecovery, victim.value);

  faults_->Record({now, FaultKind::kServerCrash, victim.value,
                   static_cast<int>(vacated.preempted.size())});
  faults_->stats().jobs_scaled_in += static_cast<int>(vacated.scaled_in.size());
  obs_.metrics.counter("sim.faults.server_crashes")->Add();
  if (trace_ != nullptr) {
    char args[96];
    std::snprintf(args, sizeof(args), "\"server\": %lld, \"killed\": %zu",
                  static_cast<long long>(victim.value), vacated.preempted.size());
    trace_->Instant(obs::TraceTrack::kFaults, "server_crash", now, args);
  }
  dirty_ = true;
}

void Simulator::HandleServerRecovery(TimeSec now, std::int64_t server) {
  LYRA_CHECK(cluster_.MarkServerUp(ServerId(server)).ok());
  faults_->Record({now, FaultKind::kServerRecovery, server, 0});
  obs_.metrics.counter("sim.faults.server_recoveries")->Add();
  if (trace_ != nullptr) {
    char args[48];
    std::snprintf(args, sizeof(args), "\"server\": %lld",
                  static_cast<long long>(server));
    trace_->Instant(obs::TraceTrack::kFaults, "server_recovery", now, args);
  }
  dirty_ = true;
}

void Simulator::HandleWorkerFailure(TimeSec now) {
  PushFaultEvent(faults_->NextWorkerFailure(now), EventType::kWorkerFailure);
  if (running_.empty()) {
    return;
  }
  Job* job = running_[faults_->PickIndex(running_.size())];
  // One worker of the gang restarts; the whole gang waits for it.
  job->Stall(now, options_.faults.worker_restart_delay);
  ScheduleFinish(*job, now);
  faults_->Record({now, FaultKind::kWorkerFailure, job->id().value, 0});
  obs_.metrics.counter("sim.faults.worker_failures")->Add();
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceTrack::kFaults, "worker_failure", now,
                    JobArgs(job->id().value, job->current_workers()));
  }
}

void Simulator::HandleRevocationStorm(TimeSec now) {
  PushFaultEvent(faults_->NextStorm(now), EventType::kRevocationStorm);
  if (inference_ == nullptr || !options_.enable_loaning ||
      reclaim_policy_ == nullptr) {
    return;
  }
  const int loaned = cluster_.NumServersInPool(ServerPool::kOnLoan);
  if (loaned == 0) {
    // The storm still "happened" (the inference side spiked); there was just
    // nothing to revoke. Record it so firing counts are seed-deterministic
    // regardless of loan timing.
    faults_->Record({now, FaultKind::kRevocationStorm, 0, 0});
    obs_.metrics.counter("sim.faults.revocation_storms")->Add();
    return;
  }
  const int revoke = faults_->StormSize(loaned);

  // Damage estimate: run the reclaim on a copy. The policy must run (random
  // reclaiming draws from its RNG), but the live state must not change.
  // Storms are rare, so the O(cluster) copy stays off the hot path.
  ClusterState whatif = cluster_.Clone();
  const std::size_t estimated_preemptions =
      reclaim_policy_->Reclaim(whatif, revoke).preempted.size();

  // The real revocation: drive the loaned count down by `revoke` through the
  // regular orchestrator path (reclaim, then return of the emptied servers).
  ResourceOrchestrator orchestrator(reclaim_policy_);
  const ReclaimResult reclaim =
      orchestrator.Reconcile(cluster_, loaned - revoke);
  const OrchestratorStats& stats = orchestrator.stats();
  result_.orchestrator.Add(stats);
  PreemptAndRequeue(now, reclaim.preempted, obs::TraceTrack::kFaults,
                    "\"reason\": \"revocation_storm\"");
  RefreshScaledIn(now, reclaim.scaled_in);

  faults_->Record({now, FaultKind::kRevocationStorm, stats.servers_returned,
                   static_cast<int>(reclaim.preempted.size())});
  obs_.metrics.counter("sim.faults.revocation_storms")->Add();
  if (trace_ != nullptr) {
    char args[128];
    std::snprintf(args, sizeof(args),
                  "\"revoked\": %d, \"preempted\": %zu, \"estimated\": %zu",
                  stats.servers_returned, reclaim.preempted.size(),
                  estimated_preemptions);
    trace_->Instant(obs::TraceTrack::kFaults, "revocation_storm", now, args);
  }
  dirty_ = true;
}

void Simulator::HandleStragglerStart(TimeSec now) {
  PushFaultEvent(faults_->NextStraggler(now), EventType::kStragglerStart);
  if (running_.empty()) {
    return;
  }
  Job* job = running_[faults_->PickIndex(running_.size())];
  if (job->perf_factor() != 1.0) {
    return;  // already degraded; don't stack slowdowns
  }
  job->set_perf_factor(options_.faults.straggler_factor);
  const ThroughputModel model(options_.throughput);
  const PlacementProfile profile = ProfileFor(cluster_, *job);
  job->UpdateRate(now, EffectiveRate(*job, profile, model), profile.workers);
  ScheduleFinish(*job, now);
  const auto index = static_cast<std::size_t>(job->id().value);
  const std::uint64_t generation = ++straggler_generation_[index];
  PushEvent(now + options_.faults.straggler_duration, EventType::kStragglerEnd,
            job->id().value, generation);
  faults_->Record({now, FaultKind::kStragglerStart, job->id().value, 0});
  obs_.metrics.counter("sim.faults.stragglers")->Add();
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceTrack::kFaults, "straggler_start", now,
                    JobArgs(job->id().value, job->current_workers()));
  }
}

void Simulator::HandleStragglerEnd(TimeSec now, std::int64_t job_index,
                                   std::uint64_t generation) {
  const auto index = static_cast<std::size_t>(job_index);
  if (straggler_generation_[index] != generation) {
    return;  // superseded by a newer straggler
  }
  Job* job = jobs_[index].get();
  if (job->state() != JobState::kRunning) {
    return;  // a preemption or finish already cleared the factor
  }
  job->set_perf_factor(1.0);
  const ThroughputModel model(options_.throughput);
  const PlacementProfile profile = ProfileFor(cluster_, *job);
  job->UpdateRate(now, EffectiveRate(*job, profile, model), profile.workers);
  ScheduleFinish(*job, now);
  faults_->Record({now, FaultKind::kStragglerEnd, job_index, 0});
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceTrack::kFaults, "straggler_end", now,
                    JobArgs(job_index, job->current_workers()));
  }
}

void Simulator::RecordSeriesPoint(TimeSec now) {
  if (!options_.record_series) {
    return;
  }
  SeriesPoint point;
  point.time = now;
  const int training_total = cluster_.TotalGpus(ServerPool::kTraining);
  point.training_usage =
      static_cast<double>(cluster_.UsedGpus(ServerPool::kTraining)) / training_total;
  const double overall_total =
      static_cast<double>(training_total + total_inference_gpus_);
  point.overall_usage = OverallUsedGpus(now) / overall_total;
  const int onloan_total = cluster_.TotalGpus(ServerPool::kOnLoan);
  point.onloan_usage =
      onloan_total > 0
          ? static_cast<double>(cluster_.UsedGpus(ServerPool::kOnLoan)) / onloan_total
          : -1.0;
  point.loaned_servers = cluster_.NumServersInPool(ServerPool::kOnLoan);
  point.pending_jobs = static_cast<int>(pending_.size());
  result_.series.push_back(point);
}

void Simulator::HandleFinish(TimeSec now, std::int64_t job_index,
                             std::uint64_t generation) {
  const auto index = static_cast<std::size_t>(job_index);
  if (finish_generation_[index] != generation) {
    return;  // stale event from a superseded allocation
  }
  Job* job = jobs_[index].get();
  if (job->state() != JobState::kRunning) {
    return;
  }
  job->Finish(now);
  if (trace_ != nullptr) {
    trace_->AsyncEnd(obs::TraceTrack::kJobs, JobTrackName(job->id().value), now,
                     job->id().value, "\"reason\": \"finished\"");
  }
  if (options_.record_decisions) {
    decision_log_.Append(now, DecisionKind::kJobFinish, job->id().value, 0);
  }
  if (options_.use_profiler) {
    profiler_.ObserveCompletion(job->spec());
  }
  cluster_.RemoveJob(job->id());
  running_.erase(std::find(running_.begin(), running_.end(), job));
  ++finished_count_;
  dirty_ = true;
}

void Simulator::Begin() {
  if (began_) {
    return;
  }
  began_ = true;
  wall_start_ = std::chrono::steady_clock::now();
  if (trace_ != nullptr) {
    trace_->SetWallEpoch(wall_start_);
  }
  obs::ScopedObsContext obs_scope(&obs_);
  // Pre-register the hot per-event counters and cache their (stable)
  // addresses: StepUntil bumps one per event and a string-keyed lookup per
  // event costs real throughput at online-service rates. This also keeps
  // sim.ticks_coalesced present (at 0) even when the periodic schedule
  // never produces a same-timestamp duplicate to collapse.
  arrival_counter_ = obs_.metrics.counter("sim.events.arrival");
  finish_counter_ = obs_.metrics.counter("sim.events.finish");
  scheduler_tick_counter_ = obs_.metrics.counter("sim.events.scheduler_tick");
  orchestrator_tick_counter_ =
      obs_.metrics.counter("sim.events.orchestrator_tick");
  fault_counter_ = obs_.metrics.counter("sim.events.fault");
  ticks_coalesced_counter_ = obs_.metrics.counter("sim.ticks_coalesced");
}

bool Simulator::StepUntil(TimeSec horizon, std::uint64_t max_events) {
  Begin();
  // Install this run's observability context on the current thread: all
  // obs::AddCounter/PhaseSpan calls below (including ones deep inside the
  // schedulers and reclaim policies) land in obs_, never in another
  // simulation's registry. Parallel runs on different threads stay disjoint.
  obs::ScopedObsContext obs_scope(&obs_);
  obs::PhaseSpan drain_span(obs::Phase::kEventDrain);
  if (hit_max_time_) {
    return false;
  }
  std::uint64_t stepped = 0;
  while (HasEvent() && finished_count_ < jobs_.size()) {
    const bool arrival = ArrivalIsNext();
    const Event event = arrival ? NextArrival() : events_.top();
    if (event.time > horizon) {
      return false;
    }
    if (stepped >= max_events) {
      return true;
    }
    if (arrival) {
      ++next_arrival_;
    } else {
      events_.pop();
    }
    if (event.time > options_.max_time) {
      LYRA_LOG_WARNING("simulation hit max_time with %zu/%zu jobs finished",
                       finished_count_, jobs_.size());
      hit_max_time_ = true;
      break;
    }
    // Coalesce queued duplicates of a periodic tick: absorb the run of
    // same-type tick events at this timestamp so the handler (a full
    // scheduling or orchestration pass over an unchanged cluster) fires
    // once for the whole run. Events keep their strict (time, seq) order
    // otherwise — an arrival or finish queued between two ticks still
    // lands between them, so fixed-seed runs stay bit-identical.
    if (event.type == EventType::kSchedulerTick ||
        event.type == EventType::kOrchestratorTick) {
      while (!ArrivalIsNext() && !events_.empty() && events_.top().time == event.time &&
             events_.top().type == event.type) {
        events_.pop();
        ++result_.events_processed;
        ++stepped;
        ticks_coalesced_counter_->Add();
      }
    }
    ++result_.events_processed;
    ++stepped;
    LYRA_CHECK_GE(event.time, now_);
    AdvanceMeters(event.time);
    now_ = event.time;

    switch (event.type) {
      case EventType::kJobArrival: {
        arrival_counter_->Add();
        Job* job = jobs_[static_cast<std::size_t>(event.job)].get();
        if (job->state() == JobState::kCancelled) {
          break;  // cancelled online before arriving
        }
        if (options_.use_profiler) {
          job->set_estimated_total_work(profiler_.EstimateTotalWork(job->spec()));
        }
        Enqueue(job);
        dirty_ = true;
        break;
      }
      case EventType::kJobFinish:
        finish_counter_->Add();
        HandleFinish(now_, event.job, event.generation);
        break;
      case EventType::kSchedulerTick:
        scheduler_tick_counter_->Add();
        HandleSchedulerTick(now_);
        if (now_ >= next_scheduler_tick_) {
          next_scheduler_tick_ = now_ + kSchedulerInterval;
          PushEvent(next_scheduler_tick_, EventType::kSchedulerTick);
        }
        break;
      case EventType::kOrchestratorTick:
        orchestrator_tick_counter_->Add();
        HandleOrchestratorTick(now_);
        if (now_ >= next_orchestrator_tick_) {
          next_orchestrator_tick_ = now_ + kOrchestratorInterval;
          PushEvent(next_orchestrator_tick_, EventType::kOrchestratorTick);
        }
        break;
      case EventType::kServerCrash:
        fault_counter_->Add();
        HandleServerCrash(now_);
        break;
      case EventType::kServerRecovery:
        fault_counter_->Add();
        HandleServerRecovery(now_, event.job);
        break;
      case EventType::kWorkerFailure:
        fault_counter_->Add();
        HandleWorkerFailure(now_);
        break;
      case EventType::kRevocationStorm:
        fault_counter_->Add();
        HandleRevocationStorm(now_);
        break;
      case EventType::kStragglerStart:
        fault_counter_->Add();
        HandleStragglerStart(now_);
        break;
      case EventType::kStragglerEnd:
        fault_counter_->Add();
        HandleStragglerEnd(now_, event.job, event.generation);
        break;
    }
  }
  return false;
}

StatusOr<JobId> Simulator::SubmitJob(JobSpec spec) {
  if (spec.total_work <= 0.0) {
    return Status::InvalidArgument("total_work must be positive");
  }
  if (spec.gpus_per_worker < 1 || spec.min_workers < 1 ||
      spec.max_workers < spec.min_workers) {
    return Status::InvalidArgument("bad worker spec (need gpus_per_worker >= 1, "
                                   "1 <= min_workers <= max_workers)");
  }
  if (static_cast<std::int64_t>(spec.max_workers) * spec.gpus_per_worker >
      std::numeric_limits<int>::max()) {
    // Demands are computed in int (base_gpus, max_gpus, phase one).
    return Status::InvalidArgument("max_workers * gpus_per_worker overflows int");
  }
  if (spec.requested_workers < 0 || spec.requested_workers > spec.max_workers) {
    return Status::InvalidArgument("requested_workers out of range");
  }
  spec.id = JobId(static_cast<std::int64_t>(jobs_.size()));
  if (spec.submit_time < now_) {
    spec.submit_time = now_;  // arrivals cannot predate the event frontier
  }
  jobs_.push_back(std::make_unique<Job>(spec));
  if (job_dirty_sink_ != nullptr) {
    jobs_.back()->ArmDirtySink(job_dirty_sink_);
  }
  finish_generation_.push_back(0);
  if (faults_ != nullptr) {
    straggler_generation_.push_back(0);
  }
  ++result_.total_jobs;
  result_.queued_flags.push_back(false);
  result_.submit_times.push_back(spec.submit_time);
  PushEvent(spec.submit_time, EventType::kJobArrival, spec.id.value);
  return spec.id;
}

Status Simulator::CancelJob(JobId id) {
  if (!id.valid() || static_cast<std::size_t>(id.value) >= jobs_.size()) {
    return Status::NotFound("no such job: " + std::to_string(id.value));
  }
  Job* job = jobs_[static_cast<std::size_t>(id.value)].get();
  if (job->state() == JobState::kFinished || job->state() == JobState::kCancelled) {
    return Status::FailedPrecondition("job " + std::to_string(id.value) +
                                      " already terminated");
  }
  obs::ScopedObsContext obs_scope(&obs_);
  if (job->state() == JobState::kRunning) {
    cluster_.RemoveJob(id);
    running_.erase(std::find(running_.begin(), running_.end(), job));
    ++finish_generation_[static_cast<std::size_t>(id.value)];  // stale finish
    if (trace_ != nullptr) {
      trace_->AsyncEnd(obs::TraceTrack::kJobs, JobTrackName(id.value), now_, id.value,
                       "\"reason\": \"cancelled\"");
    }
  } else {
    // Pending: may or may not have arrived yet (the arrival event skips
    // cancelled jobs, so a pre-arrival cancel needs no queue surgery).
    // pending_ is ascending in queue_seq.
    const auto it =
        std::lower_bound(pending_.begin(), pending_.end(), job->queue_seq(), SeqBefore);
    if (it != pending_.end() && *it == job) {
      pending_.erase(it);
      Dequeued(job);
    }
  }
  job->Cancel(now_);
  ++finished_count_;
  ++cancelled_count_;
  dirty_ = true;
  if (options_.record_decisions) {
    decision_log_.Append(now_, DecisionKind::kJobCancel, id.value, 0);
  }
  obs_.metrics.counter("sim.jobs_cancelled")->Add();
  return Status::Ok();
}

SimulationResult Simulator::Run() {
  Begin();
  StepUntil(std::numeric_limits<double>::infinity());
  return Finalize();
}

SimulationResult Simulator::Finalize() {
  Begin();
  obs::ScopedObsContext obs_scope(&obs_);
  {
    // Covers everything after the drain — meter close-out and the result
    // folding — so phase self times account for (nearly) all of
    // wall_seconds.
    obs::PhaseSpan finalize_span(obs::Phase::kFinalize);
    // Close the usage meters at the end of the trace window: the run may end
    // (all jobs finished) before the window does, leaving idle time uncounted.
    AdvanceMeters(meter_cutoff_);

    // --- Final metrics -------------------------------------------------------
    result_.finished_jobs = finished_count_ - cancelled_count_;
    for (const auto& job : jobs_) {
      if (job->state() != JobState::kFinished) {
        continue;
      }
      const double queuing = job->QueuingTime();
      const double jct = job->Jct();
      result_.queuing_samples.push_back(queuing);
      result_.jct_samples.push_back(jct);
      if (job->ever_on_loaned_server()) {
        result_.queuing_on_loan_samples.push_back(queuing);
        result_.jct_on_loan_samples.push_back(jct);
      }
      result_.queued_flags[static_cast<std::size_t>(job->id().value)] =
          queuing > kSchedulerInterval + 1.0;
      result_.scaling_operations += job->scaling_operations();
    }
    result_.queuing = Summarize(result_.queuing_samples);
    result_.jct = Summarize(result_.jct_samples);
    result_.queuing_on_loan = Summarize(result_.queuing_on_loan_samples);
    result_.jct_on_loan = Summarize(result_.jct_on_loan_samples);
    result_.profiler_error = profiler_.mean_relative_error();
    if (faults_ != nullptr) {
      result_.faults = faults_->stats();
      result_.fault_log_hash = faults_->log_hash();
    }
    result_.training_usage = training_meter_.mean();
    result_.overall_usage =
        inference_ != nullptr ? overall_meter_.mean() : training_meter_.mean();
    result_.onloan_usage = onloan_meter_.mean();
    result_.preemption_ratio =
        jobs_.empty() ? 0.0
                      : static_cast<double>(result_.preemptions) /
                            static_cast<double>(jobs_.size());
    const int demanded_gpus = result_.orchestrator.servers_returned * kGpusPerServer;
    result_.collateral_damage =
        demanded_gpus > 0
            ? static_cast<double>(result_.orchestrator.collateral_gpus) / demanded_gpus
            : 0.0;
  }
  result_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
          .count();
  result_.events_per_sec =
      result_.wall_seconds > 0.0
          ? static_cast<double>(result_.events_processed) / result_.wall_seconds
          : 0.0;
  result_.phases = obs_.profiler.Stats();
  if (trace_ != nullptr) {
    result_.trace_events_dropped = trace_->dropped();
    const Status status = trace_->WriteJson(options_.trace_path);
    if (!status.ok()) {
      LYRA_LOG_ERROR("failed to write trace to %s: %s", options_.trace_path.c_str(),
                     status.message().c_str());
    }
  }
  return result_;
}

}  // namespace lyra
