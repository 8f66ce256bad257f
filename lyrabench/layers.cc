#include "layers.h"

#include <cstring>

#include "bench.h"

namespace lyrabench {
namespace {

class Fnv {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void Doubles(const std::vector<double>& values) {
    U64(values.size());
    for (double v : values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      U64(bits);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

const lyra::obs::PhaseStat* FindPhase(const lyra::SimulationResult& result,
                                      const char* phase) {
  for (const lyra::obs::PhaseStat& stat : result.phases) {
    if (stat.name == phase) {
      return &stat;
    }
  }
  return nullptr;
}

double PhaseSelf(const lyra::SimulationResult& result, const char* phase) {
  const lyra::obs::PhaseStat* stat = FindPhase(result, phase);
  return stat != nullptr ? stat->self_sec : 0.0;
}

}  // namespace

void TimedScheduler::Schedule(lyra::SchedulerContext& ctx) {
  if (!detailed_) {
    const double start = NowSeconds();
    inner_->Schedule(ctx);
    tick_seconds_.push_back(NowSeconds() - start);
    return;
  }
  pending_.push_back(ctx.pending.size());
  const int used_before = ctx.cluster->TrainingSideUsedGpus();
  const double start = NowSeconds();
  inner_->Schedule(ctx);
  tick_seconds_.push_back(NowSeconds() - start);
  if (ctx.cluster->TrainingSideUsedGpus() <= used_before) {
    ++idle_ticks_;
  }
}

lyra::ReclaimResult TimedReclaim::Reclaim(lyra::ClusterState& cluster,
                                          int num_servers) {
  const double start = NowSeconds();
  lyra::ReclaimResult result = inner_->Reclaim(cluster, num_servers);
  seconds += NowSeconds() - start;
  ++calls;
  servers_requested += static_cast<std::uint64_t>(num_servers);
  servers_vacated += result.vacated.size();
  preempted_jobs += result.preempted.size();
  return result;
}

void EngineLayers::Add(const TimedScheduler& scheduler, const TimedReclaim& reclaim,
                       const lyra::SimulationResult& result, double wall_s) {
  ticks_.insert(ticks_.end(), scheduler.tick_seconds().begin(),
                scheduler.tick_seconds().end());
  for (std::size_t pending : scheduler.pending_at_entry()) {
    pending_sum_ += static_cast<double>(pending);
    pending_max_ = std::max(pending_max_, static_cast<double>(pending));
  }
  idle_ticks_ += scheduler.idle_ticks();
  events_ += result.events_processed;
  wall_s_ += wall_s;
  const lyra::obs::PhaseStat* placement = FindPhase(result, "placement");
  placement_calls_ += placement != nullptr ? placement->calls : 0;
  drain_ += PhaseSelf(result, "event_drain");
  tick_ += PhaseSelf(result, "scheduler_tick");
  placement_ += PhaseSelf(result, "placement");
  orchestrator_ += PhaseSelf(result, "orchestrator_tick");
  reclaim_phase_ += PhaseSelf(result, "reclaim_policy");
  reconcile_ += PhaseSelf(result, "rm_reconcile");
  finalize_ += PhaseSelf(result, "finalize");
  reclaim_calls_ += reclaim.calls;
  reclaim_s_ += reclaim.seconds;
  servers_requested_ += reclaim.servers_requested;
  servers_vacated_ += reclaim.servers_vacated;
  preempted_ += reclaim.preempted_jobs;
}

void EngineLayers::Publish(Report& report, bool ledger) const {
  double tick_s = 0.0;
  for (double t : ticks_) {
    tick_s += t;
  }
  const double n = static_cast<double>(ticks_.size());
  report.Set("sim.wall_s", wall_s_, "s");
  report.Set("sim.events", static_cast<double>(events_), "count");
  report.Set("sim.event_drain_self_s", drain_, "s");
  report.Set("sim.finalize_self_s", finalize_, "s");
  report.Set("sched.tick_calls", n, "count");
  report.Set("sched.tick_s", tick_s, "s");
  report.Set("sched.tick_p50_us", Quantile(ticks_, 0.5) * 1e6, "us");
  report.Set("sched.tick_p99_us", Quantile(ticks_, 0.99) * 1e6, "us");
  report.Set("sched.tick_max_ms", Quantile(ticks_, 1.0) * 1e3, "ms");
  report.Set("sched.pending_mean", n > 0 ? pending_sum_ / n : 0.0, "count");
  report.Set("sched.pending_max", pending_max_, "count");
  report.Set("sched.idle_tick_share",
             n > 0 ? static_cast<double>(idle_ticks_) / n : 0.0, "share");
  report.Set("sched.tick_self_s", tick_, "s");
  report.Set("placement.calls", static_cast<double>(placement_calls_), "count");
  report.Set("placement.self_s", placement_, "s");
  report.Set("reclaim.calls", static_cast<double>(reclaim_calls_), "count");
  report.Set("reclaim.s", reclaim_s_, "s");
  report.Set("reclaim.servers_requested", static_cast<double>(servers_requested_),
             "count");
  report.Set("reclaim.servers_vacated", static_cast<double>(servers_vacated_), "count");
  report.Set("reclaim.preempted_jobs", static_cast<double>(preempted_), "count");
  report.Set("orchestrator.self_s", orchestrator_, "s");
  if (!ledger) {
    return;
  }
  report.AddLedger("sim.event_drain_self_s", drain_);
  report.AddLedger("sched.tick_self_s", tick_);
  report.AddLedger("placement.self_s", placement_);
  report.AddLedger("orchestrator.self_s", orchestrator_);
  report.AddLedger("reclaim.self_s", reclaim_phase_);
  report.AddLedger("rm.reconcile_self_s", reconcile_);
  report.AddLedger("sim.finalize_self_s", finalize_);
  report.SetLedgerTotal("sim.wall_s", wall_s_);
}

std::uint64_t OutcomeHash(const lyra::SimulationResult& result) {
  Fnv fnv;
  fnv.U64(result.total_jobs);
  fnv.U64(result.finished_jobs);
  fnv.Doubles(result.jct_samples);
  fnv.Doubles(result.queuing_samples);
  fnv.U64(static_cast<std::uint64_t>(result.preemptions));
  fnv.U64(static_cast<std::uint64_t>(result.scaling_operations));
  const lyra::OrchestratorStats& o = result.orchestrator;
  for (int v : {o.loan_operations, o.reclaim_operations, o.servers_loaned,
                o.servers_returned, o.jobs_preempted, o.collateral_gpus}) {
    fnv.U64(static_cast<std::uint64_t>(v));
  }
  return fnv.value();
}

}  // namespace lyrabench
