// Layer timing from outside the engine.
//
// TimedScheduler and TimedReclaim implement the engine's own JobScheduler
// and ReclaimPolicy interfaces, forward every call to the real policy, and
// time it. Nothing in the engine type-tests its policies, so a wrapper is
// transparent: decisions are bit-identical with and without it (the outcome
// hash below checks exactly that).
#ifndef LYRABENCH_LAYERS_H_
#define LYRABENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "src/lyra/reclaim.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"

namespace lyrabench {

class TimedScheduler : public lyra::JobScheduler {
 public:
  // `detailed` also records the pending-list length at entry and whether the
  // tick placed any GPU (the traced run); otherwise only call durations.
  TimedScheduler(lyra::JobScheduler* inner, bool detailed)
      : inner_(inner), detailed_(detailed) {}

  const char* name() const override { return inner_->name(); }
  bool tunes_hyperparameters() const override {
    return inner_->tunes_hyperparameters();
  }
  void Schedule(lyra::SchedulerContext& ctx) override;

  const std::vector<double>& tick_seconds() const { return tick_seconds_; }
  const std::vector<std::size_t>& pending_at_entry() const { return pending_; }
  std::uint64_t idle_ticks() const { return idle_ticks_; }

 private:
  lyra::JobScheduler* inner_;
  bool detailed_;
  std::vector<double> tick_seconds_;
  std::vector<std::size_t> pending_;
  std::uint64_t idle_ticks_ = 0;
};

class TimedReclaim : public lyra::ReclaimPolicy {
 public:
  explicit TimedReclaim(lyra::ReclaimPolicy* inner) : inner_(inner) {}

  const char* name() const override { return inner_->name(); }
  lyra::ReclaimResult Reclaim(lyra::ClusterState& cluster, int num_servers) override;

  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::uint64_t servers_requested = 0;
  std::uint64_t servers_vacated = 0;
  std::uint64_t preempted_jobs = 0;

 private:
  lyra::ReclaimPolicy* inner_;
};

// Engine-layer totals over one or more traced simulations: wrapper timings
// plus the simulator's own phase profile (SimulationResult::phases).
class EngineLayers {
 public:
  // `wall_s` is the run's Begin -> Finalize time less any time the caller
  // spent outside the engine in between.
  void Add(const TimedScheduler& scheduler, const TimedReclaim& reclaim,
           const lyra::SimulationResult& result, double wall_s);

  // Sets the sim.*, sched.*, placement.*, reclaim.* and orchestrator.*
  // metrics. With `ledger`, also adds the disjoint phase self times as the
  // report's ledger, which must add up to sim.wall_s.
  void Publish(Report& report, bool ledger) const;

 private:
  std::vector<double> ticks_;
  double pending_sum_ = 0.0;
  double pending_max_ = 0.0;
  std::uint64_t idle_ticks_ = 0;
  std::uint64_t events_ = 0;
  double wall_s_ = 0.0;
  std::uint64_t placement_calls_ = 0;
  // Phase self times, by profiler phase name.
  double drain_ = 0.0, tick_ = 0.0, placement_ = 0.0, orchestrator_ = 0.0;
  double reclaim_phase_ = 0.0, reconcile_ = 0.0, finalize_ = 0.0;
  // Reclaim wrapper totals.
  std::uint64_t reclaim_calls_ = 0, servers_requested_ = 0, servers_vacated_ = 0;
  std::uint64_t preempted_ = 0;
  double reclaim_s_ = 0.0;
};

// FNV-1a over the scheduling outcome of a run: JCT and queuing samples (bit
// patterns), preemptions, scaling operations and the loan/reclaim counters.
// Wall-clock fields are excluded, so equal seeds give equal hashes.
std::uint64_t OutcomeHash(const lyra::SimulationResult& result);

}  // namespace lyrabench

#endif  // LYRABENCH_LAYERS_H_
