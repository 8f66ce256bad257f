// Phase profiler: wall-clock aggregation of the simulator's hot phases.
//
// Spans are opened/closed by the RAII obs::PhaseSpan (see obs.h) around each
// hot region — event-queue drain, scheduler tick, placement, orchestrator
// tick, reclaim policy, final-metrics fold. Spans nest: a phase's *self*
// time excludes enclosed child spans, so summing self_sec over all phases
// approximates the covered wall-clock without double counting — exactly the
// number the ROADMAP's event-queue-batching item needs.
#ifndef SRC_OBS_PHASE_PROFILER_H_
#define SRC_OBS_PHASE_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lyra::obs {

enum class Phase {
  kEventDrain = 0,      // the Run() event loop, minus nested phases
  kSchedulerTick,
  kPlacement,           // placement/allocation work inside a scheduler tick
  kOrchestratorTick,
  kReclaimPolicy,       // ReclaimPolicy::Reclaim inside an orchestrator tick
  kFinalize,            // end-of-run metric folding
  kCount,
};

const char* PhaseName(Phase phase);

// Aggregate for one phase: call count, inclusive wall time, and self time
// (inclusive minus time spent in nested spans).
struct PhaseStat {
  std::string name;
  std::uint64_t calls = 0;
  double total_sec = 0.0;
  double self_sec = 0.0;
};

class PhaseProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  // What End() reports back to the closing span (so the span can forward the
  // timing to the trace exporter without re-reading the clock).
  struct SpanResult {
    Phase phase = Phase::kEventDrain;
    Clock::time_point start{};
    double elapsed_sec = 0.0;
    double self_sec = 0.0;
  };

  void Begin(Phase phase);
  SpanResult End();

  std::uint64_t calls(Phase phase) const { return agg_[Index(phase)].calls; }
  double total_sec(Phase phase) const { return agg_[Index(phase)].total_sec; }
  double self_sec(Phase phase) const { return agg_[Index(phase)].self_sec; }
  int depth() const { return static_cast<int>(stack_.size()); }

  // Phases with at least one call, in enum order.
  std::vector<PhaseStat> Stats() const;

 private:
  struct Agg {
    std::uint64_t calls = 0;
    double total_sec = 0.0;
    double self_sec = 0.0;
  };
  struct Frame {
    Phase phase = Phase::kEventDrain;
    Clock::time_point start{};
    double child_sec = 0.0;
  };

  static std::size_t Index(Phase phase) { return static_cast<std::size_t>(phase); }

  Agg agg_[static_cast<std::size_t>(Phase::kCount)];
  std::vector<Frame> stack_;
};

}  // namespace lyra::obs

#endif  // SRC_OBS_PHASE_PROFILER_H_
