#include "src/obs/phase_profiler.h"

#include "src/common/check.h"

namespace lyra::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kEventDrain:
      return "event_drain";
    case Phase::kSchedulerTick:
      return "scheduler_tick";
    case Phase::kPlacement:
      return "placement";
    case Phase::kOrchestratorTick:
      return "orchestrator_tick";
    case Phase::kReclaimPolicy:
      return "reclaim_policy";
    case Phase::kFinalize:
      return "finalize";
    case Phase::kCount:
      break;
  }
  return "?";
}

void PhaseProfiler::Begin(Phase phase) {
  stack_.push_back(Frame{phase, Clock::now(), 0.0});
}

PhaseProfiler::SpanResult PhaseProfiler::End() {
  LYRA_CHECK(!stack_.empty());
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - frame.start).count();
  const double self = elapsed - frame.child_sec;
  Agg& agg = agg_[Index(frame.phase)];
  ++agg.calls;
  agg.total_sec += elapsed;
  agg.self_sec += self;
  if (!stack_.empty()) {
    stack_.back().child_sec += elapsed;
  }
  return SpanResult{frame.phase, frame.start, elapsed, self};
}

std::vector<PhaseStat> PhaseProfiler::Stats() const {
  std::vector<PhaseStat> stats;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    if (agg_[i].calls == 0) {
      continue;
    }
    PhaseStat stat;
    stat.name = PhaseName(static_cast<Phase>(i));
    stat.calls = agg_[i].calls;
    stat.total_sec = agg_[i].total_sec;
    stat.self_sec = agg_[i].self_sec;
    stats.push_back(std::move(stat));
  }
  return stats;
}

}  // namespace lyra::obs
