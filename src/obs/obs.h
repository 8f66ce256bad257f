// Observability context: the bundle a simulation records into.
//
// The Simulator owns one ObsContext (metrics registry + phase profiler +
// optional trace exporter) and installs it as the *thread-current* context
// for the duration of Run() via ScopedObsContext. Components deeper in the
// stack — schedulers, reclaim policies, the orchestrator, the inference
// cluster — record through the free functions below, which resolve the
// thread-local and no-op when none is installed (e.g. unit tests driving a
// scheduler directly). One simulation runs entirely on one thread, so
// parallel bench runs each see their own disjoint context.
//
// Cost model: with no context installed every call is a TLS load plus a
// branch; with one installed, counters are a map lookup (cache the pointer on
// hot paths) and spans are two steady_clock reads per phase — both far off
// the per-event critical path. Nothing here feeds back into simulation
// state, so results are bit-identical with observability on or off.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/phase_profiler.h"
#include "src/obs/trace_exporter.h"

namespace lyra::obs {

// Counters bumped on every scheduling round or placement attempt. A context
// resolves each one's Counter* at its first use and keeps it, so these skip
// the string-keyed lookup and the registry still gains each counter exactly
// when AddCounter by name would have created it. The slots live in the
// context, so they never outlive the registry they point into.
enum class HotCounter {
  kPlacementAttempts,
  kPlacementWorkersPlaced,
  kPlacementFailures,
  kMckpSolves,
  kMckpCells,
  kSchedLaunched,
  kSchedLaunchFailures,
  kSchedScaleOuts,
  kSchedScaleIns,
  kCount,
};

struct ObsContext {
  MetricsRegistry metrics;
  PhaseProfiler profiler;
  TraceExporter* trace = nullptr;  // not owned; null unless tracing is enabled
  // HotCounter slots into `metrics`, null until first used.
  std::array<Counter*, static_cast<std::size_t>(HotCounter::kCount)> hot{};
};

// The context installed on this thread, or nullptr.
ObsContext* Current();

// Installs `context` as thread-current for the scope's lifetime, restoring
// the previous one on exit (scopes may nest).
class ScopedObsContext {
 public:
  explicit ScopedObsContext(ObsContext* context);
  ~ScopedObsContext();

  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  ObsContext* previous_;
};

// RAII phase span against the thread-current context; no-op when none is
// installed. Closing the span folds the timing into the profiler and, when
// tracing is enabled, emits a wall-clock span on the phases track.
class PhaseSpan {
 public:
  explicit PhaseSpan(Phase phase) : context_(Current()) {
    if (context_ != nullptr) {
      context_->profiler.Begin(phase);
    }
  }
  ~PhaseSpan();

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  ObsContext* context_;
};

// Convenience recorders against the thread-current context (no-ops without
// one). Hot loops should instead cache a Counter*/Histogram* from
// Current()->metrics once per call.
void AddCounter(const std::string& name, std::uint64_t n = 1);
void AddCounter(HotCounter counter, std::uint64_t n = 1);
void SetGauge(const std::string& name, double value);
void RecordHistogram(const std::string& name, double value);

// The thread-current trace exporter, or nullptr when tracing is off.
TraceExporter* CurrentTrace();

}  // namespace lyra::obs

#endif  // SRC_OBS_OBS_H_
