#include "src/obs/obs.h"

#include <iterator>

namespace lyra::obs {
namespace {

thread_local ObsContext* t_current = nullptr;

// Registry names of the HotCounter slots, in enum order.
constexpr const char* kHotCounterNames[] = {
    "placement.attempts",
    "placement.workers_placed",
    "placement.failures",
    "mckp.solves",
    "mckp.cells",
    "sched.launched",
    "sched.launch_failures",
    "sched.scale_outs",
    "sched.scale_ins",
};
static_assert(std::size(kHotCounterNames) == static_cast<std::size_t>(HotCounter::kCount));

}  // namespace

ObsContext* Current() { return t_current; }

ScopedObsContext::ScopedObsContext(ObsContext* context) : previous_(t_current) {
  t_current = context;
}

ScopedObsContext::~ScopedObsContext() { t_current = previous_; }

PhaseSpan::~PhaseSpan() {
  if (context_ == nullptr) {
    return;
  }
  const PhaseProfiler::SpanResult result = context_->profiler.End();
  if (context_->trace != nullptr) {
    context_->trace->PhaseSpan(PhaseName(result.phase), result.start,
                               result.elapsed_sec, result.self_sec);
  }
}

void AddCounter(const std::string& name, std::uint64_t n) {
  ObsContext* context = t_current;
  if (context != nullptr) {
    context->metrics.counter(name)->Add(n);
  }
}

void AddCounter(HotCounter counter, std::uint64_t n) {
  ObsContext* context = t_current;
  if (context != nullptr) {
    const auto index = static_cast<std::size_t>(counter);
    Counter*& slot = context->hot[index];
    if (slot == nullptr) {
      slot = context->metrics.counter(kHotCounterNames[index]);
    }
    slot->Add(n);
  }
}

void SetGauge(const std::string& name, double value) {
  ObsContext* context = t_current;
  if (context != nullptr) {
    context->metrics.gauge(name)->Set(value);
  }
}

void RecordHistogram(const std::string& name, double value) {
  ObsContext* context = t_current;
  if (context != nullptr) {
    context->metrics.histogram(name)->Record(value);
  }
}

TraceExporter* CurrentTrace() {
  ObsContext* context = t_current;
  return context != nullptr ? context->trace : nullptr;
}

}  // namespace lyra::obs
