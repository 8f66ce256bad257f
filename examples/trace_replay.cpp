// Trace replay CLI: generate a synthetic trace, save it to CSV, reload it,
// and replay it under a chosen scheduler — the workflow a user would follow
// to evaluate Lyra on their own trace file.
//
//   ./build/examples/trace_replay [scheduler] [trace.csv]
//     scheduler: any registered name (default: lyra)
//     trace.csv: optional path; generated + saved when absent
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "src/predict/lstm.h"
#include "src/sim/simulator.h"
#include "src/svc/registry.h"
#include "src/workload/synthetic.h"

int main(int argc, char** argv) {
  const std::string scheduler_name = argc > 1 ? argv[1] : "lyra";
  const std::string trace_path = argc > 2 ? argv[2] : "/tmp/lyra_example_trace.csv";

  lyra::StatusOr<std::unique_ptr<lyra::JobScheduler>> made =
      lyra::svc::MakeScheduler(scheduler_name, /*info_agnostic=*/false, /*tuned=*/false);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().message().c_str());
    return 1;
  }
  const std::unique_ptr<lyra::JobScheduler> scheduler = std::move(made.value());

  // Load the trace if it exists; otherwise synthesize and save one.
  lyra::Trace trace;
  const lyra::StatusOr<lyra::Trace> loaded = lyra::LoadTraceCsv(trace_path);
  if (loaded.ok()) {
    trace = loaded.value();
    std::printf("loaded %zu jobs from %s\n", trace.jobs.size(), trace_path.c_str());
  } else {
    lyra::SyntheticTraceOptions options;
    options.duration = 2 * lyra::kDay;
    options.training_gpus = 32 * 8;
    trace = lyra::SyntheticTraceGenerator(options).Generate();
    const lyra::Status saved = lyra::SaveTraceCsv(trace, trace_path);
    std::printf("generated %zu jobs and saved them to %s (%s)\n", trace.jobs.size(),
                trace_path.c_str(), saved.ok() ? "ok" : saved.message().c_str());
  }

  lyra::SimulatorOptions options;
  options.training_servers = 32;
  options.enable_loaning = true;
  lyra::LyraReclaimPolicy reclaim;
  lyra::Simulator simulator(
      options, trace, scheduler.get(), &reclaim,
      lyra::MakeInferenceCluster(38, trace.duration, /*seed=*/42,
                                 std::make_unique<lyra::LstmPredictor>()));
  const lyra::SimulationResult result = simulator.Run();

  std::printf("\nscheduler: %s\n", scheduler->name());
  std::printf("finished:  %zu / %zu jobs\n", result.finished_jobs, result.total_jobs);
  std::printf("queuing:   mean %.0fs  p50 %.0fs  p95 %.0fs\n", result.queuing.mean,
              result.queuing.p50, result.queuing.p95);
  std::printf("JCT:       mean %.0fs  p50 %.0fs  p95 %.0fs\n", result.jct.mean,
              result.jct.p50, result.jct.p95);
  std::printf("usage:     training %.0f%%  overall %.0f%%  on-loan %.0f%%\n",
              result.training_usage * 100.0, result.overall_usage * 100.0,
              result.onloan_usage * 100.0);
  std::printf("loaning:   %d servers borrowed, %d returned, %d preemptions\n",
              result.orchestrator.servers_loaned, result.orchestrator.servers_returned,
              result.preemptions);
  return 0;
}
