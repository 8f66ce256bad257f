// lyra_sim: flag-driven experiment runner.
//
// Runs one simulation with any scheduler/reclaim combination on a synthetic
// trace (or a CSV trace file), and optionally dumps the usage series and the
// decision log for offline analysis.
//
// On SIGINT/SIGTERM the event loop stops at the next chunk boundary and every
// requested output (--trace-json, --metrics-json, CSVs) is still flushed, with
// the metrics JSON marked "partial_run": true.
//
//   ./build/tools/lyra_sim --scheduler=lyra --scale=0.5 --days=6 --loaning
//   ./build/tools/lyra_sim --scheduler=pollux --trace=/path/trace.csv
//   ./build/tools/lyra_sim --help
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/sim/inference_cluster.h"
#include "src/sim/simulator.h"
#include "src/svc/registry.h"
#include "src/workload/synthetic.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string scheduler_name = "lyra";
  std::string reclaim_name = "lyra";
  std::string policy_weights;
  std::string trace_path;
  std::string series_csv;
  std::string decisions_csv;
  std::string trace_json;
  std::string metrics_json;
  double scale = 0.25;
  double days = 3.0;
  double offered_load = 0.95;
  double elastic_population = 0.0;
  bool loaning = true;
  bool ideal = false;
  bool profiler = false;
  bool lstm = false;
  bool info_agnostic = false;
  bool tuned = false;
  int seed = 42;

  lyra::FlagSet flags(
      "lyra_sim: run one cluster-scheduling experiment and print its metrics");
  flags.AddString("scheduler", &scheduler_name,
                  lyra::svc::JoinNames(lyra::svc::KnownSchedulerNames()));
  flags.AddString("reclaim", &reclaim_name,
                  lyra::svc::JoinNames(lyra::svc::KnownReclaimNames()));
  flags.AddString("policy-weights", &policy_weights,
                  "LYRAPOL weights file for --scheduler=learned (see lyra_train)");
  flags.AddString("trace", &trace_path,
                  "CSV trace to replay (default: synthesize one)");
  flags.AddString("series-csv", &series_csv, "write 5-minute usage series here");
  flags.AddString("decisions-csv", &decisions_csv, "write the decision log here");
  flags.AddString("trace-json", &trace_json,
                  "write a Chrome trace-event JSON here (open in ui.perfetto.dev "
                  "or summarize with lyra_trace)");
  flags.AddString("metrics-json", &metrics_json,
                  "write the run's metrics registry (counters/gauges/histograms) "
                  "as JSON here");
  flags.AddDouble("scale", &scale, "cluster scale (1.0 = 443+520 servers)");
  flags.AddDouble("days", &days, "trace length in days");
  flags.AddDouble("load", &offered_load, "offered load vs training capacity");
  flags.AddDouble("elastic", &elastic_population,
                  "grow elastic jobs to this fraction of the population");
  flags.AddBool("loaning", &loaning, "enable capacity loaning");
  flags.AddBool("ideal", &ideal, "apply the Ideal scenario transform");
  flags.AddBool("profiler", &profiler, "estimate running times with the profiler");
  flags.AddBool("lstm", &lstm, "use the LSTM usage predictor (slower)");
  flags.AddBool("info-agnostic", &info_agnostic,
                "Lyra without running-time estimates (LAS)");
  flags.AddBool("tuned", &tuned, "Lyra+TunedJobs hyperparameter tuning");
  flags.AddInt("seed", &seed, "random seed");

  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(), flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }

  lyra::StatusOr<std::unique_ptr<lyra::JobScheduler>> made_scheduler =
      lyra::svc::MakeScheduler(scheduler_name, info_agnostic, tuned, policy_weights);
  if (!made_scheduler.ok()) {
    std::fprintf(stderr, "%s\n%s", made_scheduler.status().message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  lyra::StatusOr<std::unique_ptr<lyra::ReclaimPolicy>> made_reclaim =
      lyra::svc::MakeReclaim(reclaim_name);
  if (!made_reclaim.ok()) {
    std::fprintf(stderr, "%s\n%s", made_reclaim.status().message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  std::unique_ptr<lyra::JobScheduler> scheduler = std::move(made_scheduler.value());
  std::unique_ptr<lyra::ReclaimPolicy> reclaim = std::move(made_reclaim.value());

  // Truncating, like BuildEngine: see MakeInferenceCluster.
  const int training_servers = std::max(1, static_cast<int>(443 * scale));
  const int inference_servers = std::max(1, static_cast<int>(520 * scale));

  lyra::Trace trace;
  if (!trace_path.empty()) {
    const lyra::StatusOr<lyra::Trace> loaded = lyra::LoadTraceCsv(trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load trace: %s\n", loaded.status().message().c_str());
      return 1;
    }
    trace = loaded.value();
  } else {
    lyra::SyntheticTraceOptions options;
    options.duration = days * lyra::kDay;
    options.training_gpus = training_servers * 8;
    options.target_utilization = offered_load;
    options.seed = static_cast<std::uint64_t>(seed);
    trace = lyra::SyntheticTraceGenerator(options).Generate();
  }
  lyra::Rng transform_rng(static_cast<std::uint64_t>(seed) ^ 0x5eed);
  if (ideal) {
    lyra::ApplyIdealScenario(trace);
  }
  if (elastic_population > 0.0) {
    lyra::ApplyElasticFraction(trace, elastic_population, transform_rng);
  }

  lyra::SimulatorOptions options;
  options.training_servers = training_servers;
  options.enable_loaning = loaning;
  options.use_profiler = profiler;
  options.record_series = !series_csv.empty();
  options.record_decisions = !decisions_csv.empty();
  options.trace_path = trace_json;
  options.seed = static_cast<std::uint64_t>(seed);
  lyra::Simulator simulator(
      options, trace, scheduler.get(), reclaim.get(),
      lyra::MakeInferenceCluster(inference_servers, trace.duration,
                                 static_cast<std::uint64_t>(seed),
                                 lyra::svc::MakeUsagePredictor(lstm)));

  // Chunked event drain so SIGINT/SIGTERM can stop the run at an event
  // boundary while still flushing every requested output below.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  simulator.Begin();
  constexpr std::uint64_t kChunk = 65536;
  bool partial = false;
  while (simulator.StepUntil(std::numeric_limits<double>::infinity(), kChunk)) {
    if (g_interrupted != 0) {
      partial = true;
      break;
    }
  }
  const lyra::SimulationResult result = simulator.Finalize();

  if (partial) {
    std::printf("interrupted at t=%.0fs; flushing partial outputs\n",
                simulator.now());
  }
  std::printf("scheduler=%s reclaim=%s jobs=%zu finished=%zu\n", scheduler->name(),
              reclaim_name.c_str(), result.total_jobs, result.finished_jobs);
  std::printf("queuing  mean=%.0fs p50=%.0fs p95=%.0fs\n", result.queuing.mean,
              result.queuing.p50, result.queuing.p95);
  std::printf("jct      mean=%.0fs p50=%.0fs p95=%.0fs\n", result.jct.mean,
              result.jct.p50, result.jct.p95);
  std::printf("usage    training=%.1f%% overall=%.1f%% on-loan=%.1f%%\n",
              result.training_usage * 100, result.overall_usage * 100,
              result.onloan_usage * 100);
  std::printf("loaning  borrowed=%d returned=%d preemptions=%d (%.2f%%)\n",
              result.orchestrator.servers_loaned, result.orchestrator.servers_returned,
              result.preemptions, result.preemption_ratio * 100);
  if (profiler) {
    std::printf("profiler mean relative error=%.0f%%\n", result.profiler_error * 100);
  }
  std::printf("perf     events=%llu wall=%.2fs (%.0f events/s)\n",
              static_cast<unsigned long long>(result.events_processed),
              result.wall_seconds, result.events_per_sec);
  for (const lyra::obs::PhaseStat& phase : result.phases) {
    std::printf("phase    %-17s calls=%-8llu total=%.3fs self=%.3fs\n",
                phase.name.c_str(), static_cast<unsigned long long>(phase.calls),
                phase.total_sec, phase.self_sec);
  }

  if (!series_csv.empty()) {
    std::ofstream out(series_csv);
    out << "time,overall_usage,training_usage,onloan_usage,loaned_servers,pending\n";
    for (const lyra::SeriesPoint& p : result.series) {
      out << p.time << ',' << p.overall_usage << ',' << p.training_usage << ','
          << p.onloan_usage << ',' << p.loaned_servers << ',' << p.pending_jobs << '\n';
    }
    std::printf("series   wrote %zu samples to %s\n", result.series.size(),
                series_csv.c_str());
  }
  if (!decisions_csv.empty()) {
    const lyra::Status saved = simulator.decision_log().SaveCsv(decisions_csv);
    std::printf("decisions wrote %zu records to %s (%s)\n",
                simulator.decision_log().size(), decisions_csv.c_str(),
                saved.ok() ? "ok" : saved.message().c_str());
  }
  if (!trace_json.empty()) {
    std::printf("trace    wrote %s (%llu event(s) dropped)\n", trace_json.c_str(),
                static_cast<unsigned long long>(result.trace_events_dropped));
  }
  if (!metrics_json.empty()) {
    std::string exported = simulator.metrics().ExportJson();
    if (partial) {
      // Mark interrupted runs so downstream consumers never mistake a
      // truncated metrics file for a completed experiment.
      lyra::StatusOr<lyra::JsonValue> doc = lyra::JsonValue::Parse(exported);
      if (doc.ok()) {
        doc.value().Set("partial_run", lyra::JsonValue::MakeBool(true));
        exported = doc.value().Dump() + "\n";
      }
    }
    std::ofstream out(metrics_json);
    out << exported;
    std::printf("metrics  wrote %s%s\n", metrics_json.c_str(),
                partial ? " (partial run)" : "");
  }
  return partial ? 130 : 0;
}
