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
#include <string>
#include <utility>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/sim/simulator.h"
#include "src/svc/registry.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  // The flags fill the engine's config, trace recipe and run-only options.
  lyra::svc::EngineConfig config;
  lyra::svc::TraceRecipe recipe;
  recipe.days = 3.0;
  lyra::SimulatorOptions options;
  std::string trace_path;
  std::string series_csv;
  std::string decisions_csv;
  std::string metrics_json;
  int seed = 42;

  lyra::FlagSet flags(
      "lyra_sim: run one cluster-scheduling experiment and print its metrics");
  flags.AddString("scheduler", &config.scheduler,
                  lyra::svc::JoinNames(lyra::svc::KnownSchedulerNames()));
  flags.AddString("reclaim", &config.reclaim,
                  lyra::svc::JoinNames(lyra::svc::KnownReclaimNames()));
  flags.AddString("trace", &trace_path,
                  "CSV trace to replay (default: synthesize one)");
  flags.AddString("series-csv", &series_csv, "write 5-minute usage series here");
  flags.AddString("decisions-csv", &decisions_csv, "write the decision log here");
  flags.AddString("trace-json", &options.trace_path,
                  "write a Chrome trace-event JSON here (open in ui.perfetto.dev "
                  "or summarize with lyra_trace)");
  flags.AddString("metrics-json", &metrics_json,
                  "write the run's metrics registry (counters/gauges/histograms) "
                  "as JSON here");
  flags.AddDouble("scale", &config.scale, "cluster scale (1.0 = 443+520 servers)");
  flags.AddDouble("days", &recipe.days, "trace length in days");
  flags.AddDouble("load", &recipe.offered_load, "offered load vs training capacity");
  flags.AddDouble("elastic", &recipe.elastic_job_population,
                  "grow elastic jobs to this fraction of the population");
  flags.AddBool("loaning", &config.loaning, "enable capacity loaning");
  flags.AddBool("ideal", &recipe.ideal, "apply the Ideal scenario transform");
  flags.AddBool("profiler", &options.use_profiler,
                "estimate running times with the profiler");
  flags.AddBool("lstm", &config.lstm, "use the LSTM usage predictor (slower)");
  flags.AddBool("info-agnostic", &config.info_agnostic,
                "Lyra without running-time estimates (LAS)");
  flags.AddBool("tuned", &config.tuned, "Lyra+TunedJobs hyperparameter tuning");
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

  config.seed = static_cast<std::uint64_t>(seed);
  recipe.seed = config.seed;
  options.record_series = !series_csv.empty();
  options.record_decisions = !decisions_csv.empty();

  const lyra::StatusOr<lyra::svc::PaperCluster> cluster =
      lyra::svc::PaperClusterAt(config.scale);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().message().c_str());
    return 1;
  }
  lyra::Trace trace;
  if (!trace_path.empty()) {
    lyra::StatusOr<lyra::Trace> loaded = lyra::LoadTraceCsv(trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load trace: %s\n", loaded.status().message().c_str());
      return 1;
    }
    trace = std::move(loaded.value());
    lyra::svc::ApplyTraceRecipe(recipe, trace);
  } else {
    trace = lyra::svc::MakeSyntheticTrace(recipe, cluster.value().training_servers);
  }
  lyra::StatusOr<lyra::svc::Engine> engine = lyra::svc::BuildEngine(config, trace, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n%s", engine.status().message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  lyra::Simulator& simulator = *engine.value().sim;

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
  std::printf("scheduler=%s reclaim=%s jobs=%zu finished=%zu\n",
              engine.value().scheduler->name(), config.reclaim.c_str(), result.total_jobs,
              result.finished_jobs);
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
  if (options.use_profiler) {
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
  if (!options.trace_path.empty()) {
    std::printf("trace    wrote %s (%llu event(s) dropped)\n", options.trace_path.c_str(),
                static_cast<unsigned long long>(result.trace_events_dropped));
  }
  if (!metrics_json.empty()) {
    lyra::JsonValue doc = simulator.metrics().Values().ToJson();
    if (partial) {
      // Mark interrupted runs so downstream consumers never mistake a
      // truncated metrics file for a completed experiment.
      doc.Set("partial_run", lyra::JsonValue::MakeBool(true));
    }
    std::ofstream out(metrics_json);
    out << doc.Dump() << "\n";
    std::printf("metrics  wrote %s%s\n", metrics_json.c_str(),
                partial ? " (partial run)" : "");
  }
  return partial ? 130 : 0;
}
