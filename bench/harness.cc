#include "bench/harness.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "src/common/json.h"
#include "src/svc/registry.h"

namespace lyra {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

// Perf profile of one completed experiment run, for the BENCH_perf.json
// report. Guarded by g_perf_mutex: runs complete on pool threads.
struct PerfEntry {
  std::string label;
  std::string scheduler;
  std::string reclaim;
  std::size_t total_jobs = 0;
  std::size_t finished_jobs = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  std::vector<obs::PhaseStat> phases;
};

std::mutex g_perf_mutex;
std::vector<PerfEntry>& PerfEntries() {
  static std::vector<PerfEntry> entries;
  return entries;
}

void RecordPerf(const std::string& label, const JobScheduler& scheduler,
                const ReclaimPolicy& reclaim, const SimulationResult& result) {
  PerfEntry entry;
  entry.label = label;
  entry.scheduler = scheduler.name();
  entry.reclaim = reclaim.name();
  entry.total_jobs = result.total_jobs;
  entry.finished_jobs = result.finished_jobs;
  entry.events = result.events_processed;
  entry.wall_seconds = result.wall_seconds;
  entry.events_per_sec = result.events_per_sec;
  entry.phases = result.phases;
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  PerfEntries().push_back(std::move(entry));
}

// An unregistered component name or a refused scale is a bench bug: fail
// loudly with the registry's message (it lists the known names).
template <typename T>
T Built(StatusOr<T> made, const char* what) {
  if (!made.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, made.status().message().c_str());
    std::abort();
  }
  return std::move(made.value());
}

}  // namespace

svc::PaperCluster ExperimentConfig::cluster() const {
  return Built(svc::PaperClusterAt(scale), "ExperimentConfig");
}

ExperimentConfig WithEnvOverrides(ExperimentConfig config) {
  config.scale = EnvDouble("LYRA_BENCH_SCALE", config.scale);
  config.days = EnvDouble("LYRA_BENCH_DAYS", config.days);
  return config;
}

Trace MakeTrace(const ExperimentConfig& config) {
  return svc::MakeSyntheticTrace(config, config.cluster().training_servers);
}

namespace {

SimulationResult RunOne(const ExperimentConfig& config, const RunSpec& spec,
                        const std::string& label) {
  const svc::EngineConfig engine_config{.scheduler = spec.scheduler, .reclaim = spec.reclaim,
                                        .tuned = spec.tuned, .loaning = spec.loaning,
                                        .scale = config.scale, .seed = config.seed};
  SimulatorOptions options;
  options.checkpoint_interval = spec.checkpoint_interval;
  options.throughput = spec.throughput;
  options.misprediction_fraction = spec.misprediction_fraction;
  options.record_series = spec.record_series;
  options.faults = spec.faults;
  // LYRA_BENCH_TRACE=<prefix> streams every run's events into
  // <prefix><label>.trace.json (label sanitized to filename characters).
  // Tracing is observational, so results stay identical to untraced runs.
  if (const char* prefix = std::getenv("LYRA_BENCH_TRACE");
      prefix != nullptr && *prefix != '\0' && std::string(prefix) != "0") {
    std::string name = label;
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '.') {
        c = '_';
      }
    }
    options.trace_path = std::string(prefix) + name + ".trace.json";
  }
  const svc::Engine engine =
      Built(svc::BuildEngine(engine_config, MakeTrace(config), options), "RunSpec");
  SimulationResult result = engine.sim->Run();
  RecordPerf(label, *engine.scheduler, *engine.reclaim, result);
  return result;
}

}  // namespace

SimulationResult RunExperiment(const ExperimentConfig& config, const RunSpec& spec) {
  return RunOne(config, spec, spec.scheduler);
}

int BenchJobs() {
  const char* value = std::getenv("LYRA_BENCH_JOBS");
  if (value != nullptr) {
    const int jobs = std::atoi(value);
    if (jobs >= 1) {
      return jobs;
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

std::vector<SimulationResult> RunExperiments(const std::vector<ExperimentRun>& runs) {
  std::vector<SimulationResult> results(runs.size());
  if (runs.empty()) {
    return results;
  }
  const int workers =
      std::min(BenchJobs(), static_cast<int>(runs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      results[i] = RunOne(runs[i].config, runs[i].spec, runs[i].label);
    }
    return results;
  }
  // Work-stealing over the run list: each simulation is independent and
  // seed-deterministic, so results land in input order regardless of which
  // thread picks which run.
  std::atomic<std::size_t> next{0};
  auto drain = [&]() {
    for (std::size_t i = next.fetch_add(1); i < runs.size(); i = next.fetch_add(1)) {
      results[i] = RunOne(runs[i].config, runs[i].spec, runs[i].label);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back(drain);
  }
  drain();
  for (std::thread& t : pool) {
    t.join();
  }
  return results;
}

std::vector<SimulationResult> RunExperiments(const ExperimentConfig& config,
                                             const std::vector<RunSpec>& specs) {
  std::vector<ExperimentRun> runs;
  runs.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    runs.push_back({spec.scheduler, config, spec});
  }
  return RunExperiments(runs);
}

std::vector<SimulationResult> RunSeedSweep(const ExperimentConfig& config,
                                           const RunSpec& spec,
                                           const std::vector<std::uint64_t>& seeds) {
  std::vector<ExperimentRun> runs;
  runs.reserve(seeds.size());
  for (std::uint64_t seed : seeds) {
    ExperimentRun run;
    run.label = spec.scheduler + "/seed=" + std::to_string(seed);
    run.config = config;
    run.config.seed = seed;
    run.spec = spec;
    runs.push_back(std::move(run));
  }
  return RunExperiments(runs);
}

void WritePerfReport(const std::string& experiment) {
  const char* path = std::getenv("LYRA_BENCH_PERF_JSON");
  if (path != nullptr && std::string(path) == "0") {
    return;
  }
  const std::string file = path != nullptr ? path : "BENCH_perf.json";

  std::vector<PerfEntry> entries;
  {
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    entries = PerfEntries();
  }
  double total_wall = 0.0;
  std::uint64_t total_events = 0;
  for (const PerfEntry& e : entries) {
    total_wall += e.wall_seconds;
    total_events += e.events;
  }

  auto number = [](double n) { return JsonValue::MakeNumber(n); };
  JsonValue runs = JsonValue::MakeArray();
  for (const PerfEntry& e : entries) {
    JsonValue phases = JsonValue::MakeArray();
    for (const obs::PhaseStat& stat : e.phases) {
      JsonValue phase = JsonValue::MakeObject();
      phase.Set("name", JsonValue::MakeString(stat.name))
          .Set("calls", number(stat.calls))
          .Set("total_sec", number(stat.total_sec))
          .Set("self_sec", number(stat.self_sec));
      phases.Append(std::move(phase));
    }
    JsonValue run = JsonValue::MakeObject();
    run.Set("label", JsonValue::MakeString(e.label))
        .Set("scheduler", JsonValue::MakeString(e.scheduler))
        .Set("reclaim", JsonValue::MakeString(e.reclaim))
        .Set("total_jobs", number(e.total_jobs))
        .Set("finished_jobs", number(e.finished_jobs))
        .Set("events", number(e.events))
        .Set("wall_sec", number(e.wall_seconds))
        .Set("events_per_sec", number(e.events_per_sec))
        .Set("phases", std::move(phases));
    runs.Append(std::move(run));
  }
  JsonValue report = JsonValue::MakeObject();
  report.Set("experiment", JsonValue::MakeString(experiment))
      .Set("bench_jobs", number(BenchJobs()))
      .Set("total_runs", number(entries.size()))
      .Set("total_events", number(total_events))
      .Set("total_sim_wall_sec", number(total_wall))
      .Set("runs", std::move(runs));
  const Status written = MergeReportSection(file, "harness", report);
  if (!written.ok()) {
    std::fprintf(stderr, "WritePerfReport: %s\n", written.message().c_str());
    return;
  }
  std::printf("\nperf: %zu run(s), %llu events in %.2fs simulator wall-clock -> %s\n",
              entries.size(), static_cast<unsigned long long>(total_events),
              total_wall, file.c_str());
}

std::string Secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", seconds);
  return buf;
}

void PrintBanner(const std::string& experiment, const ExperimentConfig& config) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf(
      "cluster: %d training + %d inference servers (scale %.2f), trace: %.1f days, "
      "offered load %.2f\n\n",
      config.cluster().training_servers, config.cluster().inference_servers,
      config.scale, config.days, config.offered_load);
}

}  // namespace lyra
