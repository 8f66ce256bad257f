// Shared experiment harness for the simulation bench binaries.
//
// Each bench reproduces one table or figure from the paper. (The
// google-benchmark suite bench_micro_algorithms and the service bench
// bench_svc_saturation do not link it.) The harness
// provides the scenario vocabulary of §7.1 (trace scenarios; schedulers and
// reclaiming schemes by component-registry name) and a single RunExperiment
// entry point so benches stay declarative. Every run's engine and trace come
// from svc::BuildEngine and svc::MakeSyntheticTrace (src/svc/registry.h), as
// lyra_sim's and the daemon's do. Cluster scale and trace length
// default to the paper's values and can be reduced via LYRA_BENCH_SCALE /
// LYRA_BENCH_DAYS for quick runs.
//
// Independent runs fan out over a thread pool via RunExperiments /
// RunSeedSweep (simulations are seed-deterministic and share no mutable
// state), and every run's perf profile — events processed, wall-clock,
// events/sec, per-phase profiler times — is recorded and written by
// WritePerfReport as the "harness" section of a JSON report, next to the
// sections other tools merge into the same file, so the repo's perf
// trajectory stays measurable. LYRA_BENCH_TRACE=<prefix> additionally writes a Chrome
// trace-event JSON per run (open in ui.perfetto.dev; see tools/lyra_trace).
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/svc/registry.h"

namespace lyra {

// The §7.1 trace recipe (svc::TraceRecipe) plus the cluster scale it runs
// at: 1.0 = the paper's 443 training + 520 inference servers. The synthetic
// trace is calibrated to the scaled cluster.
struct ExperimentConfig : svc::TraceRecipe {
  double scale = 1.0;
  // svc::PaperClusterAt(scale); a scale it refuses aborts the bench.
  svc::PaperCluster cluster() const;
};

// Applies environment overrides (LYRA_BENCH_SCALE, LYRA_BENCH_DAYS) on top of
// the bench's defaults, so the full suite can be shrunk uniformly.
ExperimentConfig WithEnvOverrides(ExperimentConfig config);

// The config's synthetic trace: svc::MakeSyntheticTrace on its cluster.
Trace MakeTrace(const ExperimentConfig& config);

struct RunSpec {
  // Component names from the registry (src/svc/registry.h): a
  // KnownSchedulerNames() entry and a KnownReclaimNames() entry. `tuned` is
  // the registry's Lyra+TunedJobs parameter.
  std::string scheduler = "fifo";
  std::string reclaim = "lyra";
  bool tuned = false;
  bool loaning = false;
  ThroughputOptions throughput;
  double misprediction_fraction = 0.0;
  TimeSec checkpoint_interval = 0.0;
  bool record_series = false;
  // Deterministic fault injection (off by default; see src/sim/faults.h).
  FaultOptions faults;
};

SimulationResult RunExperiment(const ExperimentConfig& config, const RunSpec& spec);

// One independent simulation in a batch: its own config, spec, and a label
// for the perf report.
struct ExperimentRun {
  std::string label;
  ExperimentConfig config;
  RunSpec spec;
};

// Number of worker threads the harness fans experiments out over:
// LYRA_BENCH_JOBS if set (>= 1), else std::thread::hardware_concurrency().
int BenchJobs();

// Runs every experiment in the batch, fanning out over a pool of BenchJobs()
// threads. Results come back in input order and are identical to running
// RunExperiment sequentially per entry: each simulation is seed-deterministic
// and shares no mutable state with its siblings.
std::vector<SimulationResult> RunExperiments(const std::vector<ExperimentRun>& runs);

// Convenience batch: the same config across several specs.
std::vector<SimulationResult> RunExperiments(const ExperimentConfig& config,
                                             const std::vector<RunSpec>& specs);

// Seed-sweep variant: the same (config, spec) across several seeds, e.g. for
// confidence intervals.
std::vector<SimulationResult> RunSeedSweep(const ExperimentConfig& config,
                                           const RunSpec& spec,
                                           const std::vector<std::uint64_t>& seeds);

// Writes the perf profile of every experiment run so far by this process —
// label, scheduler/reclaim scheme, events processed, wall-clock seconds,
// events/sec — as the "harness" section of a JSON report (the
// BENCH_perf.json schema), through MergeReportSection: the sections other
// tools merged into the same file (lyra_loadgen, svc_saturation) stay, and
// the file is replaced atomically. Path defaults to BENCH_perf.json in the
// working directory, overridable via LYRA_BENCH_PERF_JSON;
// LYRA_BENCH_PERF_JSON=0 disables the report.
void WritePerfReport(const std::string& experiment);

// Formats seconds with no decimals, e.g. for table cells.
std::string Secs(double seconds);

// Prints the standard bench banner (experiment id + configuration).
void PrintBanner(const std::string& experiment, const ExperimentConfig& config);

}  // namespace lyra

#endif  // BENCH_HARNESS_H_
