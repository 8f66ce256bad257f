// Shared experiment harness for the bench binaries.
//
// Each bench reproduces one table or figure from the paper. The harness
// provides the scenario vocabulary of §7.1 (trace scenarios; schedulers and
// reclaiming schemes by component-registry name) and a single RunExperiment
// entry point so benches stay declarative. Cluster scale and trace length
// default to the paper's values and can be reduced via LYRA_BENCH_SCALE /
// LYRA_BENCH_DAYS for quick runs.
//
// Independent runs fan out over a thread pool via RunExperiments /
// RunSeedSweep (simulations are seed-deterministic and share no mutable
// state), and every run's perf profile — events processed, wall-clock,
// events/sec, per-phase profiler times — is recorded and written as
// machine-readable JSON by WritePerfReport so the repo's perf trajectory
// stays measurable. LYRA_BENCH_TRACE=<prefix> additionally writes a Chrome
// trace-event JSON per run (open in ui.perfetto.dev; see tools/lyra_trace).
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/rl/learned_scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {

struct ExperimentConfig {
  // Cluster scale multiplier: 1.0 = the paper's 443 training + 520 inference
  // servers. The synthetic trace is calibrated to the scaled cluster.
  double scale = 1.0;
  double days = 15.0;
  double offered_load = 0.95;
  double elastic_work_fraction = 0.36;
  double fungible_fraction = 0.21;
  double heterogeneous_fraction = 0.0;
  double checkpointing_fraction = 0.0;
  // Grow the elastic share of the job population to this fraction (Figs
  // 14-16); <= 0 leaves the trace as generated.
  double elastic_job_population = 0.0;
  bool ideal = false;           // Ideal scenario transform (§7.1)
  bool clear_fungible = false;  // Heterogeneous scenario drops fungible load
  std::uint64_t seed = 42;

  int training_servers() const;
  int inference_servers() const;
};

// Applies environment overrides (LYRA_BENCH_SCALE, LYRA_BENCH_DAYS) on top of
// the bench's defaults, so the full suite can be shrunk uniformly.
ExperimentConfig WithEnvOverrides(ExperimentConfig config);

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
  // Use the LSTM usage predictor instead of seasonal-naive (slower).
  bool lstm_predictor = false;
  // Deterministic fault injection (off by default; see src/sim/faults.h).
  FaultOptions faults;
  // scheduler == "learned" only: the policy to drive (shared read-only
  // across pool threads; each run copies it into its own LearnedScheduler),
  // the rollout mode, the action-sampling seed, the worker-head exploration
  // stddev, and an optional per-run trajectory sink (must outlive the run;
  // the RL trainer points each rollout at its own slot).
  std::shared_ptr<const rl::PolicyNet> policy;
  rl::PolicyMode policy_mode = rl::PolicyMode::kEval;
  std::uint64_t policy_sample_seed = 1;
  double policy_worker_sigma = 0.5;
  rl::Trajectory* trajectory = nullptr;
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
// events/sec — as JSON (the BENCH_perf.json schema). Path defaults to
// BENCH_perf.json in the working directory, overridable via
// LYRA_BENCH_PERF_JSON; LYRA_BENCH_PERF_JSON=0 disables the report.
void WritePerfReport(const std::string& experiment);

// Records one microbenchmark result (nanoseconds per operation) to surface
// in the "micro" section of the next WritePerfReport. Thread-safe.
void RecordMicroBench(const std::string& name, double ns_per_op);

// Formats seconds with no decimals, e.g. for table cells.
std::string Secs(double seconds);

// Prints the standard bench banner (experiment id + configuration).
void PrintBanner(const std::string& experiment, const ExperimentConfig& config);

}  // namespace lyra

#endif  // BENCH_HARNESS_H_
