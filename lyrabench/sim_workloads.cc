// sim_lyra and sim_afs: batch simulations at the paper's scale.
//
// Each run simulates one seeded trace R times (R set by --seconds) through
// the public Simulator API: SyntheticTraceGenerator::Generate, then Begin /
// StepUntil (one virtual day at a time) / Finalize. The simulation is
// deterministic, so the R repetitions do identical work tick for tick; the
// timings keep, per day and per scheduling round, the fastest repetition.
// That removes interference from other tenants of the host, which slows
// whole seconds of a run by up to a third.
#include <cinttypes>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "bench.h"
#include "layers.h"
#include "src/common/rng.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/reclaim.h"
#include "src/predict/predictor.h"
#include "src/sched/afs.h"
#include "src/sim/inference_cluster.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyrabench {
namespace {

struct SimSpec {
  const char* scheduler;  // "lyra" | "afs"
  double scale;           // 1.0 = 443 training + 520 inference servers
  double days;
};

SimSpec SpecFor(const std::string& workload) {
  if (workload == "sim_afs") {
    return {"afs", 0.5, 15.0};
  }
  return {"lyra", 1.0, 15.0};
}

// The paper evaluates on one fixed 15-day production trace. The benchmark
// likewise simulates a fixed calibration trace (generator seed below) and
// lets --seed perturb it: every arrival moves by up to +-kArrivalJitter and
// the inference traffic is redrawn. Each seed thus exercises a different
// schedule of the same amount of work.
constexpr std::uint64_t kTraceSeed = 11;
constexpr double kArrivalJitter = 10 * lyra::kMinute;

// Nominal wall time of one simulation on a 4-core x86 box; with --seconds it
// fixes how many repetitions one run makes. A fixed count (rather than
// "until time runs out") keeps the measured work identical across commits.
constexpr double kNominalSimSeconds = 5.0;

struct OneSim {
  std::size_t jobs = 0;
  std::uint64_t events = 0;
  double generate_s = 0.0;
  double setup_s = 0.0;  // trace generation + engine construction
  double wall_s = 0.0;   // Begin -> Finalize, less the calibration probes
  std::vector<double> chunks;  // wall time per virtual day, then Finalize
  std::uint64_t hash = 0;
  std::vector<double> ticks;  // JobScheduler::Schedule durations
  std::vector<double> probes;
};

// Simulates the seed's trace once. With `layers`, the policies are wrapped
// in detail (the traced run) and the run's layer numbers are added there.
OneSim Simulate(const SimSpec& spec, std::uint64_t seed, EngineLayers* layers,
                Report& report, const std::string& label) {
  OneSim out;
  const int training_servers =
      std::max(1, static_cast<int>(std::lround(443 * spec.scale)));
  const int inference_servers =
      std::max(1, static_cast<int>(std::lround(520 * spec.scale)));

  const double t0 = NowSeconds();
  lyra::SyntheticTraceOptions trace_options;
  trace_options.duration = spec.days * lyra::kDay;
  trace_options.training_gpus = training_servers * 8;
  trace_options.target_utilization = 0.95;
  trace_options.seed = kTraceSeed;
  lyra::Trace trace = lyra::SyntheticTraceGenerator(trace_options).Generate();
  lyra::Rng jitter(seed);
  for (lyra::JobSpec& job : trace.jobs) {
    job.submit_time =
        std::max(0.0, job.submit_time + jitter.Uniform(-kArrivalJitter, kArrivalJitter));
  }
  trace.Normalize();
  out.generate_s = NowSeconds() - t0;
  out.jobs = trace.jobs.size();

  std::unique_ptr<lyra::JobScheduler> scheduler;
  if (std::string(spec.scheduler) == "afs") {
    scheduler = std::make_unique<lyra::AfsScheduler>();
  } else {
    scheduler = std::make_unique<lyra::LyraScheduler>();
  }
  lyra::LyraReclaimPolicy reclaim;
  TimedScheduler timed_scheduler(scheduler.get(), layers != nullptr);
  TimedReclaim timed_reclaim(&reclaim);

  lyra::DiurnalTrafficOptions traffic;
  traffic.duration = (spec.days + 8) * lyra::kDay;
  traffic.seed = seed ^ 0x7aff1c;
  lyra::InferenceClusterOptions inference_options;
  inference_options.num_servers = inference_servers;
  auto inference = std::make_unique<lyra::InferenceCluster>(
      inference_options, lyra::DiurnalTrafficModel(traffic),
      std::make_unique<lyra::SeasonalNaivePredictor>());

  lyra::SimulatorOptions options;
  options.training_servers = training_servers;
  options.enable_loaning = true;
  options.seed = seed;
  lyra::Simulator sim(options, trace, &timed_scheduler,
                      layers != nullptr ? static_cast<lyra::ReclaimPolicy*>(&timed_reclaim)
                                        : &reclaim,
                      std::move(inference));
  out.setup_s = NowSeconds() - t0;

  // Stepping a day at a time processes exactly the events of one
  // StepUntil(+inf) (chunk boundaries never change behaviour).
  sim.Begin();
  double mark = NowSeconds();
  double probe_s = 0.0;  // probes run inside Begin -> Finalize
  for (double horizon = lyra::kDay;
       sim.HasUnfinishedJobs() && std::isfinite(sim.NextEventTime());
       horizon += lyra::kDay) {
    sim.StepUntil(horizon);
    const double now = NowSeconds();
    out.chunks.push_back(now - mark);
    out.probes.push_back(CalibrationProbe());
    mark = NowSeconds();
    probe_s += mark - now;
  }
  const lyra::SimulationResult result = sim.Finalize();
  out.chunks.push_back(NowSeconds() - mark);

  // Output checks: every job finishes, and the cluster's maintained counters
  // agree with its server vector (AuditInvariants aborts the run otherwise).
  report.Attempt(2);
  if (result.finished_jobs != out.jobs || result.total_jobs != out.jobs) {
    report.Fail(Format("%s seed %" PRIu64 ": %zu of %zu jobs finished", label.c_str(),
                       seed, result.finished_jobs, out.jobs));
  }
  sim.cluster().AuditInvariants();

  out.events = result.events_processed;
  out.wall_s = result.wall_seconds - probe_s;
  out.hash = OutcomeHash(result);
  out.ticks = timed_scheduler.tick_seconds();
  if (layers != nullptr) {
    layers->Add(timed_scheduler, timed_reclaim, result, out.wall_s);
  }
  return out;
}

// Element-wise minimum over repetitions of equally long series.
std::vector<double> MinEnvelope(const std::vector<OneSim>& runs,
                                std::vector<double> OneSim::*series) {
  std::vector<double> envelope = runs[0].*series;
  for (const OneSim& run : runs) {
    const std::vector<double>& values = run.*series;
    for (std::size_t i = 0; i < envelope.size() && i < values.size(); ++i) {
      envelope[i] = std::min(envelope[i], values[i]);
    }
  }
  return envelope;
}

// "<workload> <sub-seed> <hash-hex>" lines; '#' starts a comment.
bool LookupPin(const std::string& path, const std::string& workload,
               std::uint64_t sub_seed, std::uint64_t* hash) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::uint64_t seed = 0;
    std::string hex;
    if (fields >> name >> seed >> hex && name == workload && seed == sub_seed) {
      *hash = std::stoull(hex, nullptr, 16);
      return true;
    }
  }
  return false;
}

}  // namespace

void RunSimWorkload(const RunConfig& config, Report& report) {
  const SimSpec spec = SpecFor(config.workload);
  const int reps = std::max(2, static_cast<int>(std::lround(config.seconds /
                                                            kNominalSimSeconds)));
  const std::uint64_t seed = SubSeed(config.seed, 0);
  report.Note(Format("%s: scheduler=%s scale=%.2f days=%.0f load=0.95 loaning=on; "
                     "trace %" PRIu64 " jittered by seed %" PRIu64 ", %d repetitions",
                     config.workload.c_str(), spec.scheduler, spec.scale, spec.days,
                     kTraceSeed, seed, reps));

  EngineLayers layers;
  std::vector<OneSim> runs;
  std::vector<double> setups;
  std::vector<double> generates;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(Simulate(spec, seed, config.trace ? &layers : nullptr, report,
                            config.workload));
    const OneSim& run = runs.back();
    setups.push_back(run.setup_s);
    generates.push_back(run.generate_s);
    report.Note(Format("  repetition %d: %zu jobs, %" PRIu64 " events, setup %.3f s, "
                       "probe p10 %.5f s, sim_wall_s %.3f, outcome %016" PRIx64,
                       r, run.jobs, run.events, run.setup_s, Quantile(run.probes, 0.1),
                       run.wall_s, run.hash));
    report.Attempt();
    if (run.hash != runs[0].hash || run.chunks.size() != runs[0].chunks.size() ||
        run.ticks.size() != runs[0].ticks.size()) {
      report.Fail(Format("%s seed %" PRIu64 ": repetition %d is not deterministic",
                         config.workload.c_str(), seed, r));
    }
  }
  std::uint64_t pinned = 0;
  if (LookupPin(config.pins_path, config.workload, seed, &pinned)) {
    report.Attempt();
    if (pinned != runs[0].hash) {
      report.Fail(Format("%s seed %" PRIu64 ": outcome %016" PRIx64
                         " differs from pinned %016" PRIx64,
                         config.workload.c_str(), seed, runs[0].hash, pinned));
    }
  }

  double wall = 0.0;
  for (double chunk : MinEnvelope(runs, &OneSim::chunks)) {
    wall += chunk;
  }
  const std::vector<double> ticks = MinEnvelope(runs, &OneSim::ticks);
  for (const OneSim& run : runs) {
    for (double probe : run.probes) {
      report.AddProbe(probe);
    }
  }
  report.Note(Format("  sim_wall_s %.4f (fastest repetition per virtual day); "
                     "scheduling rounds p50 %.4f p90 %.4f p99 %.4f ms (%zu samples, "
                     "fastest repetition per round)",
                     wall, Quantile(ticks, 0.5) * 1e3, Quantile(ticks, 0.9) * 1e3,
                     Quantile(ticks, 0.99) * 1e3, ticks.size()));

  if (!config.trace) {
    report.Set("setup_s", Median(setups), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("jobs_per_s", static_cast<double>(runs[0].jobs) / wall, "1/s");
    report.Set("op_p50_ms", Quantile(ticks, 0.5) * 1e3, "ms");
    report.Set("op_p90_ms", Quantile(ticks, 0.9) * 1e3, "ms");
    return;
  }

  // Traced run: one untraced repetition gives the outcome-hash identity
  // (wrappers must not change decisions) and the tracing overhead.
  const OneSim plain = Simulate(spec, seed, nullptr, report, config.workload);
  report.Attempt();
  if (plain.hash != runs[0].hash) {
    report.Fail(Format("%s seed %" PRIu64 ": traced outcome %016" PRIx64
                       " != untraced %016" PRIx64,
                       config.workload.c_str(), seed, runs[0].hash, plain.hash));
  }
  std::vector<double> traced_walls;
  for (const OneSim& run : runs) {
    traced_walls.push_back(run.wall_s);
  }
  report.Set("workload.generate_s", Median(generates), "s");
  report.Set("workload.jobs", static_cast<double>(runs[0].jobs), "count");
  report.Set("trace.overhead_share", (Median(traced_walls) - plain.wall_s) / plain.wall_s,
             "share");
  layers.Publish(report, true);
}

}  // namespace lyrabench
