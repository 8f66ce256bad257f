#include "src/svc/registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/predict/lstm.h"
#include "src/sched/afs.h"
#include "src/sched/fifo.h"
#include "src/sched/gandiva.h"
#include "src/sched/opportunistic.h"
#include "src/sched/pollux.h"
#include "src/sim/inference_cluster.h"
#include "src/workload/synthetic.h"

namespace lyra::svc {
namespace {

Status UnknownComponent(const std::string& kind, const std::string& name,
                        const std::vector<std::string>& known) {
  return Status::InvalidArgument("unknown " + kind + ": \"" + name +
                                 "\" (known: " + JoinNames(known) + ")");
}

}  // namespace

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

const std::vector<std::string>& KnownSchedulerNames() {
  static const std::vector<std::string> names = {
      "afs", "fifo", "gandiva", "lyra", "lyra-naive-placement",
      "lyra-no-elastic", "opportunistic", "pollux", "sjf"};
  return names;
}

const std::vector<std::string>& KnownReclaimNames() {
  static const std::vector<std::string> names = {"lyra", "optimal", "random", "scf"};
  return names;
}

const std::vector<std::string>& KnownPredictorNames() {
  static const std::vector<std::string> names = {"last-value", "lstm",
                                                 "seasonal-naive"};
  return names;
}

StatusOr<std::unique_ptr<JobScheduler>> MakeScheduler(
    const std::string& name, bool info_agnostic, bool tuned) {
  if (name == "fifo") {
    return std::unique_ptr<JobScheduler>(std::make_unique<FifoScheduler>());
  }
  if (name == "sjf") {
    return std::unique_ptr<JobScheduler>(std::make_unique<SjfScheduler>());
  }
  if (name == "gandiva") {
    return std::unique_ptr<JobScheduler>(std::make_unique<GandivaScheduler>());
  }
  if (name == "afs") {
    return std::unique_ptr<JobScheduler>(std::make_unique<AfsScheduler>());
  }
  if (name == "pollux") {
    return std::unique_ptr<JobScheduler>(std::make_unique<PolluxScheduler>());
  }
  if (name == "opportunistic") {
    return std::unique_ptr<JobScheduler>(std::make_unique<OpportunisticScheduler>());
  }
  if (name == "lyra" || name == "lyra-naive-placement" || name == "lyra-no-elastic") {
    LyraSchedulerOptions options;
    options.information_agnostic = info_agnostic;
    options.tuned_jobs = tuned;
    options.naive_placement = name == "lyra-naive-placement";
    options.disable_elastic_scaling = name == "lyra-no-elastic";
    return std::unique_ptr<JobScheduler>(std::make_unique<LyraScheduler>(options));
  }
  return UnknownComponent("scheduler", name, KnownSchedulerNames());
}

StatusOr<std::unique_ptr<ReclaimPolicy>> MakeReclaim(const std::string& name) {
  if (name == "lyra") {
    return std::unique_ptr<ReclaimPolicy>(std::make_unique<LyraReclaimPolicy>());
  }
  if (name == "random") {
    return std::unique_ptr<ReclaimPolicy>(std::make_unique<RandomReclaimPolicy>());
  }
  if (name == "scf") {
    return std::unique_ptr<ReclaimPolicy>(std::make_unique<ScfReclaimPolicy>());
  }
  if (name == "optimal") {
    return std::unique_ptr<ReclaimPolicy>(std::make_unique<OptimalReclaimPolicy>());
  }
  return UnknownComponent("reclaim policy", name, KnownReclaimNames());
}

StatusOr<std::unique_ptr<UsagePredictor>> MakePredictor(const std::string& name) {
  if (name == "seasonal-naive") {
    return std::unique_ptr<UsagePredictor>(std::make_unique<SeasonalNaivePredictor>());
  }
  if (name == "lstm") {
    return std::unique_ptr<UsagePredictor>(std::make_unique<LstmPredictor>());
  }
  if (name == "last-value") {
    return std::unique_ptr<UsagePredictor>(std::make_unique<LastValuePredictor>());
  }
  return UnknownComponent("usage predictor", name, KnownPredictorNames());
}

std::unique_ptr<UsagePredictor> MakeUsagePredictor(bool lstm) {
  if (lstm) {
    return std::make_unique<LstmPredictor>();
  }
  return std::make_unique<SeasonalNaivePredictor>();
}

StatusOr<PaperCluster> PaperClusterAt(double scale) {
  // 520 * scale is the larger count; `!(x < 2^31)` also refuses NaN and inf.
  if (!(scale > 0.0) || !(520 * scale < 2147483648.0)) {
    char message[96];
    std::snprintf(message, sizeof(message),
                  "scale must be positive with server counts that fit in an int (got %g)",
                  scale);
    return Status::InvalidArgument(message);
  }
  return PaperCluster{.training_servers = std::max(1, static_cast<int>(443 * scale)),
                      .inference_servers = std::max(1, static_cast<int>(520 * scale))};
}

void ApplyTraceRecipe(const TraceRecipe& recipe, Trace& trace) {
  Rng rng(recipe.seed ^ 0x5eed);
  if (recipe.ideal) {
    ApplyIdealScenario(trace);
  }
  if (recipe.clear_fungible) {
    ClearFungibleFlags(trace);
  }
  if (recipe.elastic_job_population > 0.0) {
    ApplyElasticFraction(trace, recipe.elastic_job_population, rng);
  }
}

Trace MakeSyntheticTrace(const TraceRecipe& recipe, int training_servers) {
  Trace trace = SyntheticTraceGenerator(
                    {.duration = recipe.days * kDay,
                     .training_gpus = training_servers * 8,
                     .target_utilization = recipe.offered_load,
                     .heterogeneous_job_fraction = recipe.heterogeneous_fraction,
                     .checkpointing_fraction = recipe.checkpointing_fraction,
                     .seed = recipe.seed})
                    .Generate();
  ApplyTraceRecipe(recipe, trace);
  return trace;
}

FaultOptions ChaosFaults(std::uint64_t seed) {
  return {.enabled = true,
          .seed = seed ^ 0xfa17,
          .server_mtbf = 12 * kHour,
          .worker_mtbf = 6 * kHour,
          .storm_mtbf = 2 * kDay,
          .straggler_mtbf = 8 * kHour};
}

StatusOr<Engine> BuildEngine(const EngineConfig& config, const Trace& trace,
                             SimulatorOptions options) {
  const StatusOr<PaperCluster> cluster = PaperClusterAt(config.scale);
  if (!cluster.ok()) {
    return cluster.status();
  }
  Engine engine;
  StatusOr<std::unique_ptr<JobScheduler>> scheduler =
      MakeScheduler(config.scheduler, config.info_agnostic, config.tuned);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  engine.scheduler = std::move(scheduler.value());
  StatusOr<std::unique_ptr<ReclaimPolicy>> reclaim = MakeReclaim(config.reclaim);
  if (!reclaim.ok()) {
    return reclaim.status();
  }
  engine.reclaim = std::move(reclaim.value());

  options.training_servers = cluster.value().training_servers;
  options.enable_loaning = config.loaning;
  options.seed = config.seed;
  if (config.faults) {
    options.faults = ChaosFaults(config.seed);
  }
  engine.sim = std::make_unique<Simulator>(
      options, trace, engine.scheduler.get(), engine.reclaim.get(),
      MakeInferenceCluster(cluster.value().inference_servers, trace.duration,
                           config.seed, MakeUsagePredictor(config.lstm)));
  return engine;
}

}  // namespace lyra::svc
