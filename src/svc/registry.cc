#include "src/svc/registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/types.h"
#include "src/lyra/lyra_scheduler.h"
#include "src/predict/lstm.h"
#include "src/rl/learned_scheduler.h"
#include "src/rl/policy.h"
#include "src/sched/afs.h"
#include "src/sched/fifo.h"
#include "src/sched/gandiva.h"
#include "src/sched/opportunistic.h"
#include "src/sched/pollux.h"
#include "src/sim/inference_cluster.h"
#include "src/workload/trace.h"

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
      "afs", "fifo", "gandiva", "learned", "lyra", "lyra-naive-placement",
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
    const std::string& name, bool info_agnostic, bool tuned,
    const std::string& policy_weights) {
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
  if (name == "learned") {
    if (policy_weights.empty()) {
      return Status::InvalidArgument(
          "scheduler \"learned\" requires --policy-weights=<LYRAPOL file> "
          "(train one with lyra_train)");
    }
    StatusOr<rl::PolicyNet> policy = rl::PolicyNet::Load(policy_weights);
    if (!policy.ok()) {
      return policy.status();
    }
    return std::unique_ptr<JobScheduler>(
        std::make_unique<rl::LearnedScheduler>(std::move(policy.value())));
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

StatusOr<Engine> BuildEngine(const EngineConfig& config,
                             const std::string& trace_path) {
  if (!(config.scale > 0.0) || !std::isfinite(config.scale)) {
    return Status::InvalidArgument("scale must be positive");
  }
  if (!(config.horizon_days > 0.0) || !std::isfinite(config.horizon_days)) {
    return Status::InvalidArgument("horizon_days must be positive");
  }
  Engine engine;
  StatusOr<std::unique_ptr<JobScheduler>> scheduler = MakeScheduler(
      config.scheduler, config.info_agnostic, config.tuned, config.policy_weights);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  engine.scheduler = std::move(scheduler.value());
  StatusOr<std::unique_ptr<ReclaimPolicy>> reclaim = MakeReclaim(config.reclaim);
  if (!reclaim.ok()) {
    return reclaim.status();
  }
  engine.reclaim = std::move(reclaim.value());

  // Truncating, unlike the bench harness: see MakeInferenceCluster.
  const int training_servers = std::max(1, static_cast<int>(443 * config.scale));
  const int inference_servers = std::max(1, static_cast<int>(520 * config.scale));

  // Online serving starts from an empty trace: jobs arrive only through
  // SubmitJob. The duration sets the usage-metering window and (plus the
  // standard 7-day drain) the engine's max_time.
  Trace trace;
  trace.duration = config.horizon_days * kDay;

  SimulatorOptions options;
  options.training_servers = training_servers;
  options.enable_loaning = config.loaning;
  options.seed = config.seed;
  // The decision log is the service's replay-equality artifact (DESIGN.md
  // §8); always record it.
  options.record_decisions = true;
  options.trace_path = trace_path;
  if (config.faults) {
    options.faults.enabled = true;
    options.faults.seed = config.seed ^ 0xfa17;
    options.faults.server_mtbf = 12 * kHour;
    options.faults.worker_mtbf = 6 * kHour;
    options.faults.storm_mtbf = 2 * kDay;
    options.faults.straggler_mtbf = 8 * kHour;
  }
  engine.sim = std::make_unique<Simulator>(
      options, trace, engine.scheduler.get(), engine.reclaim.get(),
      MakeInferenceCluster(inference_servers, trace.duration, config.seed,
                           MakeUsagePredictor(config.lstm)));
  return engine;
}

}  // namespace lyra::svc
