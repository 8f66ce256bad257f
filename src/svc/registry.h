// The component table and the one engine builder: the only name ->
// scheduler / reclaim policy / usage predictor map in the repo, and the only
// place a paper engine is wired. Every driver builds here — lyra_sim, the
// daemon, the bench harness and the golden tests — so the engine a
// `lyra_schedd` serves is the one `lyra_sim` simulates and the one a bench
// table reports. It is its own library (lyra_registry, no sockets or
// threads) so the harness can link it without the service layer.
//
// EngineConfig is the decision-relevant subset of the service configuration:
// everything that shapes scheduling outcomes, and nothing else. It is what a
// snapshot persists, so a warm restart rebuilds a bit-identical engine (queue
// sizes, socket paths, and other runtime knobs deliberately stay out).
#ifndef SRC_SVC_REGISTRY_H_
#define SRC_SVC_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lyra/reclaim.h"
#include "src/predict/predictor.h"
#include "src/sched/scheduler.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/workload/trace.h"

namespace lyra::svc {

// Registered names, sorted, for error messages and --help text.
const std::vector<std::string>& KnownSchedulerNames();
const std::vector<std::string>& KnownReclaimNames();
const std::vector<std::string>& KnownPredictorNames();

// Registered names joined with ", ", for --help text.
std::string JoinNames(const std::vector<std::string>& names);

// Status-reporting factories. Unknown names fail with InvalidArgument listing
// the registered alternatives. `info_agnostic` and `tuned` apply to the three
// Lyra names: `lyra`, and the ablations `lyra-naive-placement` (Table 6) and
// `lyra-no-elastic` (capacity loaning only, §7.3).
StatusOr<std::unique_ptr<JobScheduler>> MakeScheduler(
    const std::string& name, bool info_agnostic, bool tuned);
StatusOr<std::unique_ptr<ReclaimPolicy>> MakeReclaim(const std::string& name);
StatusOr<std::unique_ptr<UsagePredictor>> MakePredictor(const std::string& name);

// The engine's usage predictor: the LSTM when `lstm`, seasonal-naive
// otherwise.
std::unique_ptr<UsagePredictor> MakeUsagePredictor(bool lstm);

struct EngineConfig {
  std::string scheduler = "lyra";
  std::string reclaim = "lyra";
  bool info_agnostic = false;
  bool tuned = false;
  bool loaning = true;
  bool lstm = false;
  // Deterministic fault injection with chaos-profile defaults (crashes,
  // worker failures, storms, stragglers), seeded from `seed`.
  bool faults = false;
  // Cluster size: 1.0 = the paper's 443 training + 520 inference servers.
  double scale = 0.25;
  // Usage-metering window and max_time base, in days of virtual time.
  double horizon_days = 30.0;
  std::uint64_t seed = 42;

  friend bool operator==(const EngineConfig&, const EngineConfig&) = default;
};

// The paper's cluster at a scale: 1.0 is 443 training + 520 inference
// servers, each count truncated toward zero, at least one. InvalidArgument
// unless `scale` is positive and both counts fit in an int.
struct PaperCluster {
  int training_servers = 0;
  int inference_servers = 0;
};
StatusOr<PaperCluster> PaperClusterAt(double scale);

// One synthetic §7.1 workload, calibrated to a cluster's training GPUs.
struct TraceRecipe {
  double days = 15.0;
  double offered_load = 0.95;
  double heterogeneous_fraction = 0.0;
  double checkpointing_fraction = 0.0;
  // Grow the elastic share of the job population to this fraction (Figs
  // 14-16); <= 0 leaves the trace as generated.
  double elastic_job_population = 0.0;
  bool ideal = false;           // Ideal scenario transform (§7.1)
  bool clear_fungible = false;  // Heterogeneous scenario drops fungible load
  std::uint64_t seed = 42;
};

// The recipe's transforms (Ideal, clear fungible, then the elastic fraction
// drawn from `seed ^ 0x5eed`), also applied to lyra_sim's CSV traces.
void ApplyTraceRecipe(const TraceRecipe& recipe, Trace& trace);
// The generator over `training_servers * 8` GPUs, then ApplyTraceRecipe.
Trace MakeSyntheticTrace(const TraceRecipe& recipe, int training_servers);

// The chaos profile EngineConfig::faults turns on (fleet-wide MTBFs: server
// 12 h, worker 6 h, revocation storm 2 days, straggler 8 h; `seed ^ 0xfa17`).
FaultOptions ChaosFaults(std::uint64_t seed);

// A fully wired engine: the simulator plus the policy objects it borrows
// (Simulator keeps raw pointers, so they live here alongside it).
struct Engine {
  std::unique_ptr<JobScheduler> scheduler;
  std::unique_ptr<ReclaimPolicy> reclaim;
  std::unique_ptr<Simulator> sim;
};

// The engine every driver runs over `trace`: the components by name, the
// PaperClusterAt(config.scale) servers, MakeUsagePredictor(config.lstm),
// loaning, the seed, and ChaosFaults when config.faults. The rest of
// `options` is the driver's run-only choice (series, decisions, Perfetto
// path, profiler, throughput, a bench's own faults, ...). InvalidArgument on
// unknown names or a scale with no paper cluster.
StatusOr<Engine> BuildEngine(const EngineConfig& config, const Trace& trace,
                             SimulatorOptions options = {});

}  // namespace lyra::svc

#endif  // SRC_SVC_REGISTRY_H_
