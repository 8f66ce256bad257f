// The component table: the only name -> scheduler / reclaim policy / usage
// predictor map in the repo, plus the online engine builder.
//
// Every driver builds its components here — lyra_sim, the daemon and the
// in-process service, the bench harness and the examples — so the engine a
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
#include "src/sim/simulator.h"

namespace lyra::svc {

// Registered names, sorted, for error messages and --help text.
const std::vector<std::string>& KnownSchedulerNames();
const std::vector<std::string>& KnownReclaimNames();
const std::vector<std::string>& KnownPredictorNames();

// Registered names joined with ", ", for --help text.
std::string JoinNames(const std::vector<std::string>& names);

// Status-reporting factories. Unknown names fail with InvalidArgument listing
// the registered alternatives; `learned` additionally needs `policy_weights`
// (a LYRAPOL file, see src/rl/policy.h) and propagates load errors.
// `info_agnostic` and `tuned` apply to the three Lyra names: `lyra`, and the
// ablations `lyra-naive-placement` (Table 6) and `lyra-no-elastic` (capacity
// loaning only, §7.3).
StatusOr<std::unique_ptr<JobScheduler>> MakeScheduler(
    const std::string& name, bool info_agnostic, bool tuned,
    const std::string& policy_weights = "");
StatusOr<std::unique_ptr<ReclaimPolicy>> MakeReclaim(const std::string& name);
StatusOr<std::unique_ptr<UsagePredictor>> MakePredictor(const std::string& name);

// The engine's usage predictor: the LSTM when `lstm`, seasonal-naive
// otherwise.
std::unique_ptr<UsagePredictor> MakeUsagePredictor(bool lstm);

struct EngineConfig {
  std::string scheduler = "lyra";
  std::string reclaim = "lyra";
  // LYRAPOL weights file for scheduler == "learned" (ignored otherwise).
  // Persisted in snapshots so a warm restart reloads the same policy.
  std::string policy_weights;
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

// A fully wired engine: the simulator plus the policy objects it borrows
// (Simulator keeps raw pointers, so they live here alongside it).
struct Engine {
  std::unique_ptr<JobScheduler> scheduler;
  std::unique_ptr<ReclaimPolicy> reclaim;
  std::unique_ptr<Simulator> sim;
};

// Builds an empty-trace engine for online serving. `trace_path`, when
// non-empty, enables the Perfetto trace stream (with the svc track).
// InvalidArgument on unknown scheduler/reclaim names or a bad scale.
StatusOr<Engine> BuildEngine(const EngineConfig& config,
                             const std::string& trace_path = "");

}  // namespace lyra::svc

#endif  // SRC_SVC_REGISTRY_H_
