// Online service: embed the scheduler daemon in-process.
//
// The fleet that lyra_schedd serves over a Unix socket is a plain C++ object:
// build a one-engine fleet with a VirtualTimeDriver, feed its router the wire
// protocol's JSON commands directly with Execute(), and virtual time jumps
// instantly. The router is the daemon's one command path — it answers reads
// from the engine's snapshot and queues engine commands to the single
// writer — so this is the fastest way to script online arrival/cancel
// scenarios without touching sockets, with exactly the replies a remote
// client sees.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/online_service
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/json.h"
#include "src/svc/federation.h"
#include "src/svc/time_driver.h"

namespace {

lyra::JsonValue Submit(double at, double total_work, int max_workers) {
  lyra::JsonValue cmd = lyra::JsonValue::MakeObject();
  cmd.Set("cmd", lyra::JsonValue::MakeString("submit"));
  cmd.Set("at", lyra::JsonValue::MakeNumber(at));
  cmd.Set("gpus_per_worker", lyra::JsonValue::MakeNumber(1));
  cmd.Set("min_workers", lyra::JsonValue::MakeNumber(1));
  cmd.Set("max_workers", lyra::JsonValue::MakeNumber(max_workers));
  cmd.Set("total_work", lyra::JsonValue::MakeNumber(total_work));
  cmd.Set("fungible", lyra::JsonValue::MakeBool(true));
  return cmd;
}

lyra::JsonValue Run(lyra::svc::FederationRouter& router, lyra::JsonValue cmd) {
  const lyra::JsonValue reply = router.Execute(cmd);
  std::printf("  %-12s -> %s\n", cmd.GetString("cmd").c_str(),
              reply.Dump().c_str());
  return reply;
}

}  // namespace

int main() {
  // A small cluster (5% of the paper's fleet), virtual time, and manual
  // advancement: the engine only moves when we say so.
  lyra::svc::ServiceOptions options;
  options.engine.scale = 0.05;
  options.auto_advance = false;
  lyra::StatusOr<lyra::svc::FederationSet> fleet = lyra::svc::BuildFederation(
      options, lyra::svc::SingleCluster(),
      [](int) { return std::make_unique<lyra::svc::VirtualTimeDriver>(); });
  if (!fleet.ok()) {
    std::fprintf(stderr, "start failed: %s\n", fleet.status().message().c_str());
    return 1;
  }
  lyra::svc::FederationRouter& router = *fleet.value().router;
  lyra::svc::SchedulerService& engine = *fleet.value().services[0];

  std::printf("Submitting three jobs at t=0, t=30min, t=1h:\n");
  Run(router, Submit(0.0, 4 * 3600.0, /*max_workers=*/4));
  Run(router, Submit(1800.0, 24 * 3600.0, /*max_workers=*/2));
  Run(router, Submit(3600.0, 2 * 3600.0, /*max_workers=*/1));

  std::printf("\nAdvance virtual time to t=2h and inspect job 0:\n");
  lyra::JsonValue advance = lyra::JsonValue::MakeObject();
  advance.Set("cmd", lyra::JsonValue::MakeString("advance"));
  advance.Set("to", lyra::JsonValue::MakeNumber(2 * 3600.0));
  Run(router, advance);

  lyra::JsonValue query = lyra::JsonValue::MakeObject();
  query.Set("cmd", lyra::JsonValue::MakeString("query_job"));
  query.Set("job", lyra::JsonValue::MakeNumber(0));
  Run(router, query);

  std::printf("\nCancel the long job, then drain to quiescence:\n");
  lyra::JsonValue cancel = lyra::JsonValue::MakeObject();
  cancel.Set("cmd", lyra::JsonValue::MakeString("cancel"));
  cancel.Set("job", lyra::JsonValue::MakeNumber(1));
  Run(router, cancel);

  lyra::JsonValue drain = lyra::JsonValue::MakeObject();
  drain.Set("cmd", lyra::JsonValue::MakeString("drain"));
  const lyra::JsonValue drained = Run(router, drain);

  lyra::JsonValue stats = lyra::JsonValue::MakeObject();
  stats.Set("cmd", lyra::JsonValue::MakeString("cluster_stats"));
  Run(router, stats);

  engine.Stop();
  std::printf("\nFinal virtual time: %.0fs; %lld jobs reached a terminal state.\n",
              engine.simulator().now(),
              static_cast<long long>(drained.GetDouble("terminal", 0.0)));
  return 0;
}
