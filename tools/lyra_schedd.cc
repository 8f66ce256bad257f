// lyra_schedd: the online scheduler daemon.
//
// Serves the Lyra scheduling engine over a Unix-domain socket — and
// optionally a TCP socket (--tcp-port) — speaking length-prefixed JSON (see
// DESIGN.md §8 for the protocol). Connections are multiplexed by an epoll
// event loop over a small fixed I/O thread pool; clients may pipeline
// commands freely. Virtual-time by default (as fast as the engine can run);
// --time-scale switches to scaled wall-clock pacing. --restore warm-restarts
// from a snapshot taken with `lyra_ctl snapshot` (or the snapshot command),
// replaying the persisted command log into a bit-identical engine.
//
// Every daemon is a fleet of clusters behind the one front end (DESIGN.md
// §10–11), each cluster one independent single-writer engine. The plain
// daemon is one training cluster "train0"; --federation=<spec> runs more:
// "2x2" is 2 inference + 2 training clusters, "0x4" is 4 training clusters
// (untargeted submits spread by key hash, job ids carry their owning
// engine), and "name:kind,..." spells the clusters out. Submits route by
// "cluster"/"kind", and `migrate` moves a training job between training
// clusters; capacity loaning stays inside each engine.
// One engine snapshots to a plain LYRASNAP file, more engines to one
// LYRAFED container of their LYRASNAP images; --restore takes the topology
// from the file, whatever the flags say, and refuses any other format or
// version.
//
//   ./build/tools/lyra_schedd --socket=/tmp/lyra.sock
//   ./build/tools/lyra_schedd --socket=/tmp/lyra.sock --tcp-port=7070
//   ./build/tools/lyra_schedd --socket=/tmp/lyra.sock --restore=/tmp/lyra.snap
//   ./build/tools/lyra_schedd --socket=/tmp/lyra.sock --time-scale=3600
//   ./build/tools/lyra_schedd --socket=/tmp/lyra.sock --federation=0x4
//   ./build/tools/lyra_schedd --socket=/tmp/lyra.sock --federation=2x2
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/log.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/registry.h"
#include "src/svc/service.h"
#include "src/svc/time_driver.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
volatile std::sig_atomic_t g_dump_flight = 0;

void HandleSignal(int sig) { g_signal = sig; }

void HandleUsr1(int) { g_dump_flight = 1; }

}  // namespace

int main(int argc, char** argv) {
  lyra::svc::ServiceOptions options;
  options.auto_advance = true;  // a daemon's jobs progress without traffic
  lyra::svc::EventLoopOptions loop_options;
  loop_options.unix_path = "/tmp/lyra_schedd.sock";
  std::string restore_path;
  std::string snapshot_on_exit;
  // LYRA_LOG_LEVEL seeds the default so wrappers (CI, systemd units) can set
  // verbosity without editing the command line; --log-level still wins.
  const char* env_level = std::getenv("LYRA_LOG_LEVEL");
  std::string log_level = env_level != nullptr ? env_level : "warning";
  std::string flight_path = "/tmp/lyra_schedd.trace.json";
  double time_scale = 0.0;
  std::string federation_spec = "0x1";  // SingleCluster()
  int seed = 42;

  lyra::FlagSet flags("lyra_schedd: serve the Lyra scheduler over a Unix socket");
  flags.AddString("socket", &loop_options.unix_path,
                  "Unix socket path to listen on (empty disables)");
  flags.AddString("tcp-host", &loop_options.tcp_host, "TCP listen address");
  flags.AddInt("tcp-port", &loop_options.tcp_port,
               "TCP port to listen on (-1 disables, 0 = ephemeral)");
  flags.AddString("scheduler", &options.engine.scheduler,
                  lyra::svc::JoinNames(lyra::svc::KnownSchedulerNames()));
  flags.AddString("reclaim", &options.engine.reclaim,
                  lyra::svc::JoinNames(lyra::svc::KnownReclaimNames()));
  flags.AddString("restore", &restore_path, "warm-restart from this snapshot");
  flags.AddString("snapshot-on-exit", &snapshot_on_exit,
                  "write a snapshot here on SIGINT/SIGTERM");
  flags.AddString("trace-json", &options.trace_path,
                  "stream a Perfetto trace (incl. the svc track) here");
  flags.AddDouble("time-scale", &time_scale,
                  "virtual seconds per wall second (0 = as fast as possible)");
  flags.AddDouble("scale", &options.engine.scale, "cluster scale (1.0 = 443+520 servers)");
  flags.AddDouble("horizon-days", &options.engine.horizon_days, "metering window in days");
  flags.AddInt("seed", &seed, "engine seed");
  flags.AddBool("loaning", &options.engine.loaning, "enable capacity loaning");
  flags.AddBool("faults", &options.engine.faults, "enable deterministic fault injection");
  flags.AddBool("auto-advance", &options.auto_advance,
                "virtual mode: free-run the engine between commands");
  flags.AddInt("queue-capacity", &options.queue_capacity,
               "command queue bound (backpressure beyond it)");
  flags.AddInt("io-threads", &loop_options.io_threads, "epoll I/O threads");
  flags.AddString("federation", &federation_spec,
                  "multi-cluster federation, one engine per cluster: "
                  "\"NxM\" or \"name:kind,...\"");
  flags.AddString("log-level", &log_level,
                  "debug | info | warning | error | off "
                  "(default from LYRA_LOG_LEVEL)");
  flags.AddDouble("slow-ms", &loop_options.slow_ms,
                  "log requests slower than this at WARNING (0 disables)");
  flags.AddString("flight-path", &flight_path,
                  "SIGUSR1 dumps the flight recorder to this trace file");

  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(), flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  lyra::LogLevel level;
  if (!lyra::ParseLogLevel(log_level, &level)) {
    std::fprintf(stderr, "lyra_schedd: unknown --log-level %s\n",
                 log_level.c_str());
    return 1;
  }
  lyra::SetLogLevel(level);
  options.engine.seed = static_cast<std::uint64_t>(seed);

  // The event loop already writes with MSG_NOSIGNAL, but belt-and-braces:
  // nothing in this process ever wants a SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  const auto make_driver =
      [time_scale](int) -> std::unique_ptr<lyra::svc::TimeDriver> {
    if (time_scale > 0.0) {
      return std::make_unique<lyra::svc::ScaledRealTimeDriver>(time_scale);
    }
    return std::make_unique<lyra::svc::VirtualTimeDriver>();
  };
  lyra::StatusOr<lyra::svc::FederationSet> built =
      [&]() -> lyra::StatusOr<lyra::svc::FederationSet> {
    if (!restore_path.empty()) {
      return lyra::svc::RestoreFederation(options, restore_path, make_driver);
    }
    lyra::StatusOr<std::vector<lyra::svc::ClusterSpec>> clusters =
        lyra::svc::ParseFederationSpec(federation_spec);
    if (!clusters.ok()) {
      return clusters.status();
    }
    return lyra::svc::BuildFederation(options, clusters.value(), make_driver);
  }();
  if (!built.ok()) {
    std::fprintf(stderr, "lyra_schedd: %s\n", built.status().message().c_str());
    return 1;
  }
  lyra::svc::FederationSet fleet = std::move(built.value());
  lyra::svc::FederationRouter& router = *fleet.router;
  if (!restore_path.empty()) {
    std::size_t commands = 0;
    for (const auto& shard : fleet.services) {
      commands += shard->command_log().size();
    }
    std::printf(
        "restored %zu command(s) across %d shard(s) from %s; front engine at "
        "t=%.1fs\n",
        commands, router.shard_count(), restore_path.c_str(),
        router.front()->simulator().now());
  }

  lyra::svc::EventLoop loop(&router, loop_options);
  const lyra::Status listening = loop.Start();
  if (!listening.ok()) {
    std::fprintf(stderr, "lyra_schedd: %s\n", listening.message().c_str());
    for (auto& shard : fleet.services) {
      shard->Stop();
    }
    return 1;
  }
  std::printf("lyra_schedd listening on %s", loop.unix_path().empty()
                                                 ? "(no unix socket)"
                                                 : loop.unix_path().c_str());
  if (loop.tcp_port() >= 0) {
    std::printf(" and tcp %s:%d", loop_options.tcp_host.c_str(),
                loop.tcp_port());
  }
  std::printf(" (scheduler=%s reclaim=%s driver=%s io-threads=%d shards=%d)\n",
              options.engine.scheduler.c_str(), options.engine.reclaim.c_str(),
              time_scale > 0.0 ? "scaled-realtime" : "virtual",
              loop_options.io_threads, router.shard_count());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleUsr1);
  while (g_signal == 0 && !router.front()->stopped()) {
    if (g_dump_flight != 0) {
      g_dump_flight = 0;
      // One file per engine, same naming as the trace_dump wire command.
      for (int k = 0; k < router.shard_count(); ++k) {
        const std::string path = lyra::svc::EnginePath(flight_path, k);
        const lyra::StatusOr<std::size_t> dumped =
            router.shard(k)->DumpFlightRecorder(path);
        if (dumped.ok()) {
          std::printf("flight recorder: %zu span(s) -> %s\n", dumped.value(),
                      path.c_str());
        } else {
          std::fprintf(stderr, "flight recorder: %s\n",
                       dumped.status().message().c_str());
        }
      }
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (g_signal != 0 && !snapshot_on_exit.empty() &&
      !router.front()->stopped()) {
    lyra::JsonValue request = lyra::JsonValue::MakeObject();
    request.Set("cmd", lyra::JsonValue::MakeString("snapshot"));
    request.Set("path", lyra::JsonValue::MakeString(snapshot_on_exit));
    const lyra::JsonValue reply = router.Execute(request);
    std::printf("snapshot-on-exit: %s\n", reply.Dump().c_str());
  }

  // Stop the shards first so every queued command completes and its reply
  // reaches the event loop; the loop then flushes and closes connections.
  for (auto& shard : fleet.services) {
    shard->Stop();
  }
  loop.Stop();
  const lyra::svc::SchedulerService::Stats stats = router.AggregateStats();
  std::printf("lyra_schedd exiting: %llu command(s), %llu submit(s), "
              "%llu read(s), %llu rejection(s)\n",
              static_cast<unsigned long long>(stats.commands_applied),
              static_cast<unsigned long long>(stats.jobs_submitted),
              static_cast<unsigned long long>(stats.reads_served),
              static_cast<unsigned long long>(stats.rejected_overload));
  return 0;
}
