// Open-loop load client for the scheduler service, shared by the
// lyra_loadgen CLI and bench_svc_saturation.
//
// Open-loop means sends are scheduled by the clock, never gated on replies:
// at an offered rate the daemon cannot sustain, latency and backlog grow
// instead of the load politely slowing down, which is what a saturation
// sweep needs to expose. Each connection runs a paced sender that
// materializes every frame due at the current instant into one buffer and
// ships the batch with a single write (matching the daemon's pipelined
// batching), plus a receiver that drains replies through a FrameDecoder and
// matches them to send stamps FIFO — per-connection reply order is a service
// guarantee, so FIFO matching is exact.
#ifndef SRC_SVC_LOADCLIENT_H_
#define SRC_SVC_LOADCLIENT_H_

#include <cstdint>
#include <string>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace lyra::svc {

struct LoadClientOptions {
  // Connect over the Unix socket when `unix_path` is non-empty, else over
  // TCP when `tcp_port` >= 0.
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  int connections = 2;
  // Aggregate offered request rate (requests/sec across all connections).
  double rate = 20000.0;
  // Send window in wall seconds; the run ends when every reply (or EOF)
  // has been received.
  double duration_s = 2.0;
  // Pre-serialized request JSON (framing is added per send).
  std::string payload;
  // Scrape the daemon's `stats_prom` exposition before and after the run and
  // difference the submit-duration histogram, attaching server-side
  // percentiles to the LoadPoint (the client-vs-server p99 cross-check).
  // Scrape failures degrade to server_samples == 0, never fail the run.
  bool scrape_server = false;
};

struct LoadPoint {
  double offered_rate = 0.0;
  double wall_s = 0.0;
  int connections = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
  // Replies accepted (`ok:true`) per wall second.
  double accepted_per_s = 0.0;
  // Send-to-reply latency percentiles over every matched reply, measured
  // from the instant the frame actually hit the wire ("achieved").
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t samples = 0;
  // The same percentiles measured from each frame's *intended* send time
  // (start + index / rate) — the coordinated-omission-corrected view. When
  // the daemon keeps up the two agree; past saturation the achieved numbers
  // flatter the server (late sends hide queueing delay) and these do not.
  double corrected_p50_ms = 0.0;
  double corrected_p90_ms = 0.0;
  double corrected_p99_ms = 0.0;
  double corrected_p999_ms = 0.0;
  double corrected_max_ms = 0.0;
  // High-watermark of frames in flight on any one connection — how far the
  // open loop actually got ahead of the daemon during the window.
  std::uint64_t backlog_max = 0;
  // Server-side submit latency (decode -> reply queued) over this run's
  // window, from differencing the daemon's cumulative histogram across the
  // before/after scrapes. Zero server_samples means scraping was off or
  // failed. Bucket-quantile estimates: agreement with the client-side
  // percentiles is within one log2 bucket, not exact.
  double server_p50_ms = 0.0;
  double server_p90_ms = 0.0;
  double server_p99_ms = 0.0;
  double server_p999_ms = 0.0;
  std::uint64_t server_samples = 0;
};

// Runs one open-loop measurement. Unavailable when no connection can be
// established.
StatusOr<LoadPoint> RunOpenLoop(const LoadClientOptions& options);

// One `stats_prom` request to the endpoint ConnectEndpoint picks: the
// daemon's Prometheus exposition text, or the refusal as Internal.
StatusOr<std::string> FetchStatsProm(const std::string& unix_path,
                                     const std::string& tcp_host,
                                     int tcp_port);

// One-shot scrape of the daemon's `stats_prom` exposition, reassembling the
// request-duration histogram (seconds) for wire command `cmd`. NotFound when
// the daemon has not yet served that command (zero-count families are not
// exported).
StatusOr<obs::Histogram> ScrapeServerHistogram(const LoadClientOptions& options,
                                               const std::string& cmd);

// Serializes a LoadPoint into the BENCH_perf.json vocabulary.
JsonValue LoadPointJson(const LoadPoint& point);

}  // namespace lyra::svc

#endif  // SRC_SVC_LOADCLIENT_H_
