// lyra_top: refreshing terminal dashboard for a running lyra_schedd.
//
// Polls the daemon's Prometheus exposition — `GET /metrics` over HTTP when
// --tcp is given (the same sniffed path a real scraper uses), or the
// `stats_prom` wire command over the Unix socket otherwise — and renders
// throughput deltas, windowed latency percentiles per command, queue depth,
// shed counts, the per-io-thread traffic balance, and (against a fleet) one
// row per engine with its cluster, command rate, GPUs and jobs. Percentiles
// are computed by differencing consecutive scrapes of the cumulative
// histograms (WindowSince, prom.h), so every number shown is "over the last
// interval", not since daemon start.
//
//   lyra_top --socket=/tmp/lyra_schedd.sock
//   lyra_top --tcp=127.0.0.1:7070 --interval=1
//   lyra_top --tcp=127.0.0.1:7070 --count=1 --plain    # one-shot, CI-friendly
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/svc/loadclient.h"
#include "src/svc/prom.h"
#include "src/svc/wire.h"

namespace {

using lyra::Status;
using lyra::StatusOr;
using lyra::obs::Histogram;
using lyra::svc::PromSample;
using lyra::svc::PromScrape;

// Wire commands worth a latency row, in display order.
const char* const kLatencyCmds[] = {"submit",    "cancel",        "advance",
                                    "query_job", "cluster_stats", "ping",
                                    "stats_prom"};

// Minimal HTTP/1.x GET: the daemon always answers with Connection: close, so
// "read to EOF, split on the blank line" is the whole client.
StatusOr<std::string> FetchHttpMetrics(const std::string& host, int port) {
  StatusOr<int> fd = lyra::svc::ConnectTcp(host, port);
  if (!fd.ok()) {
    return fd.status();
  }
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  const Status sent =
      lyra::svc::WriteAllBytes(fd.value(), request.data(), request.size());
  if (!sent.ok()) {
    ::close(fd.value());
    return sent;
  }
  std::string response;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd.value(), buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd.value());
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::DataLoss("truncated HTTP response");
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    return Status::Internal("metrics endpoint answered: " + status_line);
  }
  return response.substr(header_end + 4);
}

double Rate(double cur, double prev, double dt, bool have_prev) {
  if (!have_prev || dt <= 0.0) {
    return 0.0;
  }
  return cur >= prev ? (cur - prev) / dt : 0.0;  // daemon restart -> 0
}

struct Frame {
  PromScrape scrape;
  std::map<std::string, Histogram> cmd_hist;  // cumulative, by command
};

void Render(const Frame& cur, const Frame* prev, double dt, bool plain) {
  if (!plain) {
    std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
  }
  const PromScrape& s = cur.scrape;
  const double uptime = s.Value("lyra_svc_uptime_seconds");
  const PromSample* info = s.Find("lyra_svc_info");
  std::string scheduler = "?", reclaim = "?", driver = "?";
  if (info != nullptr) {
    auto it = info->labels.find("scheduler");
    scheduler = it != info->labels.end() ? it->second : "?";
    it = info->labels.find("reclaim");
    reclaim = it != info->labels.end() ? it->second : "?";
    it = info->labels.find("driver");
    driver = it != info->labels.end() ? it->second : "?";
  }
  std::printf("lyra_top — scheduler=%s reclaim=%s driver=%s up %.0fs\n",
              scheduler.c_str(), reclaim.c_str(), driver.c_str(), uptime);

  const bool have_prev = prev != nullptr;
  const auto counter = [&](const char* name) { return s.Value(name); };
  const auto prev_counter = [&](const char* name) {
    return have_prev ? prev->scrape.Value(name) : 0.0;
  };
  const auto rate = [&](const char* name) {
    return Rate(counter(name), prev_counter(name), dt, have_prev);
  };
  std::printf(
      "commands %8.0f/s   submits %8.0f/s   reads %8.0f/s   sheds %6.0f/s\n",
      rate("lyra_svc_commands_applied_total"),
      rate("lyra_svc_jobs_submitted_total"),
      rate("lyra_svc_reads_served_total"),
      rate("lyra_svc_rejected_overload_total"));
  std::printf(
      "queue depth %5.0f (peak %5.0f)   snapshots %8.0f   errors %8.0f   "
      "virtual t=%.0fs\n",
      s.Value("lyra_svc_queue_depth"), s.Value("lyra_svc_queue_peak"),
      counter("lyra_svc_snapshots_published_total"),
      counter("lyra_svc_command_errors_total"),
      s.Value("lyra_engine_virtual_time_seconds"));
  std::printf(
      "jobs: pending %.0f  running %.0f  finished %.0f  cancelled %.0f\n",
      s.Value("lyra_engine_jobs", {{"state", "pending"}}),
      s.Value("lyra_engine_jobs", {{"state", "running"}}),
      s.Value("lyra_engine_jobs", {{"state", "finished"}}),
      s.Value("lyra_engine_jobs", {{"state", "cancelled"}}));

  // Windowed per-command latency: difference this scrape's cumulative
  // histogram against the previous one. The first frame shows since-start.
  std::printf("\n%-14s %10s %10s %10s %10s %10s\n", "cmd", "req/s", "p50 ms",
              "p99 ms", "p999 ms", "count");
  for (const auto& [cmd, hist] : cur.cmd_hist) {
    Histogram window = hist;
    if (have_prev) {
      auto it = prev->cmd_hist.find(cmd);
      if (it != prev->cmd_hist.end()) {
        window = lyra::svc::WindowSince(hist, it->second);
      }
    }
    if (window.count() == 0) {
      continue;
    }
    const double per_s =
        have_prev && dt > 0.0 ? static_cast<double>(window.count()) / dt : 0.0;
    std::printf("%-14s %10.0f %10.3f %10.3f %10.3f %10llu\n", cmd.c_str(),
                per_s, window.Quantile(0.50) * 1e3, window.Quantile(0.99) * 1e3,
                window.Quantile(0.999) * 1e3,
                static_cast<unsigned long long>(window.count()));
  }

  // Per-io-thread balance from the frames-in counters; a skewed column means
  // connection pinning has landed the load on one epoll loop.
  std::printf("\nio threads:");
  std::map<std::string, double> per_thread;
  for (const PromSample& sample : s.samples) {
    if (sample.name != "lyra_svc_io_frames_total") {
      continue;
    }
    const auto dir = sample.labels.find("dir");
    const auto thread = sample.labels.find("thread");
    if (dir == sample.labels.end() || thread == sample.labels.end() ||
        dir->second != "in") {
      continue;
    }
    per_thread[thread->second] += sample.value;
  }
  for (const auto& [thread, frames] : per_thread) {
    double prev_frames = 0.0;
    if (have_prev) {
      prev_frames = prev->scrape.Value("lyra_svc_io_frames_total",
                                       {{"thread", thread}, {"dir", "in"}});
    }
    std::printf("  %s %.0f/s", thread.c_str(),
                Rate(frames, prev_frames, dt, have_prev));
  }
  std::printf("\n");

  // One row per engine of a fleet: lyra_fed_cluster_info names the cluster
  // engine k runs, and its shard="k" rows give the command rate, the
  // cluster's own pool (inference for an inference cluster, training
  // otherwise) and its jobs. A skewed commands column means the routing
  // hash (or a hot client key) is concentrating work on one engine. A
  // one-engine daemon has no such rows and skips the table.
  struct Engine {
    std::string name;
    std::string kind;
  };
  std::map<int, Engine> engines;
  for (const PromSample& sample : s.samples) {
    const auto name = sample.labels.find("cluster");
    const auto kind = sample.labels.find("kind");
    const auto shard = sample.labels.find("shard");
    if (sample.name == "lyra_fed_cluster_info" && name != sample.labels.end() &&
        kind != sample.labels.end() && shard != sample.labels.end()) {
      engines[std::atoi(shard->second.c_str())] = {name->second, kind->second};
    }
  }
  if (!engines.empty()) {
    std::printf("\n%-14s %-10s %10s %8s %8s %8s %8s\n", "cluster", "kind",
                "commands/s", "total", "free", "pending", "running");
  }
  for (const auto& [k, engine] : engines) {
    const std::string shard = std::to_string(k);
    const char* pool = engine.kind == "inference" ? "inference" : "training";
    const auto gpus = [&](const char* kind) {
      return s.Value("lyra_engine_pool_gpus",
                     {{"pool", pool}, {"kind", kind}, {"shard", shard}});
    };
    const auto jobs = [&](const char* state) {
      return s.Value("lyra_engine_jobs", {{"state", state}, {"shard", shard}});
    };
    const char* const applied = "lyra_svc_commands_applied_total";
    std::printf(
        "%-14s %-10s %10.0f %8.0f %8.0f %8.0f %8.0f\n", engine.name.c_str(),
        engine.kind.c_str(),
        Rate(s.Value(applied, {{"shard", shard}}),
             have_prev ? prev->scrape.Value(applied, {{"shard", shard}}) : 0.0,
             dt, have_prev),
        gpus("total"), gpus("free"), jobs("pending"), jobs("running"));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/lyra_schedd.sock";
  std::string tcp;
  double interval = 2.0;
  int count = 0;
  bool plain = false;

  lyra::FlagSet flags(
      "lyra_top: live telemetry dashboard for a running lyra_schedd");
  flags.AddString("socket", &socket_path,
                  "daemon Unix socket (scraped via the stats_prom command)");
  flags.AddString("tcp", &tcp,
                  "daemon TCP endpoint host:port; scrapes GET /metrics over "
                  "HTTP and overrides --socket");
  flags.AddDouble("interval", &interval, "refresh interval in seconds");
  flags.AddInt("count", &count, "number of refreshes (0 = until interrupted)");
  flags.AddBool("plain", &plain,
                "no screen clearing between frames (logs, CI)");

  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  std::string tcp_host;
  int tcp_port = -1;
  if (!tcp.empty()) {
    const std::size_t colon = tcp.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "lyra_top: --tcp wants host:port, got %s\n",
                   tcp.c_str());
      return 1;
    }
    tcp_host = tcp.substr(0, colon);
    tcp_port = std::atoi(tcp.c_str() + colon + 1);
  }
  if (interval <= 0.0) {
    interval = 1.0;
  }

  Frame prev;
  bool have_prev = false;
  auto last = std::chrono::steady_clock::now();
  for (int i = 0; count == 0 || i < count; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    StatusOr<std::string> text =
        !tcp.empty() ? FetchHttpMetrics(tcp_host, tcp_port)
                     : lyra::svc::FetchStatsProm(socket_path, "", 0);
    if (!text.ok()) {
      std::fprintf(stderr, "lyra_top: scrape: %s\n",
                   text.status().message().c_str());
      return 1;
    }
    StatusOr<PromScrape> scrape = lyra::svc::ParsePrometheus(text.value());
    if (!scrape.ok()) {
      std::fprintf(stderr, "lyra_top: parse: %s\n",
                   scrape.status().message().c_str());
      return 1;
    }
    Frame cur;
    cur.scrape = std::move(scrape.value());
    for (const char* cmd : kLatencyCmds) {
      StatusOr<Histogram> hist = lyra::svc::ExtractHistogram(
          cur.scrape, "lyra_svc_request_duration_seconds", {{"cmd", cmd}});
      if (hist.ok()) {
        cur.cmd_hist.emplace(cmd, std::move(hist.value()));
      }
    }
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - last).count();
    last = now;
    Render(cur, have_prev ? &prev : nullptr, dt, plain);
    prev = std::move(cur);
    have_prev = true;
  }
  return 0;
}
