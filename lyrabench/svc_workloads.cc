// svc_ingest and svc_replay: the scheduler daemon driven over its wire
// protocol.
//
// Both run an in-process SchedulerService (virtual time, no auto-advance)
// behind an EventLoop with one I/O thread on a Unix socket, and talk to it
// through one connection. Server-side layer numbers come from the daemon's
// own Prometheus exposition (the `stats_prom` document), differenced across
// the measured window, and from per-thread CPU clocks.
#include <poll.h>
#include <sys/socket.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <ctime>

#include "bench.h"
#include "layers.h"
#include "src/common/rng.h"
#include "src/predict/predictor.h"
#include "src/sim/inference_cluster.h"
#include "src/svc/event_loop.h"
#include "src/svc/prom.h"
#include "src/svc/registry.h"
#include "src/svc/service.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"
#include "src/workload/synthetic.h"

namespace lyrabench {
namespace {

using lyra::svc::SchedulerService;

// Sockets and snapshot files, relative to the checkout root so Unix socket
// paths stay short.
constexpr const char* kWorkDir = ".bench_build";

// Calibration probes taken before each round or script, while the process
// is otherwise idle.
constexpr int kProbesPerRound = 10;
// Set-ups per round or script; setup_s is their median.
constexpr int kSetupRepeats = 3;

void RequireCores(unsigned threads) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && threads > cores) {
    std::fprintf(stderr,
                 "lyrabench: this workload needs %u threads but nproc is %u; "
                 "refusing to oversubscribe the box\n",
                 threads, cores);
    std::exit(2);
  }
}

// --- The daemon under test ---------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  // Starts a fresh engine, or restores one from `snapshot` when non-empty.
  // The restore's own duration is returned through `restore_call_s`.
  bool Start(const lyra::svc::ServiceOptions& options, const std::string& socket,
             const std::string& snapshot, double* restore_call_s, Report& report) {
    socket_ = socket;
    service_ = std::make_unique<SchedulerService>(
        options, std::make_unique<lyra::svc::VirtualTimeDriver>());
    const std::vector<int> before = ProcessTids();
    const double t0 = NowSeconds();
    const lyra::Status started =
        snapshot.empty() ? service_->Start() : service_->Restore(snapshot);
    if (restore_call_s != nullptr) {
      *restore_call_s = NowSeconds() - t0;
    }
    if (!started.ok()) {
      report.Fail("service start: " + started.message());
      return false;
    }
    engine_tid_ = NewTid(before);
    lyra::svc::EventLoopOptions loop_options;
    loop_options.unix_path = socket;
    loop_options.io_threads = 1;
    loop_ = std::make_unique<lyra::svc::EventLoop>(service_.get(), loop_options);
    const std::vector<int> before_loop = ProcessTids();
    const lyra::Status listening = loop_->Start();
    if (!listening.ok()) {
      report.Fail("event loop start: " + listening.message());
      return false;
    }
    io_tid_ = NewTid(before_loop);
    return true;
  }

  void Stop() {
    if (loop_ != nullptr) {
      loop_->Stop();
      loop_.reset();
    }
    if (service_ != nullptr) {
      service_->Stop();
      service_.reset();
    }
    if (!socket_.empty()) {
      ::unlink(socket_.c_str());
      socket_.clear();
    }
  }

  SchedulerService& service() { return *service_; }
  int engine_tid() const { return engine_tid_; }
  int io_tid() const { return io_tid_; }

 private:
  static int NewTid(const std::vector<int>& before) {
    for (int tid : ProcessTids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        return tid;
      }
    }
    return -1;
  }

  std::string socket_;
  std::unique_ptr<SchedulerService> service_;
  std::unique_ptr<lyra::svc::EventLoop> loop_;
  int engine_tid_ = -1;
  int io_tid_ = -1;
};

// --- Server-side telemetry, differenced across a window ----------------------

struct HistWindow {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

class Scrape {
 public:
  explicit Scrape(const SchedulerService& service) {
    lyra::StatusOr<lyra::svc::PromScrape> parsed =
        lyra::svc::ParsePrometheus(lyra::svc::RenderPrometheus(service));
    if (parsed.ok()) {
      scrape_ = std::move(parsed.value());
    }
  }

  // `family`'s samples recorded between `earlier` and this scrape.
  HistWindow Since(const Scrape& earlier, const std::string& family,
                   const std::map<std::string, std::string>& labels = {}) const {
    HistWindow out;
    lyra::StatusOr<lyra::obs::Histogram> now =
        lyra::svc::ExtractHistogram(scrape_, family, labels);
    if (!now.ok()) {
      return out;
    }
    lyra::obs::Histogram window = std::move(now.value());
    lyra::StatusOr<lyra::obs::Histogram> then =
        lyra::svc::ExtractHistogram(earlier.scrape_, family, labels);
    if (then.ok()) {
      window.Subtract(then.value());
    }
    out.count = window.count();
    out.sum = window.sum();
    out.p50 = window.Quantile(0.5);
    out.p99 = window.Quantile(0.99);
    return out;
  }

  double Value(const std::string& name) const { return scrape_.Value(name); }

 private:
  lyra::svc::PromScrape scrape_;
};

// Per-layer numbers of one daemon window, accumulated over a run.
struct ServerLayers {
  HistWindow submit;
  HistWindow dispatch_lag;
  HistWindow wake;
  HistWindow apply;
  HistWindow batch_commands;
  HistWindow publish;
  double queue_peak = 0.0;
  double rejected_overload = 0.0;
  double snapshots_published = 0.0;
  double io_busy_s = 0.0;
  double engine_busy_s = 0.0;
  double client_busy_s = 0.0;

  void Add(const Scrape& before, const Scrape& after) {
    Merge(submit, after.Since(before, "lyra_svc_request_duration_seconds",
                              {{"cmd", "submit"}}));
    Merge(dispatch_lag, after.Since(before, "lyra_svc_epoll_dispatch_lag_seconds"));
    Merge(wake, after.Since(before, "lyra_svc_wake_batch_events"));
    Merge(apply, after.Since(before, "lyra_svc_engine_batch_apply_seconds"));
    Merge(batch_commands, after.Since(before, "lyra_svc_engine_batch_commands"));
    Merge(publish, after.Since(before, "lyra_svc_engine_snapshot_publish_seconds"));
    queue_peak = std::max(queue_peak, after.Value("lyra_svc_queue_peak"));
    rejected_overload += after.Value("lyra_svc_rejected_overload_total") -
                         before.Value("lyra_svc_rejected_overload_total");
    snapshots_published += after.Value("lyra_svc_snapshots_published_total") -
                           before.Value("lyra_svc_snapshots_published_total");
  }

  // Quantiles of several windows: the count-weighted mean of each window's
  // bucket estimate (windows are rounds of one workload, similar in shape).
  static void Merge(HistWindow& into, const HistWindow& w) {
    const double n = static_cast<double>(into.count + w.count);
    if (n > 0) {
      into.p50 = (into.p50 * static_cast<double>(into.count) +
                  w.p50 * static_cast<double>(w.count)) / n;
      into.p99 = (into.p99 * static_cast<double>(into.count) +
                  w.p99 * static_cast<double>(w.count)) / n;
    }
    into.count += w.count;
    into.sum += w.sum;
  }

  void Publish(Report& report) const {
    report.Set("svc.server_submit_p50_us", submit.p50 * 1e6, "us");
    report.Set("svc.server_submit_p99_us", submit.p99 * 1e6, "us");
    report.Set("svc.epoll_dispatch_lag_p99_us", dispatch_lag.p99 * 1e6, "us");
    report.Set("svc.wake_batch_mean", wake.mean(), "count");
    report.Set("svc.engine_batch_apply_p50_us", apply.p50 * 1e6, "us");
    report.Set("svc.engine_batch_apply_p99_us", apply.p99 * 1e6, "us");
    report.Set("svc.engine_batch_commands_mean", batch_commands.mean(), "count");
    report.Set("svc.queue_peak", queue_peak, "count");
    report.Set("svc.rejected_overload", rejected_overload, "count");
    report.Set("svc.snapshot_publish_p50_us", publish.p50 * 1e6, "us");
    report.Set("svc.snapshot_publish_p99_us", publish.p99 * 1e6, "us");
    report.Set("svc.snapshots_published", snapshots_published, "count");
    report.Set("svc.io_busy_s", io_busy_s, "s");
    report.Set("svc.engine_busy_s", engine_busy_s, "s");
    report.Set("svc.engine_apply_s", apply.sum, "s");
    report.Set("svc.snapshot_publish_s", publish.sum, "s");
    report.Set("loadgen.busy_s", client_busy_s, "s");

    report.AddLedger("svc.io_busy_s", io_busy_s);
    report.AddLedger("svc.engine_apply_s", apply.sum);
    report.AddLedger("svc.snapshot_publish_s", publish.sum);
    report.AddLedger("svc.engine_other_s",
                     std::max(0.0, engine_busy_s - apply.sum - publish.sum));
    report.AddLedger("loadgen.busy_s", client_busy_s);
  }
};

double CpuDelta(int tid, double since) {
  const double now = ThreadCpuSeconds(tid);
  return now >= 0.0 && since >= 0.0 ? now - since : 0.0;
}

// --- Reply scanning ----------------------------------------------------------
//
// Replies are compact JSON from the service's own serializer, so the client
// checks them with substring scans instead of a full parse: at saturation
// the client handles several hundred thousand replies per second and must
// not become the bottleneck.

bool ReplyOk(const std::string& reply) { return reply.rfind("{\"ok\":true", 0) == 0; }

bool ReplyOverloaded(const std::string& reply) {
  return reply.find("\"code\":\"overloaded\"") != std::string::npos;
}

std::int64_t ReplyNumber(const std::string& reply, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) {
    return -1;
  }
  return std::strtoll(reply.c_str() + at + needle.size(), nullptr, 10);
}

std::string SubmitFrame(const lyra::JobSpec& spec, double at) {
  std::string frame = "{\"cmd\":\"submit\"";
  if (at >= 0.0) {
    frame += Format(",\"at\":%.17g", at);
  }
  frame += Format(",\"gpus_per_worker\":%d,\"min_workers\":%d,\"max_workers\":%d",
                  spec.gpus_per_worker, spec.min_workers, spec.max_workers);
  if (spec.requested_workers > 0) {
    frame += Format(",\"requested_workers\":%d", spec.requested_workers);
  }
  frame += Format(",\"fungible\":%s,\"heterogeneous\":%s,\"checkpointing\":%s",
                  spec.fungible ? "true" : "false",
                  spec.heterogeneous ? "true" : "false",
                  spec.checkpointing ? "true" : "false");
  frame += Format(",\"total_work\":%.17g,\"model\":\"%s\"}", spec.total_work,
                  lyra::ModelFamilyName(spec.model));
  return frame;
}

bool ReadSome(int fd, lyra::svc::FrameDecoder& decoder) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      decoder.Append(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
}

// One request/reply on a blocking connection (setup and checks, not timed).
std::string Call(int fd, lyra::svc::FrameDecoder& decoder, const std::string& request) {
  if (!lyra::svc::WriteFrame(fd, request).ok()) {
    return "";
  }
  std::string reply;
  for (;;) {
    lyra::StatusOr<bool> got = decoder.Next(&reply);
    if (!got.ok()) {
      return "";
    }
    if (got.value()) {
      return reply;
    }
    if (!ReadSome(fd, decoder)) {
      return "";
    }
  }
}

std::string SocketPath(int n) {
  return Format("%s/lyrabench-%d-%d.sock", kWorkDir,
                static_cast<int>(::getpid()), n);
}

// =============================================================================
// svc_ingest: open-loop submits and reads against a fresh daemon
// =============================================================================

enum class Kind : std::uint8_t { kSubmit, kQueryJob, kClusterStats };

// Offered load. The low rate sits far below one connection's saturation
// point. The high rate is far above it, so the front end pushes back and the
// engine queue sheds, and accepted_per_s is the daemon's capacity; that
// phase offers a fixed number of frames, so every round stores about the
// same number of jobs whatever the daemon's speed.
constexpr double kLowRate = 20000.0;
constexpr std::size_t kLowFrames = 20000;  // one second
constexpr double kHighRate = 700000.0;
constexpr std::size_t kHighFrames = 200000;
// A phase stops sending at this deadline even if frames remain unsent.
constexpr double kPhaseDeadlineSeconds = 10.0;
// Nominal wall time of one round (setup, both phases, drain, teardown); with
// --seconds it fixes the number of rounds.
constexpr double kNominalRoundSeconds = 3.0;
// Distinct submit documents per phase, cycled through the phase's slots.
constexpr std::size_t kSubmitPool = 4096;
// Most frames one send batch may carry, so a client that fell behind
// catches up in bounded writes.
constexpr std::size_t kMaxBatch = 4096;

struct Phase {
  double rate = 0.0;
  std::vector<Kind> kinds;
  std::vector<std::string> submits;  // the pool
};

// 4 submits : 1 read, reads split between query_job and cluster_stats.
Phase MakePhase(double rate, std::size_t n, lyra::Rng& rng) {
  Phase phase;
  phase.rate = rate;
  phase.kinds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.Uniform(0.0, 1.0);
    phase.kinds.push_back(u < 0.1   ? Kind::kQueryJob
                          : u < 0.2 ? Kind::kClusterStats
                                    : Kind::kSubmit);
  }
  static const lyra::ModelFamily kModels[] = {
      lyra::ModelFamily::kResNet, lyra::ModelFamily::kVgg, lyra::ModelFamily::kBert,
      lyra::ModelFamily::kGnmt, lyra::ModelFamily::kOther};
  for (std::size_t i = 0; i < kSubmitPool; ++i) {
    lyra::JobSpec spec;
    spec.gpus_per_worker = 1 << static_cast<int>(rng.UniformInt(0, 3));
    spec.min_workers = static_cast<int>(rng.UniformInt(1, 4));
    spec.max_workers = spec.min_workers * (rng.Uniform(0.0, 1.0) < 0.2 ? 2 : 1);
    spec.fungible = rng.Uniform(0.0, 1.0) < 0.21;
    spec.model = kModels[rng.UniformInt(0, 4)];
    spec.total_work = rng.Uniform(600.0, 86400.0);
    phase.submits.push_back(SubmitFrame(spec, -1.0));
  }
  return phase;
}

struct PhaseResult {
  double wall_s = 0.0;  // first due send -> last reply
  std::uint64_t sent = 0;
  std::uint64_t submits_sent = 0;
  std::uint64_t accepted = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t backlog_max = 0;  // frames sent and not yet answered
  std::vector<double> submit_latency;  // seconds, from intended send time
  std::vector<double> read_latency;
  std::vector<double> lateness;  // per send batch, seconds
  double client_cpu_s = 0.0;
};

// Runs one open-loop phase on connection `fd` from the calling thread.
// Frames go out on their schedule and are timed from when each was due;
// replies are matched to frames FIFO (per-connection reply order is a service
// guarantee). Writes never block, so a daemon that pushes back never stalls
// reply processing. Frames not queued by kPhaseDeadlineSeconds are never
// sent. `ids` marks accepted job ids.
PhaseResult RunPhase(int fd, const Phase& phase, std::vector<std::uint8_t>& ids,
                     std::uint64_t seed, Report& report) {
  PhaseResult out;
  const std::size_t n = phase.kinds.size();
  const double cpu0 = ThreadCpuSeconds(CurrentTid());
  // Sleeps below end within microseconds of their target instead of the
  // default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::int64_t> queried(n, -1);
  lyra::Rng rng(seed);
  lyra::svc::FrameDecoder decoder;
  std::string outbuf;       // framed, not yet written
  std::size_t written = 0;  // bytes of outbuf already written
  std::size_t next = 0;     // next frame to send
  std::size_t received = 0;
  std::size_t submits = 0;
  std::int64_t max_job = -1;
  std::vector<std::string> errors;
  std::string reply;
  bool broken = false;
  const double start = NowSeconds() + 0.005;
  const double deadline = start + kPhaseDeadlineSeconds;
  const double interval = 1.0 / phase.rate;
  auto due = [&](std::size_t i) { return start + static_cast<double>(i) * interval; };
  double last = start;
  double idle_since = start;

  for (;;) {
    const double now = NowSeconds();
    const bool sending = next < n && now <= deadline;
    if (sending && due(next) <= now) {
      out.lateness.push_back(now - due(next));
      for (std::size_t k = 0; next < n && due(next) <= now && k < kMaxBatch; ++next, ++k) {
        switch (phase.kinds[next]) {
          case Kind::kSubmit:
            lyra::svc::AppendFrame(phase.submits[submits++ % kSubmitPool], outbuf);
            break;
          case Kind::kQueryJob:
            if (max_job >= 0) {
              queried[next] = rng.UniformInt(0, max_job);
              lyra::svc::AppendFrame(
                  Format("{\"cmd\":\"query_job\",\"job\":%" PRId64 "}", queried[next]),
                  outbuf);
              break;
            }
            [[fallthrough]];  // nothing accepted yet: read the cluster instead
          case Kind::kClusterStats:
            lyra::svc::AppendFrame("{\"cmd\":\"cluster_stats\"}", outbuf);
            break;
        }
      }
      out.backlog_max = std::max<std::uint64_t>(out.backlog_max, next - received);
    }
    if (written < outbuf.size()) {
      const ssize_t w = ::send(fd, outbuf.data() + written, outbuf.size() - written,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        written += static_cast<std::size_t>(w);
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        broken = true;
        break;
      }
      if (written == outbuf.size()) {
        outbuf.clear();
        written = 0;
      }
    }
    if (!sending && outbuf.empty() && received == next) {
      break;
    }

    // Sleep until the next frame is due, a reply arrives, or the socket
    // takes more bytes.
    double wait = 0.02;
    if (sending) {
      wait = std::max(0.0, due(next) - NowSeconds());
    }
    pollfd pfd{fd, static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)), 0};
    timespec timeout{static_cast<time_t>(wait),
                     static_cast<long>((wait - std::floor(wait)) * 1e9)};
    if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0 || (pfd.revents & ~POLLOUT) == 0) {
      if (received < next && NowSeconds() - idle_since > 30.0) {
        break;  // replies stopped arriving: counted as lost below
      }
      continue;
    }
    char buf[1 << 16];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      broken = true;
      break;
    }
    if (got < 0) {
      continue;
    }
    decoder.Append(buf, static_cast<std::size_t>(got));
    idle_since = NowSeconds();
    for (;;) {
      lyra::StatusOr<bool> frame = decoder.Next(&reply);
      if (!frame.ok() || !frame.value() || received >= next) {
        broken = broken || !frame.ok() || (frame.value() && received >= next);
        break;
      }
      last = NowSeconds();
      const std::size_t i = received++;
      const double latency = last - due(i);
      if (phase.kinds[i] == Kind::kSubmit) {
        if (ReplyOk(reply)) {
          const std::int64_t id = ReplyNumber(reply, "job");
          if (id < 0 || static_cast<std::size_t>(id) >= ids.size() || ids[id] != 0) {
            errors.push_back("submit reply without a fresh job id: " + reply);
          } else {
            ids[static_cast<std::size_t>(id)] = 1;
            ++out.accepted;
            max_job = std::max(max_job, id);
          }
          out.submit_latency.push_back(latency);
        } else if (ReplyOverloaded(reply)) {
          ++out.overloaded;
        } else {
          errors.push_back("submit failed: " + reply);
        }
      } else {
        if (!ReplyOk(reply)) {
          errors.push_back("read failed: " + reply);
        } else if (queried[i] >= 0 && ReplyNumber(reply, "job") != queried[i]) {
          errors.push_back("query_job answered for the wrong job: " + reply);
        }
        out.read_latency.push_back(latency);
      }
    }
    if (broken) {
      break;
    }
  }
  out.wall_s = last - start;
  out.client_cpu_s = CpuDelta(CurrentTid(), cpu0);

  out.sent = next;
  for (std::size_t i = 0; i < out.sent; ++i) {
    out.submits_sent += phase.kinds[i] == Kind::kSubmit ? 1 : 0;
  }
  report.Attempt(out.sent);
  if (broken) {
    report.Fail("connection failed during the phase");
  }
  if (received < out.sent) {
    report.Fail(Format("%zu of %" PRIu64 " replies lost", out.sent - received, out.sent));
  }
  for (std::size_t e = 0; e < errors.size() && e < 5; ++e) {
    report.Fail(errors[e]);
  }
  if (errors.size() > 5) {
    report.Fail(Format("... and %zu more failed replies", errors.size() - 5));
  }
  return out;
}

}  // namespace

void RunIngestWorkload(const RunConfig& config, Report& report) {
  RequireCores(3);  // the client (this thread), one I/O thread, the engine
  const int rounds = std::max(2, static_cast<int>(std::lround(config.seconds /
                                                              kNominalRoundSeconds)));
  report.Note(Format("svc_ingest: %d fresh daemons; open loop, 1 connection, "
                     "%zu frames at %.0f/s then %zu at %.0f/s; 4 submits : 1 read",
                     rounds, kLowFrames, kLowRate, kHighFrames, kHighRate));

  std::vector<double> setups, generates, accepted_rates, shed, lateness;
  std::vector<double> p50s, p90s;
  std::uint64_t sent = 0;
  std::vector<double> low_submit, low_read, high_read;
  std::uint64_t backlog_max = 0;
  ServerLayers layers;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < kProbesPerRound; ++i) {
      report.AddProbe(CalibrationProbe());
    }
    // Set-up (script generation, daemon start, connect) is repeated so its
    // median is steady; the last set-up is the one measured.
    lyra::svc::ServiceOptions options;
    options.engine.seed = SubSeed(config.seed, 100 + static_cast<std::uint64_t>(r));
    Daemon daemon;
    lyra::StatusOr<int> fd = -1;
    lyra::Rng rng(0);
    Phase low, high;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      if (fd.ok() && fd.value() >= 0) {
        ::close(fd.value());
      }
      daemon.Stop();
      const double t0 = NowSeconds();
      rng = lyra::Rng(SubSeed(config.seed, static_cast<std::uint64_t>(r)));
      low = MakePhase(kLowRate, kLowFrames, rng);
      high = MakePhase(kHighRate, kHighFrames, rng);
      generates.push_back(NowSeconds() - t0);
      if (!daemon.Start(options, SocketPath(r), "", nullptr, report)) {
        return;
      }
      fd = lyra::svc::ConnectUnix(SocketPath(r));
      if (!fd.ok()) {
        report.Fail("connect: " + fd.status().message());
        return;
      }
      setups.push_back(NowSeconds() - t0);
    }

    std::vector<std::uint8_t> ids(low.kinds.size() + high.kinds.size(), 0);
    const Scrape before(daemon.service());
    const double io0 = ThreadCpuSeconds(daemon.io_tid());
    const double engine0 = ThreadCpuSeconds(daemon.engine_tid());
    const PhaseResult a = RunPhase(fd.value(), low, ids, rng.NextU64(), report);
    const PhaseResult b = RunPhase(fd.value(), high, ids, rng.NextU64(), report);
    layers.io_busy_s += CpuDelta(daemon.io_tid(), io0);
    layers.engine_busy_s += CpuDelta(daemon.engine_tid(), engine0);
    layers.client_busy_s += a.client_cpu_s + b.client_cpu_s;
    layers.Add(before, Scrape(daemon.service()));

    // The engine holds exactly the accepted submits.
    lyra::svc::FrameDecoder decoder;  // RunPhase consumed every reply
    const std::string stats = Call(fd.value(), decoder, "{\"cmd\":\"cluster_stats\"}");
    report.Attempt();
    const std::int64_t total = ReplyNumber(stats, "total");
    if (total != static_cast<std::int64_t>(a.accepted + b.accepted)) {
      report.Fail(Format("engine holds %" PRId64 " jobs, %" PRIu64 " submits accepted",
                         total, a.accepted + b.accepted));
    }
    ::close(fd.value());
    daemon.Stop();

    p50s.push_back(Quantile(a.submit_latency, 0.5) * 1e3);
    p90s.push_back(Quantile(a.submit_latency, 0.9) * 1e3);
    accepted_rates.push_back(static_cast<double>(b.accepted) / b.wall_s);
    shed.push_back(static_cast<double>(b.overloaded) /
                   static_cast<double>(std::max<std::uint64_t>(b.submits_sent, 1)));
    low_submit.insert(low_submit.end(), a.submit_latency.begin(), a.submit_latency.end());
    low_read.insert(low_read.end(), a.read_latency.begin(), a.read_latency.end());
    high_read.insert(high_read.end(), b.read_latency.begin(), b.read_latency.end());
    lateness.insert(lateness.end(), a.lateness.begin(), a.lateness.end());
    backlog_max = std::max({backlog_max, a.backlog_max, b.backlog_max});
    sent += a.submits_sent + b.submits_sent;
    report.Note(Format("  round %d: at %.0f/s submit p50 %.4f p90 %.4f p99 %.4f ms "
                       "(backlog_max %" PRIu64 "); at %.0f/s offered sent %" PRIu64
                       ", accepted %.0f/s, shed %.4f",
                       r, kLowRate, p50s.back(), p90s.back(),
                       Quantile(a.submit_latency, 0.99) * 1e3, a.backlog_max, kHighRate,
                       b.sent, accepted_rates.back(), shed.back()));
  }

  // Rounds are identical work; host interference only ever slows one down,
  // so each metric keeps its best round.
  const double submit_p50 = Quantile(p50s, 0.0);
  const double submit_p90 = Quantile(p90s, 0.0);
  const double accepted_per_s = Quantile(accepted_rates, 1.0);
  const double submit_p99 = Quantile(low_submit, 0.99) * 1e3;
  const double read_p99 = Quantile(low_read, 0.99) * 1e3;
  report.Note(Format("  submit_p50_ms %.4f  submit_p90_ms %.4f (best of %d rounds)  "
                     "submit_p99_ms %.4f (%zu samples at %.0f/s)",
                     submit_p50, submit_p90, rounds, submit_p99, low_submit.size(),
                     kLowRate));
  report.Note(Format("  read_p99_ms %.4f (%zu samples at %.0f/s), %.4f (%zu at %.0f/s)",
                     read_p99, low_read.size(), kLowRate,
                     Quantile(high_read, 0.99) * 1e3, high_read.size(), kHighRate));
  report.Note(Format("  accepted_per_s %.0f (best of %d rounds)  shed_share %.4f (median)",
                     accepted_per_s, rounds, Median(shed)));

  if (!config.trace) {
    report.Set("setup_s", Median(setups), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("jobs_per_s", accepted_per_s, "1/s");
    report.Set("op_p50_ms", submit_p50, "ms");
    report.Set("op_p90_ms", submit_p90, "ms");
    return;
  }
  report.Set("workload.generate_s", Median(generates), "s");
  report.Set("workload.jobs", static_cast<double>(sent), "count");
  report.Set("svc.submit_p50_ms", submit_p50, "ms");
  report.Set("svc.submit_p99_ms", submit_p99, "ms");
  report.Set("svc.read_p99_ms", read_p99, "ms");
  report.Set("svc.accepted_per_s", accepted_per_s, "1/s");
  report.Set("svc.shed_share", Median(shed), "share");
  report.Set("loadgen.lateness_p99_ms", Quantile(lateness, 0.99) * 1e3, "ms");
  report.Set("loadgen.backlog_max", static_cast<double>(backlog_max), "count");
  layers.Publish(report);
}

// =============================================================================
// svc_replay: a long-lived daemon replaying a compressed trace, then restore
// =============================================================================

namespace {

// The replayed cluster: a quarter of the paper's, fed 15 days of its
// calibrated arrivals compressed 24x into 15 virtual hours, so the pending
// queue climbs to ~8k jobs and every scheduler tick walks all of it.
constexpr double kReplayScale = 0.25;
constexpr double kReplayDays = 15.0;
constexpr double kReplayCompression = 24.0;
constexpr int kReplayWindow = 32;    // frames in flight on the one connection
constexpr int kReplayReadEvery = 8;  // one read per this many commands
// Nominal wall time of one repetition (replay + snapshot + restore); with
// --seconds it fixes how many times, each on a fresh daemon, a run replays
// the script.
constexpr double kNominalReplaySeconds = 4.0;

struct ScriptCommand {
  std::string payload;
  bool submit = false;
  std::int64_t query = -1;  // query_job target
  lyra::JobSpec spec;
  double at = 0.0;
};

struct Script {
  std::vector<ScriptCommand> commands;
  std::size_t submits = 0;
};

// The script replays a fixed calibration trace that the run's seed perturbs
// (every arrival moves by up to +-kReplayJitter before compression), so each
// seed replays a different schedule of the same amount of work.
constexpr std::uint64_t kReplayTraceSeed = 21;
constexpr double kReplayJitter = 10 * lyra::kMinute;

// Every job of the trace as a submit stamped with its compressed arrival
// time, with one read (query_job of an earlier job, or cluster_stats) after
// every kReplayReadEvery - 1 commands.
Script MakeScript(std::uint64_t seed, double* generate_s) {
  const double t0 = NowSeconds();
  lyra::SyntheticTraceOptions trace_options;
  trace_options.duration = kReplayDays * lyra::kDay;
  trace_options.training_gpus = std::max(1, static_cast<int>(443 * kReplayScale)) * 8;
  trace_options.seed = kReplayTraceSeed;
  lyra::Trace trace = lyra::SyntheticTraceGenerator(trace_options).Generate();
  lyra::Rng jitter(seed);
  for (lyra::JobSpec& job : trace.jobs) {
    job.submit_time =
        std::max(0.0, job.submit_time + jitter.Uniform(-kReplayJitter, kReplayJitter));
  }
  trace.Normalize();
  *generate_s = NowSeconds() - t0;

  Script script;
  lyra::Rng rng(seed ^ 0x5c41);
  for (const lyra::JobSpec& job : trace.jobs) {
    if (script.submits > 0 &&
        script.commands.size() % kReplayReadEvery == kReplayReadEvery - 1) {
      ScriptCommand read;
      if (rng.Uniform(0.0, 1.0) < 0.5) {
        read.query = rng.UniformInt(0, static_cast<std::int64_t>(script.submits) - 1);
        read.payload = Format("{\"cmd\":\"query_job\",\"job\":%" PRId64 "}", read.query);
      } else {
        read.payload = "{\"cmd\":\"cluster_stats\"}";
      }
      script.commands.push_back(std::move(read));
    }
    ScriptCommand submit;
    submit.submit = true;
    submit.spec = job;
    submit.at = job.submit_time / kReplayCompression;
    submit.payload = SubmitFrame(job, submit.at);
    script.commands.push_back(std::move(submit));
    ++script.submits;
  }
  return script;
}

lyra::svc::EngineConfig ReplayEngine(std::uint64_t seed) {
  lyra::svc::EngineConfig engine;
  engine.scale = kReplayScale;
  engine.horizon_days = kReplayDays / kReplayCompression + 30.0;
  engine.seed = seed;
  return engine;
}

// Replays the script's submits on a directly driven engine built like the
// daemon's (registry.h BuildEngine), with timed policies: the traced view of
// the engine work inside the daemon's batch apply.
void ShadowReplay(const Script& script, const lyra::svc::EngineConfig& engine,
                  EngineLayers& layers, Report& report) {
  auto scheduler = lyra::svc::MakeScheduler(engine.scheduler, engine.info_agnostic,
                                            engine.tuned);
  auto reclaim = lyra::svc::MakeReclaim(engine.reclaim);
  if (!scheduler.ok() || !reclaim.ok()) {
    report.Fail("shadow engine: unknown policy");
    return;
  }
  TimedScheduler timed_scheduler(scheduler.value().get(), true);
  TimedReclaim timed_reclaim(reclaim.value().get());
  lyra::Trace empty;
  empty.duration = engine.horizon_days * lyra::kDay;
  lyra::DiurnalTrafficOptions traffic;
  traffic.duration = empty.duration + 8 * lyra::kDay;
  traffic.seed = engine.seed ^ 0x7aff1c;
  lyra::InferenceClusterOptions inference_options;
  inference_options.num_servers = std::max(1, static_cast<int>(520 * engine.scale));
  lyra::SimulatorOptions options;
  options.training_servers = std::max(1, static_cast<int>(443 * engine.scale));
  options.enable_loaning = engine.loaning;
  options.seed = engine.seed;
  options.record_decisions = true;
  lyra::Simulator sim(options, empty, &timed_scheduler, &timed_reclaim,
                      std::make_unique<lyra::InferenceCluster>(
                          inference_options, lyra::DiurnalTrafficModel(traffic),
                          lyra::svc::MakeUsagePredictor(engine.lstm)));
  sim.Begin();
  for (const ScriptCommand& cmd : script.commands) {
    if (cmd.submit) {
      sim.StepUntil(cmd.at);
      lyra::JobSpec spec = cmd.spec;
      spec.submit_time = cmd.at;
      if (!sim.SubmitJob(spec).ok()) {
        report.Fail("shadow engine rejected a submit");
        return;
      }
    }
  }
  const std::size_t jobs = sim.jobs().size();
  const lyra::SimulationResult result = sim.Finalize();
  layers.Add(timed_scheduler, timed_reclaim, result, result.wall_seconds);
  report.Attempt();
  if (jobs != script.submits) {
    report.Fail(Format("shadow engine holds %zu jobs, script has %zu", jobs,
                       script.submits));
  }
}

struct ReplayResult {
  double replay_s = 0.0;
  std::vector<double> latency;
  std::vector<double> read_latency;
  double snapshot_write_s = 0.0;
  double snapshot_bytes = 0.0;
  double restore_call_s = 0.0;
  double restore_s = 0.0;
};

// Replays `script` through a fresh daemon over one pipelining connection,
// snapshots it, and restores the snapshot into a second fresh daemon.
ReplayResult ReplayOnce(int index, const Script& script,
                        const lyra::svc::ServiceOptions& options, ServerLayers& layers,
                        Report& report) {
  ReplayResult out;
  Daemon daemon;
  const std::string socket = SocketPath(2 * index);
  if (!daemon.Start(options, socket, "", nullptr, report)) {
    return out;
  }
  lyra::StatusOr<int> connected = lyra::svc::ConnectUnix(socket);
  if (!connected.ok()) {
    report.Fail("connect: " + connected.status().message());
    return out;
  }
  const int fd = connected.value();
  const std::vector<ScriptCommand>& commands = script.commands;

  // Closed loop: keep kReplayWindow frames in flight on the one connection.
  const Scrape before(daemon.service());
  const double io0 = ThreadCpuSeconds(daemon.io_tid());
  const double engine0 = ThreadCpuSeconds(daemon.engine_tid());
  const double client0 = ThreadCpuSeconds(CurrentTid());
  std::vector<double> sent_at(commands.size(), 0.0);
  out.latency.reserve(commands.size());
  lyra::svc::FrameDecoder decoder;
  std::string batch;
  std::string reply;
  std::size_t next = 0;
  std::size_t done = 0;
  std::int64_t next_id = 0;
  std::size_t failures = 0;
  const double replay_start = NowSeconds();
  while (done < commands.size()) {
    batch.clear();
    const double now = NowSeconds();
    for (; next < commands.size() && next - done < kReplayWindow; ++next) {
      lyra::svc::AppendFrame(commands[next].payload, batch);
      sent_at[next] = now;
    }
    if (!batch.empty() && !lyra::svc::WriteAllBytes(fd, batch.data(), batch.size()).ok()) {
      break;
    }
    bool progressed = false;
    for (;;) {
      lyra::StatusOr<bool> got = decoder.Next(&reply);
      if (!got.ok() || !got.value()) {
        break;
      }
      progressed = true;
      const ScriptCommand& cmd = commands[done];
      const double latency = NowSeconds() - sent_at[done];
      out.latency.push_back(latency);
      bool ok = ReplyOk(reply);
      if (cmd.submit) {
        ok = ReplyNumber(reply, "job") == next_id && ok;  // fresh, dense ids
        ++next_id;
      } else {
        out.read_latency.push_back(latency);
        ok = ok && (cmd.query < 0 || ReplyNumber(reply, "job") == cmd.query);
      }
      if (!ok && failures++ < 5) {
        report.Fail(Format("command %zu: %s", done, reply.c_str()));
      }
      ++done;
    }
    if (!progressed && !ReadSome(fd, decoder)) {
      break;
    }
  }
  out.replay_s = NowSeconds() - replay_start;
  report.Attempt(commands.size());
  if (done < commands.size()) {
    report.Fail(Format("%zu of %zu replies lost", commands.size() - done,
                       commands.size()));
  }
  if (failures > 5) {
    report.Fail(Format("... and %zu more failed commands", failures - 5));
  }
  layers.client_busy_s += CpuDelta(CurrentTid(), client0);

  // Snapshot; the engine must hold exactly the accepted submits.
  const std::string snapshot_path = Format("%s/lyrabench-%d-%d.snap", kWorkDir,
                                           static_cast<int>(::getpid()), index);
  const std::string pre_stats = Call(fd, decoder, "{\"cmd\":\"cluster_stats\"}");
  const double snap0 = NowSeconds();
  const std::string snap_reply =
      Call(fd, decoder, "{\"cmd\":\"snapshot\",\"path\":\"" + snapshot_path + "\"}");
  out.snapshot_write_s = NowSeconds() - snap0;
  layers.io_busy_s += CpuDelta(daemon.io_tid(), io0);
  layers.engine_busy_s += CpuDelta(daemon.engine_tid(), engine0);
  layers.Add(before, Scrape(daemon.service()));
  ::close(fd);
  daemon.Stop();

  report.Attempt(2);
  const auto submits = static_cast<std::int64_t>(script.submits);
  if (!ReplyOk(snap_reply) || ReplyNumber(snap_reply, "commands") != submits) {
    report.Fail("snapshot: " + snap_reply);
  }
  if (ReplyNumber(pre_stats, "total") != submits) {
    report.Fail(Format("engine holds %" PRId64 " jobs after %" PRId64 " accepted submits",
                       ReplyNumber(pre_stats, "total"), submits));
  }
  struct stat snap_stat {};
  if (::stat(snapshot_path.c_str(), &snap_stat) == 0) {
    out.snapshot_bytes = static_cast<double>(snap_stat.st_size);
  }

  // Warm restart into a fresh daemon, timed to the first successful ping;
  // its cluster_stats must equal the pre-snapshot reply byte for byte.
  {
    Daemon restored;
    const std::string restored_socket = SocketPath(2 * index + 1);
    const double r0 = NowSeconds();
    if (restored.Start(options, restored_socket, snapshot_path, &out.restore_call_s,
                       report)) {
      lyra::StatusOr<int> rfd = lyra::svc::ConnectUnix(restored_socket);
      if (rfd.ok()) {
        lyra::svc::FrameDecoder rdecoder;
        std::string pong;
        while (!ReplyOk(pong = Call(rfd.value(), rdecoder, "{\"cmd\":\"ping\"}")) &&
               NowSeconds() - r0 < 60.0) {
        }
        out.restore_s = NowSeconds() - r0;
        const std::string post_stats =
            Call(rfd.value(), rdecoder, "{\"cmd\":\"cluster_stats\"}");
        report.Attempt();
        if (!ReplyOk(pong) || post_stats != pre_stats) {
          report.Fail("restored cluster_stats differ:\n  before " + pre_stats +
                      "\n  after  " + post_stats);
        }
        ::close(rfd.value());
      } else {
        report.Fail("connect to restored daemon: " + rfd.status().message());
      }
    }
  }
  ::unlink(snapshot_path.c_str());
  return out;
}

}  // namespace

void RunReplayWorkload(const RunConfig& config, Report& report) {
  RequireCores(3);  // the client (this thread), one I/O thread, the engine
  const int reps = std::max(2, static_cast<int>(std::lround(config.seconds /
                                                            kNominalReplaySeconds)));
  const std::uint64_t seed = SubSeed(config.seed, 0);
  lyra::svc::ServiceOptions options;
  options.engine = ReplayEngine(seed);
  std::vector<double> setups;
  std::vector<double> generates;
  std::vector<ReplayResult> results;
  Script script;
  ServerLayers server;
  EngineLayers engine;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < kProbesPerRound; ++i) {
      report.AddProbe(CalibrationProbe());
    }
    // Set-up is generation plus script building; repeated so its median is
    // steady (each repeat builds the identical script).
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const double t0 = NowSeconds();
      double generate_s = 0.0;
      script = MakeScript(seed, &generate_s);
      setups.push_back(NowSeconds() - t0);
      generates.push_back(generate_s);
    }
    results.push_back(ReplayOnce(r, script, options, server, report));
    const ReplayResult& result = results.back();
    report.Note(Format("  repetition %d: replay %.3f s, p50 %.4f p90 %.4f ms, snapshot "
                       "%.0f bytes in %.4f s, restore_s %.4f (Restore call %.4f s)",
                       r, result.replay_s, Quantile(result.latency, 0.5) * 1e3,
                       Quantile(result.latency, 0.9) * 1e3, result.snapshot_bytes,
                       result.snapshot_write_s, result.restore_s, result.restore_call_s));
  }
  if (config.trace) {
    ShadowReplay(script, options.engine, engine, report);
  }

  // Repetitions replay one script on fresh daemons, so they do identical
  // work; host interference only ever slows one down. The replay time keeps
  // the fastest repetition, the latencies the fastest repetition per command.
  double replay_s = results[0].replay_s;
  std::vector<double> latency = results[0].latency;
  std::vector<double> read_latency, restores, restore_calls, snapshot_writes;
  for (const ReplayResult& result : results) {
    replay_s = std::min(replay_s, result.replay_s);
    for (std::size_t i = 0; i < latency.size() && i < result.latency.size(); ++i) {
      latency[i] = std::min(latency[i], result.latency[i]);
    }
    read_latency.insert(read_latency.end(), result.read_latency.begin(),
                        result.read_latency.end());
    restores.push_back(result.restore_s);
    restore_calls.push_back(result.restore_call_s);
    snapshot_writes.push_back(result.snapshot_write_s);
  }
  const std::size_t submits = script.submits;
  const double cmds_per_s = static_cast<double>(submits) / replay_s;
  const double p50 = Quantile(latency, 0.5) * 1e3;
  const double p90 = Quantile(latency, 0.9) * 1e3;
  const double p99 = Quantile(latency, 0.99) * 1e3;
  const double read_p99 = Quantile(read_latency, 0.99) * 1e3;
  report.Note(Format("svc_replay: trace %" PRIu64 " jittered by seed %" PRIu64 ", %.0f "
                     "days at scale %.2f compressed %.0fx, %zu commands (%zu submits), "
                     "%d repetitions; closed loop with %d in flight, 1 read per %d "
                     "commands",
                     kReplayTraceSeed, seed, kReplayDays, kReplayScale, kReplayCompression,
                     script.commands.size(), submits, reps, kReplayWindow,
                     kReplayReadEvery));
  report.Note(Format("  replay_cmds_per_s %.1f (fastest repetition %.3f s); submit_p50_ms "
                     "%.4f submit_p90_ms %.4f submit_p99_ms %.4f (%zu commands, fastest "
                     "repetition per command); read_p99_ms %.4f (%zu reads); restore_s "
                     "%.4f (median)",
                     cmds_per_s, replay_s, p50, p90, p99, latency.size(), read_p99,
                     read_latency.size(), Median(restores)));

  if (!config.trace) {
    report.Set("setup_s", Median(setups), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("jobs_per_s", cmds_per_s, "1/s");
    report.Set("op_p50_ms", p50, "ms");
    report.Set("op_p90_ms", p90, "ms");
    return;
  }
  report.Set("workload.generate_s", Median(generates), "s");
  report.Set("workload.jobs", static_cast<double>(submits), "count");
  report.Set("svc.submit_p50_ms", p50, "ms");
  report.Set("svc.submit_p99_ms", p99, "ms");
  report.Set("svc.read_p99_ms", read_p99, "ms");
  report.Set("svc.replay_cmds_per_s", cmds_per_s, "1/s");
  report.Set("snapshot.write_s", Median(snapshot_writes), "s");
  report.Set("snapshot.bytes", results[0].snapshot_bytes, "bytes");
  report.Set("snapshot.commands", static_cast<double>(submits), "count");
  report.Set("restore.call_s", Median(restore_calls), "s");
  report.Set("restore.s", Median(restores), "s");
  report.Set("loadgen.backlog_max", kReplayWindow, "count");
  server.Publish(report);
  engine.Publish(report, false);
}

}  // namespace lyrabench
