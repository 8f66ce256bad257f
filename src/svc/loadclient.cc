#include "src/svc/loadclient.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "src/svc/prom.h"
#include "src/svc/wire.h"

namespace lyra::svc {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kRecvChunk = 64 * 1024;

// One send batch's worth of in-flight frames: every frame in a batch shares
// one stamp, so FIFO matching works on (stamp, count) runs instead of a
// deque entry per frame — the client must stay cheaper than the daemon it
// measures, and per-frame bookkeeping was its biggest cost at saturation.
// `first` is the connection-local index of the run's first frame; frame k's
// *intended* send time is start + k * interval, which differs from `stamp`
// whenever the blocking write paced the sender (see the coordinated-omission
// note on ReceiverLoop).
struct InFlightRun {
  Clock::time_point stamp;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

struct Connection {
  int fd = -1;
  std::mutex mu;
  std::deque<InFlightRun> in_flight;  // send-batch runs, FIFO
  std::vector<double> latencies_ms;
  std::vector<double> corrected_ms;
  std::uint64_t in_flight_frames = 0;  // under mu
  std::uint64_t backlog_max = 0;       // high-watermark of in_flight_frames
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Replies are classified without a JSON parse: at saturation rates the
// client must stay cheaper than the daemon it measures. Accepted replies
// start with `{"ok":true` (the service emits "ok" first); everything else
// is inspected for the overload code only.
void Classify(const std::string& payload, Connection* conn) {
  if (payload.rfind("{\"ok\":true", 0) == 0) {
    ++conn->ok;
  } else if (payload.find("\"code\":\"overloaded\"") != std::string::npos) {
    ++conn->overloaded;
  } else {
    ++conn->errors;
  }
}

void SenderLoop(Connection* conn, const std::string& payload, double interval_s,
                Clock::time_point start, Clock::time_point deadline) {
  const std::string framed = EncodeFrame(payload);
  // Every frame is identical, so a batch is a slice of this pre-built block
  // — no per-frame memcpy into a staging buffer at send time.
  constexpr std::size_t kBlockFrames = 256;
  std::string block;
  block.reserve(framed.size() * kBlockFrames);
  for (std::size_t i = 0; i < kBlockFrames; ++i) {
    block.append(framed);
  }
  std::uint64_t scheduled = 0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      break;
    }
    // Everything due by `now` goes out as one batch. Under a rate the daemon
    // cannot absorb, the blocking write itself paces us and the next wakeup
    // materializes a correspondingly larger batch.
    const double elapsed = std::chrono::duration<double>(now - start).count();
    const std::uint64_t due =
        static_cast<std::uint64_t>(elapsed / interval_s) + 1;
    if (due > scheduled) {
      const std::uint64_t batch = due - scheduled;
      const Clock::time_point stamp = Clock::now();
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->in_flight.push_back({stamp, scheduled, batch});
        conn->in_flight_frames += batch;
        conn->backlog_max = std::max(conn->backlog_max, conn->in_flight_frames);
      }
      std::uint64_t remaining = batch;
      bool failed = false;
      while (remaining > 0) {
        const std::uint64_t n =
            std::min<std::uint64_t>(remaining, kBlockFrames);
        if (!WriteAllBytes(conn->fd, block.data(), n * framed.size()).ok()) {
          failed = true;
          break;
        }
        remaining -= n;
      }
      conn->sent += batch - remaining;
      if (failed) {
        std::lock_guard<std::mutex> lock(conn->mu);
        // Remove the unsent tail of the batch from the in-flight run.
        if (!conn->in_flight.empty()) {
          conn->in_flight.back().count -= remaining;
          conn->in_flight_frames -= remaining;
          if (conn->in_flight.back().count == 0) {
            conn->in_flight.pop_back();
          }
        }
        break;
      }
      scheduled = due;
    }
    const Clock::time_point next =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(scheduled) * interval_s));
    std::this_thread::sleep_until(std::min(next, deadline));
  }
  // Half-close: the daemon answers everything pipelined, then sees EOF and
  // closes, which cleanly terminates the receiver.
  ::shutdown(conn->fd, SHUT_WR);
}

// Drains replies and matches them to sends FIFO. Two latencies per reply:
//
//   achieved  = now - the instant the frame's batch actually hit the wire
//   corrected = now - the instant the frame was *scheduled* to be sent
//               (start + index * interval)
//
// The difference is coordinated omission: when the daemon backlogs, the
// blocking write paces the sender, frames go out late, and achieved latency
// silently excludes exactly the queueing delay a saturated server inflicted.
// The corrected percentiles charge that deferral back to the server, which
// is what an open-loop sweep is supposed to measure.
void ReceiverLoop(Connection* conn, Clock::time_point start,
                  double interval_s) {
  FrameDecoder decoder;
  std::string payload;
  char buf[kRecvChunk];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return;  // clean EOF after half-close, or transport failure
    }
    decoder.Append(buf, static_cast<std::size_t>(n));
    // Classify every frame in this chunk, then match stamps FIFO under one
    // lock — at saturation a chunk carries hundreds of replies and the
    // receiver must not take a mutex per frame.
    std::size_t frames = 0;
    bool broken = false;
    for (;;) {
      StatusOr<bool> next = decoder.Next(&payload);
      if (!next.ok()) {
        ++conn->errors;
        broken = true;
        break;
      }
      if (!next.value()) {
        break;
      }
      Classify(payload, conn);
      ++frames;
    }
    if (frames > 0) {
      const Clock::time_point now = Clock::now();
      std::size_t unmatched = frames;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        while (unmatched > 0 && !conn->in_flight.empty()) {
          InFlightRun& run = conn->in_flight.front();
          const std::uint64_t take =
              std::min<std::uint64_t>(unmatched, run.count);
          const double ms =
              std::chrono::duration<double, std::milli>(now - run.stamp)
                  .count();
          conn->latencies_ms.insert(conn->latencies_ms.end(), take, ms);
          // Corrected latencies differ per frame within a run: frame
          // run.first + j was due at start + (run.first + j) * interval.
          const double now_ms =
              std::chrono::duration<double, std::milli>(now - start).count();
          for (std::uint64_t j = 0; j < take; ++j) {
            const double intended_ms =
                static_cast<double>(run.first + j) * interval_s * 1e3;
            conn->corrected_ms.push_back(now_ms - intended_ms);
          }
          run.first += take;
          run.count -= take;
          conn->in_flight_frames -= take;
          unmatched -= take;
          if (run.count == 0) {
            conn->in_flight.pop_front();
          }
        }
      }
      conn->errors += unmatched;  // replies without a matching send
    }
    if (broken) {
      return;
    }
  }
}

}  // namespace

StatusOr<std::string> FetchStatsProm(const std::string& unix_path,
                                     const std::string& tcp_host,
                                     int tcp_port) {
  StatusOr<int> fd = ConnectEndpoint(unix_path, tcp_host, tcp_port);
  if (!fd.ok()) {
    return fd.status();
  }
  const Status sent = WriteFrame(fd.value(), "{\"cmd\":\"stats_prom\"}");
  if (!sent.ok()) {
    ::close(fd.value());
    return sent;
  }
  StatusOr<std::string> reply = ReadFrame(fd.value());
  ::close(fd.value());
  if (!reply.ok()) {
    return reply.status();
  }
  StatusOr<JsonValue> parsed = JsonValue::Parse(reply.value());
  if (!parsed.ok()) {
    return parsed.status();
  }
  if (!parsed.value().GetBool("ok", false)) {
    return Status::Internal("stats_prom refused: " + reply.value());
  }
  return parsed.value().GetString("text", "");
}

StatusOr<obs::Histogram> ScrapeServerHistogram(const LoadClientOptions& options,
                                               const std::string& cmd) {
  StatusOr<std::string> text =
      FetchStatsProm(options.unix_path, options.tcp_host, options.tcp_port);
  if (!text.ok()) {
    return text.status();
  }
  StatusOr<PromScrape> scrape = ParsePrometheus(text.value());
  if (!scrape.ok()) {
    return scrape.status();
  }
  return ExtractHistogram(scrape.value(), kRequestDurationFamily,
                          {{"cmd", cmd}});
}

StatusOr<LoadPoint> RunOpenLoop(const LoadClientOptions& options) {
  if (options.rate <= 0.0 || options.duration_s <= 0.0 ||
      options.connections <= 0 || options.payload.empty()) {
    return Status::InvalidArgument(
        "load client needs rate, duration, connections > 0 and a payload");
  }
  // Pre-run scrape; NotFound is the normal fresh-daemon case (zero-count
  // families are not exported) and leaves the window un-differenced.
  StatusOr<obs::Histogram> before = Status::NotFound("scrape disabled");
  if (options.scrape_server) {
    before = ScrapeServerHistogram(options, "submit");
  }
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < options.connections; ++i) {
    StatusOr<int> fd =
        ConnectEndpoint(options.unix_path, options.tcp_host, options.tcp_port);
    if (!fd.ok()) {
      for (const auto& conn : conns) {
        ::close(conn->fd);
      }
      return fd.status();
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd.value();
    // Reserve the expected sample count so the receiver never reallocates
    // its latency vector mid-measurement (capped for absurd rate*duration).
    const double expected =
        options.rate * options.duration_s / options.connections;
    conn->latencies_ms.reserve(static_cast<std::size_t>(
        std::min(expected * 1.25, 8e6)));
    conn->corrected_ms.reserve(conn->latencies_ms.capacity());
    conns.push_back(std::move(conn));
  }

  const double interval_s =
      static_cast<double>(options.connections) / options.rate;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));

  std::vector<std::thread> threads;
  threads.reserve(conns.size() * 2);
  for (auto& conn : conns) {
    threads.emplace_back(SenderLoop, conn.get(), options.payload, interval_s,
                         start, deadline);
    threads.emplace_back(ReceiverLoop, conn.get(), start, interval_s);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();

  LoadPoint point;
  point.offered_rate = options.rate;
  point.wall_s = wall;
  point.connections = options.connections;
  std::vector<double> latencies;
  std::vector<double> corrected;
  for (auto& conn : conns) {
    ::close(conn->fd);
    point.sent += conn->sent;
    point.ok += conn->ok;
    point.overloaded += conn->overloaded;
    point.errors += conn->errors;
    point.backlog_max = std::max(point.backlog_max, conn->backlog_max);
    latencies.insert(latencies.end(), conn->latencies_ms.begin(),
                     conn->latencies_ms.end());
    corrected.insert(corrected.end(), conn->corrected_ms.begin(),
                     conn->corrected_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(corrected.begin(), corrected.end());
  point.accepted_per_s =
      wall > 0.0 ? static_cast<double>(point.ok) / wall : 0.0;
  point.p50_ms = Percentile(latencies, 0.50);
  point.p90_ms = Percentile(latencies, 0.90);
  point.p99_ms = Percentile(latencies, 0.99);
  point.p999_ms = Percentile(latencies, 0.999);
  point.max_ms = latencies.empty() ? 0.0 : latencies.back();
  point.samples = latencies.size();
  point.corrected_p50_ms = Percentile(corrected, 0.50);
  point.corrected_p90_ms = Percentile(corrected, 0.90);
  point.corrected_p99_ms = Percentile(corrected, 0.99);
  point.corrected_p999_ms = Percentile(corrected, 0.999);
  point.corrected_max_ms = corrected.empty() ? 0.0 : corrected.back();

  if (options.scrape_server) {
    // Every reply has been received, so the daemon has already recorded each
    // request into its histograms — no settle delay needed.
    StatusOr<obs::Histogram> after = ScrapeServerHistogram(options, "submit");
    if (after.ok()) {
      const obs::Histogram window =
          before.ok() ? WindowSince(after.value(), before.value())
                      : after.value();
      point.server_samples = window.count();
      if (point.server_samples > 0) {
        point.server_p50_ms = window.Quantile(0.50) * 1e3;
        point.server_p90_ms = window.Quantile(0.90) * 1e3;
        point.server_p99_ms = window.Quantile(0.99) * 1e3;
        point.server_p999_ms = window.Quantile(0.999) * 1e3;
      }
    }
  }
  return point;
}

JsonValue LoadPointJson(const LoadPoint& point) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("rate_target", JsonValue::MakeNumber(point.offered_rate));
  out.Set("duration_sec", JsonValue::MakeNumber(point.wall_s));
  out.Set("connections", JsonValue::MakeNumber(point.connections));
  out.Set("sent", JsonValue::MakeNumber(static_cast<double>(point.sent)));
  out.Set("ok", JsonValue::MakeNumber(static_cast<double>(point.ok)));
  out.Set("overloaded",
          JsonValue::MakeNumber(static_cast<double>(point.overloaded)));
  out.Set("errors", JsonValue::MakeNumber(static_cast<double>(point.errors)));
  out.Set("submits_per_sec", JsonValue::MakeNumber(point.accepted_per_s));
  out.Set("latency_ms_p50", JsonValue::MakeNumber(point.p50_ms));
  out.Set("latency_ms_p90", JsonValue::MakeNumber(point.p90_ms));
  out.Set("latency_ms_p99", JsonValue::MakeNumber(point.p99_ms));
  out.Set("latency_ms_p999", JsonValue::MakeNumber(point.p999_ms));
  out.Set("latency_ms_max", JsonValue::MakeNumber(point.max_ms));
  out.Set("latency_ms_corrected_p50",
          JsonValue::MakeNumber(point.corrected_p50_ms));
  out.Set("latency_ms_corrected_p90",
          JsonValue::MakeNumber(point.corrected_p90_ms));
  out.Set("latency_ms_corrected_p99",
          JsonValue::MakeNumber(point.corrected_p99_ms));
  out.Set("latency_ms_corrected_p999",
          JsonValue::MakeNumber(point.corrected_p999_ms));
  out.Set("latency_ms_corrected_max",
          JsonValue::MakeNumber(point.corrected_max_ms));
  out.Set("backlog_max",
          JsonValue::MakeNumber(static_cast<double>(point.backlog_max)));
  if (point.server_samples > 0) {
    out.Set("server_latency_ms_p50", JsonValue::MakeNumber(point.server_p50_ms));
    out.Set("server_latency_ms_p90", JsonValue::MakeNumber(point.server_p90_ms));
    out.Set("server_latency_ms_p99", JsonValue::MakeNumber(point.server_p99_ms));
    out.Set("server_latency_ms_p999",
            JsonValue::MakeNumber(point.server_p999_ms));
    out.Set("server_samples",
            JsonValue::MakeNumber(static_cast<double>(point.server_samples)));
  }
  return out;
}

}  // namespace lyra::svc
