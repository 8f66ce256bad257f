// Fast-path tests for the service front end (DESIGN.md §8): lock-free read
// snapshots under write load, pipelined per-connection reply ordering over
// Unix and TCP transports, deferred-read read-your-writes, and the SIGPIPE
// regression (a peer that disconnects with replies in flight must never kill
// the daemon).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/service.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"

namespace lyra::svc {
namespace {

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue SubmitCmd(double at = 0.0) {
  JsonValue request = Cmd("submit");
  request.Set("at", JsonValue::MakeNumber(at));
  request.Set("gpus_per_worker", JsonValue::MakeNumber(1));
  request.Set("min_workers", JsonValue::MakeNumber(1));
  request.Set("max_workers", JsonValue::MakeNumber(1));
  request.Set("total_work", JsonValue::MakeNumber(36000.0));
  request.Set("fungible", JsonValue::MakeBool(true));
  return request;
}

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.auto_advance = false;
  return options;
}

// Readers hammer the snapshot fast path while the engine applies a stream of
// submits and cancels. Pins the RCU contract: every loaded snapshot is
// internally consistent (no torn reads), versions and virtual time are
// monotone per reader, and reads never touch the engine queue.
TEST(Fastpath, ReadersNeverTearOrBlockUnderWriteLoad) {
  StatusOr<FederationSet> fleet =
      BuildFederation(SmallServiceOptions(), SingleCluster(), [](int) {
        return std::make_unique<VirtualTimeDriver>();
      });
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FederationRouter& router = *fleet.value().router;
  SchedulerService& service = *fleet.value().services[0];

  constexpr int kWrites = 1500;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&service, &router, &done, &reads, t] {
      std::uint64_t last_version = 0;
      double last_time = -1.0;
      std::int64_t probe = t;  // stagger the job ids readers chase
      std::uint64_t local_reads = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const StateSnapshot> snap = service.snapshot();
        ASSERT_NE(snap, nullptr);
        ASSERT_GE(snap->version, last_version) << "snapshot went backwards";
        ASSERT_GE(snap->time, last_time) << "virtual time went backwards";
        last_version = snap->version;
        last_time = snap->time;
        // Torn-snapshot detector: the aggregate state counters are updated
        // chunk-by-chunk at build time and must always sum to the job count.
        std::uint64_t total = 0;
        for (const std::uint64_t count : snap->state_counts) {
          total += count;
        }
        ASSERT_EQ(total, snap->job_count);

        // Probe only ids the snapshot covers: a query for an existing job
        // (running or cancelled) must always succeed from the fast path.
        if (snap->job_count > 0) {
          JsonValue query = Cmd("query_job");
          query.Set("job", JsonValue::MakeNumber(static_cast<double>(
                               probe % static_cast<std::int64_t>(
                                           snap->job_count))));
          const JsonValue reply = router.Execute(query);
          ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
          probe += 3;
          ++local_reads;
        }
        const JsonValue stats_reply = router.Execute(Cmd("cluster_stats"));
        ASSERT_TRUE(stats_reply.GetBool("ok"));
        ++local_reads;
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }

  std::uint64_t engine_cmds = 0;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(router.Execute(SubmitCmd()).GetBool("ok"));
    ++engine_cmds;
    if (i % 5 == 4) {
      JsonValue cancel = Cmd("cancel");
      cancel.Set("job", JsonValue::MakeNumber(i));
      ASSERT_TRUE(router.Execute(cancel).GetBool("ok"));
      ++engine_cmds;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }

  // Reads were answered from snapshots: the applied-command counter saw only
  // the engine commands, while every read landed in reads_served.
  const SchedulerService::Stats stats = service.stats();
  EXPECT_EQ(stats.commands_applied, engine_cmds);
  EXPECT_GE(stats.reads_served, reads.load());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.command_errors, 0u);
  service.Stop();
}

// Pipelines a burst of alternating engine commands (submit) and deferred
// reads (query_job for the job just submitted) on one connection, tagged
// with "seq". Pins two contracts at once: replies come back in exactly
// per-connection request order even though reads and writes take different
// paths, and a read pipelined behind a write observes that write (the
// queried job exists in the reply).
void PipelinedOrderCheck(int fd, int base_job) {
  constexpr int kPairs = 64;
  std::string burst;
  for (int i = 0; i < kPairs; ++i) {
    JsonValue submit = SubmitCmd();
    submit.Set("seq", JsonValue::MakeNumber(2 * i));
    AppendFrame(submit.Dump(), burst);
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(base_job + i));
    query.Set("seq", JsonValue::MakeNumber(2 * i + 1));
    AppendFrame(query.Dump(), burst);
  }
  ASSERT_TRUE(WriteAllBytes(fd, burst.data(), burst.size()).ok());

  for (int expect = 0; expect < 2 * kPairs; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd);
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    if (expect % 2 == 1) {
      // The deferred read resolved against a snapshot containing the submit
      // that preceded it on this connection.
      EXPECT_EQ(reply.value().GetDouble("job", -1.0),
                base_job + (expect - 1) / 2);
    }
  }
}

TEST(Fastpath, PipelinedRepliesStayInOrderAcrossTransports) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_fastpath_" + std::to_string(::getpid()) + ".sock";
  loop_options.tcp_port = 0;  // ephemeral
  loop_options.io_threads = 2;

  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());
  EventLoop server(&service, loop_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  StatusOr<int> unix_fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(unix_fd.ok()) << unix_fd.status().message();
  PipelinedOrderCheck(unix_fd.value(), /*base_job=*/0);
  ::close(unix_fd.value());

  StatusOr<int> tcp_fd = ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(tcp_fd.ok()) << tcp_fd.status().message();
  PipelinedOrderCheck(tcp_fd.value(), /*base_job=*/64);
  ::close(tcp_fd.value());

  service.Stop();
  server.Stop();
}

// SIGPIPE regression: a client that pipelines a burst of commands and
// disconnects without reading leaves the event loop writing replies into a
// closed socket. With default SIGPIPE disposition in this process, anything
// but MSG_NOSIGNAL on the send path would kill the test binary here.
TEST(Fastpath, PeerDisconnectWithRepliesInFlightIsHarmless) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_sigpipe_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 1;

  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());
  EventLoop server(&service, loop_options);
  ASSERT_TRUE(server.Start().ok());

  for (int round = 0; round < 8; ++round) {
    StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
    ASSERT_TRUE(fd.ok());
    std::string burst;
    for (int i = 0; i < 128; ++i) {
      AppendFrame(SubmitCmd().Dump(), burst);
    }
    ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());
    // Close with every reply still in flight; the loop hits EPIPE/ECONNRESET
    // mid-flush and must simply drop the connection.
    ::close(fd.value());
  }

  // The daemon is still alive and serving.
  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFrame(fd.value(), Cmd("ping").Dump()).ok());
  StatusOr<std::string> reply_text = ReadFrame(fd.value());
  ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
  StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().GetBool("ok"));
  ::close(fd.value());

  service.Stop();
  server.Stop();
}

}  // namespace
}  // namespace lyra::svc
