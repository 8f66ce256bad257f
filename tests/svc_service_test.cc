// Tests for the online scheduler service: time drivers, wire framing, the
// single-writer command queue (including backpressure), the epoll front end,
// and the batch/online stepping equivalence the service is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/reclaim.h"
#include "src/sim/simulator.h"
#include "src/svc/event_loop.h"
#include "src/svc/service.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"
#include "src/workload/synthetic.h"

namespace lyra::svc {
namespace {

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue SubmitCmd(double at, double total_work = 7200.0, int max_workers = 1) {
  JsonValue request = Cmd("submit");
  request.Set("at", JsonValue::MakeNumber(at));
  request.Set("gpus_per_worker", JsonValue::MakeNumber(1));
  request.Set("min_workers", JsonValue::MakeNumber(1));
  request.Set("max_workers", JsonValue::MakeNumber(max_workers));
  request.Set("total_work", JsonValue::MakeNumber(total_work));
  request.Set("fungible", JsonValue::MakeBool(true));
  return request;
}

TEST(TimeDriver, VirtualJumpsToTargetWithoutBlocking) {
  VirtualTimeDriver driver;
  EXPECT_FALSE(driver.realtime());
  EXPECT_DOUBLE_EQ(driver.Now(), 0.0);
  EXPECT_TRUE(driver.WaitUntil(100.0));  // jumps, never sleeps
  EXPECT_DOUBLE_EQ(driver.Now(), 100.0);
  driver.AdvanceTo(50.0);  // never moves backwards
  EXPECT_DOUBLE_EQ(driver.Now(), 100.0);
  driver.AdvanceTo(250.0);
  EXPECT_DOUBLE_EQ(driver.Now(), 250.0);
  EXPECT_TRUE(driver.WaitUntil(10.0));  // target already past
  EXPECT_DOUBLE_EQ(driver.Now(), 250.0);
}

TEST(TimeDriver, ScaledRealTimeAdvancesAndInterrupts) {
  ScaledRealTimeDriver driver(1e6);  // 1 wall ms ~ 1000 virtual seconds
  EXPECT_TRUE(driver.realtime());
  const TimeSec t0 = driver.Now();
  EXPECT_TRUE(driver.WaitUntil(t0 + 100.0));  // ~0.1 wall ms
  EXPECT_GE(driver.Now(), t0 + 100.0);

  // An interrupt posted before the wait is consumed by the wait
  // (level-triggered), so a command enqueued while the engine was busy is
  // never missed.
  driver.Interrupt();
  EXPECT_FALSE(driver.WaitUntil(driver.Now() + 1e9));

  // An interrupt from another thread wakes an in-progress wait early.
  std::thread interrupter([&driver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    driver.Interrupt();
  });
  const bool reached = driver.WaitUntil(driver.Now() + 1e12);  // ~11 wall days
  interrupter.join();
  EXPECT_FALSE(reached);

  // Infinite targets are waitable (and only interruptible).
  std::thread interrupter2([&driver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    driver.Interrupt();
  });
  EXPECT_FALSE(driver.WaitUntil(std::numeric_limits<double>::infinity()));
  interrupter2.join();
}

TEST(Wire, FrameRoundTripThroughDecoder) {
  const std::string payload = "{\"cmd\":\"ping\"}";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);

  // Feed byte-by-byte: the decoder must produce nothing until the frame
  // completes, then exactly the payload.
  FrameDecoder decoder;
  std::string out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Append(frame.data() + i, 1);
    StatusOr<bool> next = decoder.Next(&out);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next.value()) << "frame complete after " << i + 1 << " bytes";
  }
  decoder.Append(frame.data() + frame.size() - 1, 1);
  StatusOr<bool> next = decoder.Next(&out);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.buffered(), 0u);

  // Two frames in one append come out in order.
  const std::string frame2 = EncodeFrame("abc") + EncodeFrame("defg");
  decoder.Append(frame2.data(), frame2.size());
  ASSERT_TRUE(decoder.Next(&out).value());
  EXPECT_EQ(out, "abc");
  ASSERT_TRUE(decoder.Next(&out).value());
  EXPECT_EQ(out, "defg");
}

TEST(Wire, OversizedLengthPrefixIsRejected) {
  // Header claiming 2 MiB: must fail before any 2 MiB allocation.
  const char header[4] = {0x00, 0x20, 0x00, 0x00};
  FrameDecoder decoder;
  decoder.Append(header, 4);
  std::string out;
  const StatusOr<bool> next = decoder.Next(&out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;  // 22 training + 26 inference servers
  options.auto_advance = false;
  return options;
}

TEST(Service, SubmitAdvanceQueryDrainLifecycle) {
  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());

  JsonValue reply = service.Execute(Cmd("ping"));
  EXPECT_TRUE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("driver"), "virtual");

  reply = service.Execute(SubmitCmd(/*at=*/0.0));
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_DOUBLE_EQ(reply.GetDouble("job", -1.0), 0.0);

  reply = service.Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(reply.GetBool("ok"));
  EXPECT_DOUBLE_EQ(reply.Find("jobs")->GetDouble("total"), 1.0);

  JsonValue advance = Cmd("advance");
  advance.Set("to", JsonValue::MakeNumber(4 * 3600.0));
  reply = service.Execute(advance);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();

  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(0));
  reply = service.Execute(query);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  // One worker, 7200 GPU-seconds: finished well before the 4 h advance.
  EXPECT_EQ(reply.GetString("state"), "finished");
  EXPECT_GT(reply.GetDouble("finish_time", -1.0), 0.0);

  reply = service.Execute(SubmitCmd(/*at=*/5 * 3600.0));
  ASSERT_TRUE(reply.GetBool("ok"));
  reply = service.Execute(Cmd("drain"));
  ASSERT_TRUE(reply.GetBool("ok"));
  EXPECT_DOUBLE_EQ(reply.GetDouble("jobs"), 2.0);
  EXPECT_DOUBLE_EQ(reply.GetDouble("terminal"), 2.0);

  reply = service.Execute(Cmd("metrics"));
  ASSERT_TRUE(reply.GetBool("ok"));
  ASSERT_NE(reply.Find("engine"), nullptr);
  ASSERT_NE(reply.Find("service"), nullptr);
  EXPECT_DOUBLE_EQ(reply.Find("service")->GetDouble("jobs_submitted"), 2.0);

  const SchedulerService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.command_errors, 0u);
  service.Stop();
}

TEST(Service, ErrorRepliesCarryWireCodes) {
  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());

  JsonValue reply = service.Execute(Cmd("no_such_command"));
  EXPECT_FALSE(reply.GetBool("ok", true));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(99));
  reply = service.Execute(query);
  EXPECT_EQ(reply.GetString("code"), "not_found");

  reply = service.Execute(Cmd("cancel"));  // missing "job"
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  JsonValue advance = Cmd("advance");  // missing "to"
  reply = service.Execute(advance);
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  // Wire-layer parse errors.
  StatusOr<JsonValue> parsed = JsonValue::Parse(service.ExecuteText("{nope"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("code"), "invalid_argument");
  parsed = JsonValue::Parse(service.ExecuteText("[1,2,3]"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("code"), "invalid_argument");

  // Demands are computed in int: a spec whose max_workers * gpus_per_worker
  // overflows it is refused, and so is a field outside int itself.
  JsonValue overflow = SubmitCmd(/*at=*/0.0);
  overflow.Replace("min_workers", JsonValue::MakeNumber(65536));
  overflow.Replace("max_workers", JsonValue::MakeNumber(65536));
  overflow.Replace("gpus_per_worker", JsonValue::MakeNumber(65536));
  reply = service.Execute(overflow);
  EXPECT_FALSE(reply.GetBool("ok", true));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");
  for (const char* field : {"gpus_per_worker", "min_workers", "max_workers",
                            "requested_workers"}) {
    for (double value : {1e12, -1e12}) {
      JsonValue huge = SubmitCmd(/*at=*/0.0);
      huge.Replace(field, JsonValue::MakeNumber(value));
      reply = service.Execute(huge);
      EXPECT_EQ(reply.GetString("code"), "invalid_argument") << field << "=" << value;
    }
  }
  reply = service.Execute(Cmd("cluster_stats"));
  EXPECT_DOUBLE_EQ(reply.Find("jobs")->GetDouble("total"), 0.0);

  EXPECT_GE(service.stats().command_errors, 13u);
  service.Stop();
}

TEST(Service, CancelPendingAndRunningJobs) {
  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());

  // Job 0 runs (cancelled mid-flight); job 1 is cancelled at its submit
  // instant, before any scheduler tick sees it.
  ASSERT_TRUE(service.Execute(SubmitCmd(0.0, /*total_work=*/36000.0)).GetBool("ok"));
  ASSERT_TRUE(service.Execute(SubmitCmd(0.0, /*total_work=*/36000.0)).GetBool("ok"));

  JsonValue cancel1 = Cmd("cancel");
  cancel1.Set("job", JsonValue::MakeNumber(1));
  cancel1.Set("at", JsonValue::MakeNumber(0.0));
  ASSERT_TRUE(service.Execute(cancel1).GetBool("ok"));

  JsonValue cancel0 = Cmd("cancel");
  cancel0.Set("job", JsonValue::MakeNumber(0));
  cancel0.Set("at", JsonValue::MakeNumber(3600.0));
  ASSERT_TRUE(service.Execute(cancel0).GetBool("ok"));

  // Cancelling a terminal job is a FailedPrecondition, not a crash.
  JsonValue again = Cmd("cancel");
  again.Set("job", JsonValue::MakeNumber(0));
  EXPECT_EQ(service.Execute(again).GetString("code"), "failed_precondition");

  JsonValue reply = service.Execute(Cmd("cluster_stats"));
  EXPECT_DOUBLE_EQ(reply.Find("jobs")->GetDouble("cancelled"), 2.0);
  // Cancellation released every GPU.
  EXPECT_DOUBLE_EQ(reply.Find("cluster")->Find("training")->GetDouble("used_gpus"),
                   0.0);
  EXPECT_EQ(service.stats().jobs_cancelled, 2u);
  service.Stop();
}

TEST(Service, ShutdownCommandStopsService) {
  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());
  const JsonValue reply = service.Execute(Cmd("shutdown"));
  EXPECT_TRUE(reply.GetBool("ok"));
  EXPECT_TRUE(reply.GetBool("stopping"));
  EXPECT_TRUE(service.stopped());
  // Post-shutdown commands are refused immediately.
  EXPECT_EQ(service.Execute(Cmd("ping")).GetString("code"), "unavailable");
  service.Stop();
  service.Stop();  // idempotent
}

TEST(Service, BackpressureRejectsWhenQueueFull) {
  ServiceOptions options = SmallServiceOptions();
  options.queue_capacity = 1;
  options.retry_after_ms = 7.0;
  SchedulerService service(options, std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());

  // Hammer the capacity-1 queue from many threads until a rejection is
  // observed; with 16 concurrent submitters this lands in the first round.
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> saw_retry_hint{false};
  for (int round = 0; round < 50 && rejected.load() == 0; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 8; ++i) {
          attempts.fetch_add(1);
          const JsonValue reply = service.Execute(SubmitCmd(0.0));
          if (reply.GetBool("ok")) {
            ok_count.fetch_add(1);
          } else if (reply.GetString("code") == "overloaded") {
            rejected.fetch_add(1);
            if (reply.GetDouble("retry_after_ms") == 7.0) {
              saw_retry_hint.store(true);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  const SchedulerService::Stats stats = service.stats();
  EXPECT_GT(rejected.load(), 0u);
  EXPECT_TRUE(saw_retry_hint.load());
  EXPECT_EQ(stats.rejected_overload, rejected.load());
  EXPECT_EQ(stats.jobs_submitted, ok_count.load());
  // Every attempt either succeeded or was explicitly rejected — no silent
  // drops, no blocking.
  EXPECT_EQ(ok_count.load() + rejected.load(), attempts.load());
  service.Stop();
}

TEST(Service, EventLoopEndToEnd) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_svc_test_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 2;

  SchedulerService service(SmallServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());
  EventLoop server(&service, loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  ASSERT_TRUE(WriteFrame(fd.value(), Cmd("ping").Dump()).ok());
  StatusOr<std::string> reply_text = ReadFrame(fd.value());
  ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
  StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().GetBool("ok"));

  // Several requests on one connection, served strictly in order.
  ASSERT_TRUE(WriteFrame(fd.value(), SubmitCmd(0.0).Dump()).ok());
  ASSERT_TRUE(WriteFrame(fd.value(), Cmd("cluster_stats").Dump()).ok());
  StatusOr<std::string> submit_reply = ReadFrame(fd.value());
  ASSERT_TRUE(submit_reply.ok());
  EXPECT_NE(submit_reply.value().find("\"job\":0"), std::string::npos)
      << submit_reply.value();
  StatusOr<std::string> stats_reply = ReadFrame(fd.value());
  ASSERT_TRUE(stats_reply.ok());
  EXPECT_NE(stats_reply.value().find("\"total\":1"), std::string::npos)
      << stats_reply.value();
  ::close(fd.value());

  // A malformed JSON payload produces an error reply, not a dropped server.
  StatusOr<int> fd2 = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(WriteFrame(fd2.value(), "{broken").ok());
  StatusOr<std::string> error_reply = ReadFrame(fd2.value());
  ASSERT_TRUE(error_reply.ok());
  EXPECT_NE(error_reply.value().find("invalid_argument"), std::string::npos);
  ::close(fd2.value());

  // An oversized length prefix gets one error frame, then the connection is
  // dropped — but the server keeps serving new connections.
  StatusOr<int> fd3 = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd3.ok());
  const char evil_header[8] = {0x7f, 0x00, 0x00, 0x00, 'j', 'u', 'n', 'k'};
  ASSERT_EQ(::write(fd3.value(), evil_header, sizeof(evil_header)),
            static_cast<ssize_t>(sizeof(evil_header)));
  StatusOr<std::string> evil_reply = ReadFrame(fd3.value());
  ASSERT_TRUE(evil_reply.ok());
  EXPECT_NE(evil_reply.value().find("invalid_argument"), std::string::npos);
  ::close(fd3.value());

  StatusOr<int> fd4 = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd4.ok());
  ASSERT_TRUE(WriteFrame(fd4.value(), Cmd("ping").Dump()).ok());
  EXPECT_TRUE(ReadFrame(fd4.value()).ok());
  ::close(fd4.value());

  // Reads (ping, cluster_stats) were answered from the snapshot; only the
  // submit went through the engine queue. The two protocol errors were
  // counted even though they never reached the service proper.
  const SchedulerService::Stats stats = service.stats();
  EXPECT_GE(stats.reads_served, 3u);
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_GE(stats.command_errors, 2u);
  service.Stop();
  server.Stop();
}

// The contract the whole service rests on: Run() and incremental StepUntil
// produce byte-identical decision streams regardless of chunking.
TEST(Service, SteppingMatchesBatchRunBitExactly) {
  SyntheticTraceOptions trace_options;
  trace_options.duration = 2 * kDay;
  trace_options.training_gpus = 22 * 8;
  trace_options.seed = 7;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();

  SimulatorOptions options;
  options.training_servers = 22;
  options.record_decisions = true;
  auto run = [&](int mode) {
    LyraSchedulerOptions sched_options;
    LyraScheduler scheduler(sched_options);
    LyraReclaimPolicy reclaim;
    Simulator sim(options, trace, &scheduler, &reclaim, nullptr);
    if (mode == 0) {
      sim.Run();
    } else {
      sim.Begin();
      const double inf = std::numeric_limits<double>::infinity();
      if (mode == 1) {
        while (sim.StepUntil(inf, 257)) {
        }
      } else {
        // Ragged horizon chunks, then drain.
        for (TimeSec t = 1000.0; t < 2 * kDay; t *= 1.7) {
          sim.StepUntil(t);
        }
        sim.StepUntil(inf);
      }
      sim.Finalize();
    }
    return sim.decision_log().records();
  };

  const std::vector<DecisionRecord> batch = run(0);
  ASSERT_FALSE(batch.empty());
  EXPECT_TRUE(run(1) == batch) << "event-count chunking diverged";
  EXPECT_TRUE(run(2) == batch) << "horizon chunking diverged";
}

}  // namespace
}  // namespace lyra::svc
