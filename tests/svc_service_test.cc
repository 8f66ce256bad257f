// Tests for the online scheduler service: time drivers, wire framing, the
// single-writer command queue (including backpressure), the epoll front end,
// and the batch/online stepping equivalence the service is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/lyra/lyra_scheduler.h"
#include "src/lyra/reclaim.h"
#include "src/common/codec.h"
#include "src/sim/simulator.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/prom.h"
#include "src/svc/replies.h"
#include "src/svc/service.h"
#include "src/svc/snapshot.h"
#include "src/svc/state_snapshot.h"
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

// A one-engine fleet, the plain daemon's shape, driven through its router.
FederationSet OneEngineFleet(const ServiceOptions& options) {
  StatusOr<FederationSet> fleet =
      BuildFederation(options, SingleCluster(), [](int) {
        return std::make_unique<VirtualTimeDriver>();
      });
  EXPECT_TRUE(fleet.ok()) << fleet.status().message();
  return std::move(fleet.value());
}

TEST(Service, SubmitAdvanceQueryDrainLifecycle) {
  FederationSet fleet = OneEngineFleet(SmallServiceOptions());
  FederationRouter& router = *fleet.router;
  SchedulerService& service = *fleet.services[0];

  JsonValue reply = router.Execute(Cmd("ping"));
  EXPECT_TRUE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("driver"), "virtual");

  reply = router.Execute(SubmitCmd(/*at=*/0.0));
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_DOUBLE_EQ(reply.GetDouble("job", -1.0), 0.0);

  reply = router.Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(reply.GetBool("ok"));
  EXPECT_DOUBLE_EQ(reply.Find("jobs")->GetDouble("total"), 1.0);

  JsonValue advance = Cmd("advance");
  advance.Set("to", JsonValue::MakeNumber(4 * 3600.0));
  reply = router.Execute(advance);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();

  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(0));
  reply = router.Execute(query);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  // One worker, 7200 GPU-seconds: finished well before the 4 h advance.
  EXPECT_EQ(reply.GetString("state"), "finished");
  EXPECT_GT(reply.GetDouble("finish_time", -1.0), 0.0);

  reply = router.Execute(SubmitCmd(/*at=*/5 * 3600.0));
  ASSERT_TRUE(reply.GetBool("ok"));
  reply = router.Execute(Cmd("drain"));
  ASSERT_TRUE(reply.GetBool("ok"));
  EXPECT_DOUBLE_EQ(reply.GetDouble("jobs"), 2.0);
  EXPECT_DOUBLE_EQ(reply.GetDouble("terminal"), 2.0);

  // The metrics live in stats_prom (/metrics): the Stats counters, the
  // replay log's length and the registry copy's time.
  reply = router.Execute(Cmd("stats_prom"));
  ASSERT_TRUE(reply.GetBool("ok"));
  StatusOr<PromScrape> scrape = ParsePrometheus(reply.GetString("text", ""));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  EXPECT_DOUBLE_EQ(scrape.value().Value("lyra_svc_jobs_submitted_total"), 2.0);
  EXPECT_DOUBLE_EQ(scrape.value().Value("lyra_svc_command_log", {}, -1.0),
                   static_cast<double>(service.command_log().size()));
  const PromSample* metrics_time =
      scrape.value().Find("lyra_engine_metrics_time_seconds");
  ASSERT_NE(metrics_time, nullptr);
  EXPECT_LE(metrics_time->value,
            scrape.value().Value("lyra_engine_virtual_time_seconds"));

  const SchedulerService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.command_errors, 0u);
  service.Stop();
}

// A registry copy's JSON (lyra_sim --metrics-json writes it). Its bytes are
// pinned to what the export has always written: nine-digit doubles, name
// order, empty histograms.
TEST(Service, MetricsEngineSectionKeepsItsBytes) {
  obs::MetricsRegistry registry;
  registry.counter("sim.events.arrival")->Add(12);
  registry.gauge("inference.serving_fraction")->Set(1.0 / 3.0);
  registry.gauge("inference.target_loaned")->Set(42.0);
  obs::Histogram* h = registry.histogram("sim.pending_jobs_per_tick");
  h->Record(0.1);
  h->Record(2.0 / 7.0);
  h->Record(5000.5);
  registry.histogram("empty");
  const std::string bounds =
      "[1,4,16,64,256,1024,4096,16384,65536,262144,1048576,4194304]";
  EXPECT_EQ(registry.Values().ToJson().Dump(),
            "{\"counters\":{\"sim.events.arrival\":12},\"gauges\":{"
            "\"inference.serving_fraction\":0.33333333300000001,"
            "\"inference.target_loaned\":42},\"histograms\":{\"empty\":{"
            "\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"bounds\":" +
                bounds +
                ",\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0,0]},"
                "\"sim.pending_jobs_per_tick\":{\"count\":3,"
                "\"sum\":5000.8857099999996,\"min\":0.10000000000000001,"
                "\"max\":5000.5,\"bounds\":" +
                bounds + ",\"buckets\":[2,0,0,0,0,0,0,1,0,0,0,0,0]}}}");
}

TEST(Service, ErrorRepliesCarryWireCodes) {
  FederationSet fleet = OneEngineFleet(SmallServiceOptions());
  FederationRouter& router = *fleet.router;
  SchedulerService& service = *fleet.services[0];

  JsonValue reply = router.Execute(Cmd("no_such_command"));
  EXPECT_FALSE(reply.GetBool("ok", true));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(99));
  reply = router.Execute(query);
  EXPECT_EQ(reply.GetString("code"), "not_found");

  reply = router.Execute(Cmd("cancel"));  // missing "job"
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  JsonValue advance = Cmd("advance");  // missing "to"
  reply = router.Execute(advance);
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  // Demands are computed in int: a spec whose max_workers * gpus_per_worker
  // overflows it is refused, and so is a field outside int itself.
  JsonValue overflow = SubmitCmd(/*at=*/0.0);
  overflow.Replace("min_workers", JsonValue::MakeNumber(65536));
  overflow.Replace("max_workers", JsonValue::MakeNumber(65536));
  overflow.Replace("gpus_per_worker", JsonValue::MakeNumber(65536));
  reply = router.Execute(overflow);
  EXPECT_FALSE(reply.GetBool("ok", true));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");
  for (const char* field : {"gpus_per_worker", "min_workers", "max_workers",
                            "requested_workers"}) {
    for (double value : {1e12, -1e12}) {
      JsonValue huge = SubmitCmd(/*at=*/0.0);
      huge.Replace(field, JsonValue::MakeNumber(value));
      reply = router.Execute(huge);
      EXPECT_EQ(reply.GetString("code"), "invalid_argument") << field << "=" << value;
    }
  }
  reply = router.Execute(Cmd("cluster_stats"));
  EXPECT_DOUBLE_EQ(reply.Find("jobs")->GetDouble("total"), 0.0);

  EXPECT_GE(service.stats().command_errors, 13u);
  service.Stop();
}

// How the engine-command decoder reads a submit or cancel: the exact reply,
// the command_errors it adds, and for an accepted submit the spec fields
// query_job reads back. Accepted submits' reply bytes name the job id, which
// only a one-engine fleet predicts.
struct DecodeCase {
  const char* request;
  const char* reply;  // exact bytes at one engine; errors at every size
  std::uint64_t errors;
  int gpus_per_worker = 0;  // accepted submits: the spec read back
  int min_workers = 0;
  int max_workers = 0;
};

const DecodeCase kDecodeCases[] = {
    {R"({"cmd":"submit","at":0,"min_workers":3e9,"total_work":7200})",
     R"({"ok":false,"code":"invalid_argument","error":"min_workers is outside the int range"})",
     1},
    {R"({"cmd":"submit","at":0,"model":"alexnet","total_work":7200,"seq":3})",
     R"({"ok":false,"code":"invalid_argument","error":"unknown model family: alexnet","seq":3})",
     1},
    {R"({"cmd":"submit","at":0,"gpus_per_worker":"two","total_work":7200})",
     R"({"ok":true,"job":0,"time":0})", 0, 1, 1, 1},
    {R"({"cmd":"submit","at":0,"min_workers":2,"max_workers":4,"min_workers":3,"max_workers":1,"total_work":7200})",
     R"({"ok":true,"job":1,"time":0})", 0, 1, 2, 4},
    {R"({"cmd":"submit","at":0,"min_workers":3,"total_work":7200})",
     R"({"ok":true,"job":2,"time":0})", 0, 1, 3, 3},
    {R"({"cmd":"cancel","job":1.5})",
     R"({"ok":false,"code":"invalid_argument","error":"cancel: \"job\" must be an integer in [0, 2^53], got 1.5"})",
     1},
    {R"({"cmd":"cancel","job":"0","seq":4})",
     R"({"ok":false,"code":"invalid_argument","error":"cancel requires a numeric \"job\"","seq":4})",
     1},
};

TEST(Service, EngineCommandDecoderRepliesKeepTheirBytes) {
  for (const char* fleet : {"0x1", "0x4"}) {
    SCOPED_TRACE(fleet);
    StatusOr<FederationSet> built =
        BuildFederation(SmallServiceOptions(),
                        ParseFederationSpec(fleet).value(),
                        [](int) { return std::make_unique<VirtualTimeDriver>(); });
    ASSERT_TRUE(built.ok()) << built.status().message();
    FederationRouter& router = *built.value().router;
    for (const DecodeCase& row : kDecodeCases) {
      SCOPED_TRACE(row.request);
      const std::uint64_t errors = router.AggregateStats().command_errors;
      const JsonValue reply =
          router.Execute(JsonValue::Parse(row.request).value());
      if (router.shard_count() == 1 || !reply.GetBool("ok", false)) {
        EXPECT_EQ(reply.Dump(), row.reply);
      }
      EXPECT_EQ(router.AggregateStats().command_errors - errors, row.errors);
      if (row.gpus_per_worker == 0) {
        continue;
      }
      ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
      JsonValue query = Cmd("query_job");
      query.Set("job", JsonValue::MakeNumber(reply.GetDouble("job")));
      const JsonValue job = router.Execute(query);
      EXPECT_EQ(job.GetDouble("gpus_per_worker"), row.gpus_per_worker);
      EXPECT_EQ(job.GetDouble("min_workers"), row.min_workers);
      EXPECT_EQ(job.GetDouble("max_workers"), row.max_workers);
    }
    for (auto& service : built.value().services) {
      service->Stop();
    }
  }
}

TEST(Service, CancelPendingAndRunningJobs) {
  FederationSet fleet = OneEngineFleet(SmallServiceOptions());
  FederationRouter& router = *fleet.router;
  SchedulerService& service = *fleet.services[0];

  // Job 0 runs (cancelled mid-flight); job 1 is cancelled at its submit
  // instant, before any scheduler tick sees it.
  ASSERT_TRUE(router.Execute(SubmitCmd(0.0, /*total_work=*/36000.0)).GetBool("ok"));
  ASSERT_TRUE(router.Execute(SubmitCmd(0.0, /*total_work=*/36000.0)).GetBool("ok"));

  JsonValue cancel1 = Cmd("cancel");
  cancel1.Set("job", JsonValue::MakeNumber(1));
  cancel1.Set("at", JsonValue::MakeNumber(0.0));
  ASSERT_TRUE(router.Execute(cancel1).GetBool("ok"));

  JsonValue cancel0 = Cmd("cancel");
  cancel0.Set("job", JsonValue::MakeNumber(0));
  cancel0.Set("at", JsonValue::MakeNumber(3600.0));
  ASSERT_TRUE(router.Execute(cancel0).GetBool("ok"));

  // Cancelling a terminal job is a FailedPrecondition, not a crash.
  JsonValue again = Cmd("cancel");
  again.Set("job", JsonValue::MakeNumber(0));
  EXPECT_EQ(router.Execute(again).GetString("code"), "failed_precondition");

  JsonValue reply = router.Execute(Cmd("cluster_stats"));
  EXPECT_DOUBLE_EQ(reply.Find("jobs")->GetDouble("cancelled"), 2.0);
  // Cancellation released every GPU.
  EXPECT_DOUBLE_EQ(reply.Find("cluster")->Find("training")->GetDouble("used_gpus"),
                   0.0);
  EXPECT_EQ(service.stats().jobs_cancelled, 2u);
  service.Stop();
}

TEST(Service, ShutdownCommandStopsService) {
  FederationSet fleet = OneEngineFleet(SmallServiceOptions());
  FederationRouter& router = *fleet.router;
  SchedulerService& service = *fleet.services[0];
  const JsonValue reply = router.Execute(Cmd("shutdown"));
  EXPECT_TRUE(reply.GetBool("ok"));
  EXPECT_TRUE(reply.GetBool("stopping"));
  EXPECT_TRUE(service.stopped());
  // Post-shutdown commands are refused immediately.
  EXPECT_EQ(router.Execute(Cmd("ping")).GetString("code"), "unavailable");
  service.Stop();
  service.Stop();  // idempotent
}

TEST(Service, BackpressureRejectsWhenQueueFull) {
  ServiceOptions options = SmallServiceOptions();
  options.queue_capacity = 1;
  FederationSet fleet = OneEngineFleet(options);
  FederationRouter& router = *fleet.router;
  SchedulerService& service = *fleet.services[0];
  const std::string overloaded = OverloadedReply().Dump();
  ASSERT_NE(overloaded.find("\"retry_after_ms\":50"), std::string::npos) << overloaded;

  // Hammer the capacity-1 queue from many threads until a rejection is
  // observed; with 16 concurrent submitters this lands in the first round.
  // Execute skips the front end's shed, so each rejection is Enqueue's.
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> other_document{0};
  for (int round = 0; round < 50 && rejected.load() == 0; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 8; ++i) {
          attempts.fetch_add(1);
          const JsonValue reply = router.Execute(SubmitCmd(0.0));
          if (reply.GetBool("ok")) {
            ok_count.fetch_add(1);
          } else if (reply.GetString("code") == "overloaded") {
            rejected.fetch_add(1);
            if (reply.Dump() != overloaded) {
              other_document.fetch_add(1);
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
  EXPECT_EQ(other_document.load(), 0u);
  EXPECT_EQ(stats.rejected_overload, rejected.load());
  EXPECT_EQ(stats.jobs_submitted, ok_count.load());
  // Every attempt either succeeded or was explicitly rejected — no silent
  // drops, no blocking.
  EXPECT_EQ(ok_count.load() + rejected.load(), attempts.load());
  service.Stop();

  // The event loop sheds on the saturation hint: frames without a seq get
  // the canned payload, frames with one a fresh reply echoing it. Both, and
  // Enqueue's rejections among them, answer the same document.
  FederationSet flooded = OneEngineFleet(options);
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_svc_overload_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 1;
  EventLoop server(flooded.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    JsonValue request = SubmitCmd(0.0);
    if (i % 2 == 1) {
      request.Set("seq", JsonValue::MakeNumber(i));
    }
    ASSERT_TRUE(WriteFrame(fd.value(), request.Dump()).ok());
  }
  int shed_plain = 0;
  int shed_seq = 0;
  for (int i = 0; i < kFrames; ++i) {
    StatusOr<std::string> reply = ReadFrame(fd.value());
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    if (reply.value().find("\"overloaded\"") == std::string::npos) {
      continue;
    }
    JsonValue expected = OverloadedReply();
    if (i % 2 == 1) {
      EchoSeq(static_cast<double>(i), expected);
      ++shed_seq;
    } else {
      ++shed_plain;
    }
    EXPECT_EQ(reply.value(), expected.Dump()) << "frame " << i;
  }
  ::close(fd.value());
  server.Stop();
  flooded.services[0]->Stop();
  EXPECT_GT(shed_plain, 0);
  EXPECT_GT(shed_seq, 0);
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

// Malformed frames are answered by the event loop itself: an unparseable
// payload and a payload that is not an object each get invalid_argument,
// and each counts as a command error.
TEST(Service, MalformedFramesAreCountedErrors) {
  FederationSet fleet = OneEngineFleet(SmallServiceOptions());
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_svc_frames_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 1;
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  ASSERT_TRUE(WriteFrame(fd.value(), "{nope").ok());
  StatusOr<JsonValue> parsed = JsonValue::Parse(ReadFrame(fd.value()).value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("code"), "invalid_argument");
  EXPECT_EQ(parsed.value().GetString("error").rfind("bad request: ", 0), 0u)
      << parsed.value().Dump();
  ASSERT_TRUE(WriteFrame(fd.value(), "[1,2,3]").ok());
  parsed = JsonValue::Parse(ReadFrame(fd.value()).value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("code"), "invalid_argument");
  EXPECT_EQ(parsed.value().GetString("error"), "request must be a JSON object");
  ::close(fd.value());
  server.Stop();
  EXPECT_EQ(fleet.services[0]->stats().command_errors, 2u);
}

// One transcript entry: the request, then the reply with what varies
// between runs masked (uptime, the scratch directory `dir`), and a
// stats_prom document as its own "| "-prefixed lines with every sample
// value masked.
std::string TranscriptEntry(const std::string& request, JsonValue reply,
                            const std::string& dir) {
  if (reply.Find("uptime_s") != nullptr) {
    reply.Replace("uptime_s", JsonValue::MakeNumber(0));
  }
  std::string document;
  if (reply.Find("text") != nullptr) {
    std::istringstream lines(reply.GetString("text"));
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty() && line[0] != '#') {
        line = line.substr(0, line.rfind(' ')) + " _";
      }
      document += "| " + line + '\n';
    }
    reply.Replace("text", JsonValue::MakeString("<document>"));
  }
  std::string entry =
      ">> " + request + "\n<< " + reply.Dump() + "\n" + document;
  for (std::size_t at = entry.find(dir); at != std::string::npos;
       at = entry.find(dir, at)) {
    entry.replace(at, dir.size(), "<dir>");
  }
  return entry;
}

std::vector<std::string> PinnedScript(const std::string& dir) {
  return {
      R"({"cmd":"ping","seq":1})",
      R"({"cmd":"submit","at":0,"gpus_per_worker":1,"min_workers":1,"max_workers":4,"total_work":7200,"fungible":true,"seq":2})",
      R"({"cmd":"submit","at":60,"gpus_per_worker":1,"min_workers":1,"max_workers":1,"total_work":36000000})",
      R"({"cmd":"cluster_stats","seq":3})",
      R"({"cmd":"advance","to":3600})",
      R"({"cmd":"query_job","job":0})",
      R"({"cmd":"query_job","job":99,"seq":4})",
      R"({"cmd":"query_job","job":-1})",
      R"({"cmd":"cancel","job":1,"seq":5})",
      R"({"cmd":"cancel","job":1})",
      R"({"cmd":"no_such_command","seq":6})",
      R"({"cmd":"federation_stats"})",
      R"({"cmd":"snapshot","path":"/nonexistent-dir/engine.snap","seq":9})",
      R"({"cmd":"advance","to":3600})",
      R"({"cmd":"metrics","seq":7})",
      R"({"cmd":"stats_prom"})",
      R"({"cmd":"trace_dump","path":")" + dir + R"(/flight.json"})",
      R"({"cmd":"trace_dump","path":"/nonexistent-dir/flight.json"})",
      R"({"cmd":"trace_dump"})",
      R"({"cmd":"drain"})",
      R"({"cmd":"snapshot","path":")" + dir + R"(/engine.snap"})",
      R"({"cmd":"snapshot"})",
      R"({"cmd":"advance"})",
      R"({"cmd":"shutdown","seq":8})",
      R"({"cmd":"ping"})",
      R"({"cmd":"submit","at":0,"total_work":7200})",
  };
}

// Every read and engine command of a one-engine daemon, error replies
// included, keeps the bytes it had when a plain SchedulerService answered
// it: tests/golden/one_engine_replies.golden is that transcript with the
// end-of-time additions (`"ended":false` on ping and cluster_stats, the
// lyra_engine_ended family in stats_prom), with each fact in one home:
// `metrics` is an unknown command, and stats_prom carries its command_log
// and metrics_time as lyra_svc_command_log and
// lyra_engine_metrics_time_seconds. A snapshot that cannot be written is
// one of the exchanges.
TEST(Service, OneEngineRepliesKeepTheirBytes) {
  const std::string dir = "/tmp/lyra_svc_pin_" + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  FederationSet fleet = OneEngineFleet(SmallServiceOptions());
  std::string transcript;
  for (const std::string& text : PinnedScript(dir)) {
    if (text == R"({"cmd":"advance","to":3600})") {
      // Past the registry refresh interval: the advance's publish copies
      // the registry, so stats_prom lists its families at a fixed state.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    transcript += TranscriptEntry(
        text, fleet.router->Execute(JsonValue::Parse(text).value()), dir);
  }
  std::remove((dir + "/flight.json").c_str());
  std::remove((dir + "/engine.snap").c_str());
  ::rmdir(dir.c_str());
  const StatusOr<std::string> golden =
      ReadFile(LYRA_GOLDEN_DIR "/one_engine_replies.golden");
  ASSERT_TRUE(golden.ok()) << golden.status().message();
  EXPECT_EQ(transcript, golden.value());
}

// An online engine with a one-day horizon ends at day 8 (the simulator's
// 7-day drain past the metering window).
ServiceOptions ShortHorizonOptions() {
  ServiceOptions options = SmallServiceOptions();
  options.engine.horizon_days = 1.0;
  return options;
}
constexpr double kShortHorizonEnd = 8 * kDay;

JsonValue AdvanceTo(double to) {
  JsonValue advance = Cmd("advance");
  advance.Set("to", JsonValue::MakeNumber(to));
  return advance;
}

// Ends the engine: a job that outlives the end keeps events flowing, and an
// advance past the end steps into it.
void EndEngine(FederationRouter& router) {
  ASSERT_TRUE(router.Execute(SubmitCmd(0.0, /*total_work=*/1e12)).GetBool("ok"));
  const JsonValue advanced = router.Execute(AdvanceTo(kShortHorizonEnd + kDay));
  ASSERT_TRUE(advanced.GetBool("ok")) << advanced.Dump();
}

// Once an engine passes its end of time it schedules nothing more, so it
// must say so instead of accepting work it will never run: submit, advance
// and drain fail naming the end, and ping, cluster_stats and /metrics
// report it.
TEST(Service, EndedEngineRefusesWorkAndSaysSo) {
  FederationSet fleet = OneEngineFleet(ShortHorizonOptions());
  FederationRouter& router = *fleet.router;
  EXPECT_FALSE(router.Execute(Cmd("ping")).GetBool("ended", true));
  // A submit stamped past the end fails even before the engine gets there.
  JsonValue late = router.Execute(SubmitCmd(kShortHorizonEnd + 1.0));
  EXPECT_EQ(late.GetString("code"), "failed_precondition") << late.Dump();
  EXPECT_EQ(late.GetString("error"),
            "submit at t=691201 is past the engine's end of time (t=691200)");

  EndEngine(router);
  for (const JsonValue& command :
       {SubmitCmd(0.0), AdvanceTo(kShortHorizonEnd + 2 * kDay), Cmd("drain")}) {
    const JsonValue reply = router.Execute(command);
    EXPECT_FALSE(reply.GetBool("ok", true)) << reply.Dump();
    EXPECT_EQ(reply.GetString("code"), "failed_precondition") << reply.Dump();
    EXPECT_EQ(reply.GetString("error"),
              command.GetString("cmd") +
                  " refused: the engine passed its end of time (t=691200)");
  }
  EXPECT_TRUE(router.Execute(Cmd("ping")).GetBool("ended", false));
  const JsonValue stats = router.Execute(Cmd("cluster_stats"));
  EXPECT_TRUE(stats.GetBool("ended", false)) << stats.Dump();
  EXPECT_DOUBLE_EQ(stats.Find("jobs")->GetDouble("total"), 1.0);
  StatusOr<PromScrape> scrape = ParsePrometheus(
      router.Execute(Cmd("stats_prom")).GetString("text", ""));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  EXPECT_EQ(scrape.value().Value("lyra_engine_ended", {}, -1.0), 1.0);
  // Cancel still works: it frees what the ended engine holds.
  JsonValue cancel = Cmd("cancel");
  cancel.Set("job", JsonValue::MakeNumber(0));
  EXPECT_TRUE(router.Execute(cancel).GetBool("ok")) << router.Execute(cancel).Dump();
}

// `ended` is replayed state: a snapshot of an ended engine restores ended,
// whether a logged advance or an unlogged auto-advance free run passed the
// end, and the restored engine answers cluster_stats byte for byte.
TEST(Service, EndedEngineStaysEndedAcrossRestore) {
  for (const bool auto_advance : {false, true}) {
    SCOPED_TRACE(auto_advance ? "auto-advance" : "advance");
    ServiceOptions options = ShortHorizonOptions();
    options.auto_advance = auto_advance;
    FederationSet fleet = OneEngineFleet(options);
    FederationRouter& router = *fleet.router;
    if (auto_advance) {
      ASSERT_TRUE(router.Execute(SubmitCmd(0.0, 1e12)).GetBool("ok"));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!router.Execute(Cmd("ping")).GetBool("ended", false)) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    } else {
      EndEngine(router);
    }
    const std::string before = router.Execute(Cmd("cluster_stats")).Dump();
    const std::string path = "/tmp/lyra_svc_ended_" +
                             std::to_string(::getpid()) + ".snap";
    JsonValue snap = Cmd("snapshot");
    snap.Set("path", JsonValue::MakeString(path));
    ASSERT_TRUE(router.Execute(snap).GetBool("ok"));
    fleet.services[0]->Stop();

    // Restored without auto-advance: only the replay may pass the end.
    StatusOr<FederationSet> restored =
        RestoreFederation(ShortHorizonOptions(), path, [](int) {
          return std::make_unique<VirtualTimeDriver>();
        });
    std::remove(path.c_str());
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    FederationRouter& again = *restored.value().router;
    EXPECT_TRUE(again.Execute(Cmd("ping")).GetBool("ended", false));
    EXPECT_EQ(again.Execute(Cmd("cluster_stats")).Dump(), before);
    EXPECT_EQ(again.Execute(SubmitCmd(0.0)).GetString("code"),
              "failed_precondition");
  }
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

// --- The daemon against the batch run ---------------------------------------
//
// Lyra §7.2 checks its simulator against its testbed; this checks the daemon
// against the simulator. A synthetic trace's jobs go to a one-engine daemon
// (virtual time, no auto-advance, horizon = the trace's days) as submit
// frames, each carrying every JobSpec field and "at" = its submit time, and
// a final drain. The daemon's decision log must equal, record for record,
// Simulator::Run's on the same trace through BuildEngine.

std::string SubmitFrame(const JobSpec& spec) {
  JsonValue request = Cmd("submit");
  request.Set("at", JsonValue::MakeNumber(spec.submit_time));
  request.Set("gpus_per_worker", JsonValue::MakeNumber(spec.gpus_per_worker));
  request.Set("min_workers", JsonValue::MakeNumber(spec.min_workers));
  request.Set("max_workers", JsonValue::MakeNumber(spec.max_workers));
  request.Set("requested_workers", JsonValue::MakeNumber(spec.requested_workers));
  request.Set("fungible", JsonValue::MakeBool(spec.fungible));
  request.Set("heterogeneous", JsonValue::MakeBool(spec.heterogeneous));
  request.Set("checkpointing", JsonValue::MakeBool(spec.checkpointing));
  request.Set("model", JsonValue::MakeString(ModelFamilyName(spec.model)));
  request.Set("total_work", JsonValue::MakeNumber(spec.total_work));
  return request.Dump();
}

// `lyra_sim --scale=0.05 --days=2 --load=1.5 --elastic=0.5` with `engine`'s
// switches, run both ways; the batch run writes `records` decisions.
void ExpectDaemonMatchesBatchRun(const EngineConfig& engine, std::size_t records) {
  TraceRecipe recipe;
  recipe.days = 2.0;
  recipe.offered_load = 1.5;
  recipe.elastic_job_population = 0.5;
  recipe.seed = engine.seed;
  const Trace trace = MakeSyntheticTrace(
      recipe, PaperClusterAt(engine.scale).value().training_servers);
  ASSERT_GT(trace.jobs.size(), 500u);

  SimulatorOptions batch_options;
  batch_options.record_decisions = true;
  StatusOr<Engine> batch = BuildEngine(engine, trace, batch_options);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  batch.value().sim->Run();
  const std::vector<DecisionRecord>& want = batch.value().sim->decision_log().records();
  ASSERT_EQ(want.size(), records);

  ServiceOptions options;
  options.engine = engine;
  options.engine.horizon_days = recipe.days;
  options.auto_advance = false;
  StatusOr<FederationSet> daemon =
      BuildFederation(options, SingleCluster(), [](int) -> std::unique_ptr<TimeDriver> {
        return std::make_unique<VirtualTimeDriver>();
      });
  ASSERT_TRUE(daemon.ok()) << daemon.status().message();
  FederationRouter& router = *daemon.value().router;
  for (const JobSpec& spec : trace.jobs) {
    StatusOr<JsonValue> frame =
        JsonValue::Parse(SubmitFrame(spec), JsonParseLimits::Untrusted());
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    const JsonValue reply = router.Execute(frame.value());
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ASSERT_EQ(reply.GetDouble("job", -1.0), static_cast<double>(spec.id.value));
  }
  ASSERT_TRUE(router.Execute(Cmd("drain")).GetBool("ok"));
  daemon.value().services[0]->Stop();

  const std::vector<DecisionRecord>& got =
      daemon.value().services[0]->simulator().decision_log().records();
  const std::size_t common = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_TRUE(got[i] == want[i])
        << "record " << i << " of " << want.size() << ": daemon t=" << got[i].time
        << " kind=" << static_cast<int>(got[i].kind) << " subject=" << got[i].subject
        << " detail=" << got[i].detail << ", batch t=" << want[i].time
        << " kind=" << static_cast<int>(want[i].kind) << " subject=" << want[i].subject
        << " detail=" << want[i].detail;
  }
  EXPECT_EQ(got.size(), want.size());
}

TEST(Service, DaemonMatchesBatchRunLoaningOn) {
  EngineConfig engine;
  engine.scale = 0.05;
  ExpectDaemonMatchesBatchRun(engine, 3957);
}

TEST(Service, DaemonMatchesBatchRunLoaningOff) {
  EngineConfig engine;
  engine.scale = 0.05;
  engine.loaning = false;
  ExpectDaemonMatchesBatchRun(engine, 2788);
}

TEST(Service, DaemonMatchesBatchRunFaultsOn) {
  EngineConfig engine;
  engine.scale = 0.05;
  engine.faults = true;
  ExpectDaemonMatchesBatchRun(engine, 3887);
}

// A scale with no paper cluster (NaN, negative, zero, or too large for an
// int server count) is refused before any engine starts: by a daemon built
// with it, and by a restore whose sealed LYRASNAP image carries it in its
// config.
TEST(Service, NonsenseScaleIsRefusedBeforeAnEngineStarts) {
  const auto virtual_driver = [](int) -> std::unique_ptr<TimeDriver> {
    return std::make_unique<VirtualTimeDriver>();
  };
  for (const double scale : {std::nan(""), -1.0, 0.0, 1e10}) {
    ServiceOptions options;
    options.engine.scale = scale;
    options.auto_advance = false;
    const StatusOr<FederationSet> built =
        BuildFederation(options, SingleCluster(), virtual_driver);
    ASSERT_FALSE(built.ok()) << scale;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().message().find("scale must be positive"),
              std::string::npos)
        << built.status().message();
  }

  ServiceSnapshot sealed;
  sealed.config.scale = 1e10;
  sealed.commands = {{CommandKind::kAdvance, 600.0, {}, -1}};
  sealed.horizon = 600.0;
  const std::string path =
      "/tmp/lyra_svc_test_" + std::to_string(::getpid()) + "_huge_scale";
  FedSnapshot file;
  file.clusters = {{"train0", 1, EncodeSnapshot(sealed)}};
  ASSERT_TRUE(WriteFileAtomic(path, EncodeFedSnapshot(file)).ok());
  ServiceOptions options;
  options.auto_advance = false;
  const StatusOr<FederationSet> restored =
      RestoreFederation(options, path, virtual_driver);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("got 1e+10"), std::string::npos)
      << restored.status().message();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lyra::svc
