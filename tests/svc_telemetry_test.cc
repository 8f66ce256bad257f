// Tests for the service telemetry plane (DESIGN.md §9): the Prometheus
// exposition served over `GET /metrics` (HTTP sniffed off the framed
// listener) and the `stats_prom` wire command, its lint and registry rows
// for the plain, sharded and federated routers, histogram reassembly from a
// scrape (malformed scrapes refused), the flight-recorder trace dump, the enriched ping reply, and
// scrape thread-safety under write load (the TSan leg runs this binary).
#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/common/json.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/prom.h"
#include "src/svc/service.h"
#include "src/svc/telemetry.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"
#include "tests/prom_lint.h"

namespace lyra::svc {
namespace {

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue SubmitCmd() {
  JsonValue request = Cmd("submit");
  request.Set("at", JsonValue::MakeNumber(0.0));
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

// Daemon-in-a-test: service + event loop on a private Unix socket and an
// ephemeral TCP port.
class TelemetryEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    loop_options_.unix_path = "/tmp/lyra_telemetry_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(counter_++) + ".sock";
    loop_options_.tcp_port = 0;
    loop_options_.io_threads = 2;
    service_ = std::make_unique<SchedulerService>(
        SmallServiceOptions(), std::make_unique<VirtualTimeDriver>());
    ASSERT_TRUE(service_->Start().ok());
    router_ = std::make_unique<FederationRouter>(
        std::vector<SchedulerService*>{service_.get()}, SingleCluster());
    loop_ = std::make_unique<EventLoop>(service_.get(), loop_options_);
    ASSERT_TRUE(loop_->Start().ok());
    ASSERT_GT(loop_->tcp_port(), 0);
  }

  void TearDown() override {
    service_->Stop();
    loop_->Stop();
  }

  // Sends `count` submits plus one ping through a real connection so the io
  // threads record latency samples (Execute() bypasses the front end).
  void DriveTraffic(int count) {
    StatusOr<int> fd = ConnectUnix(loop_options_.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.status().message();
    std::string burst;
    for (int i = 0; i < count; ++i) {
      AppendFrame(SubmitCmd().Dump(), burst);
    }
    AppendFrame(Cmd("ping").Dump(), burst);
    ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());
    for (int i = 0; i < count + 1; ++i) {
      StatusOr<std::string> reply = ReadFrame(fd.value());
      ASSERT_TRUE(reply.ok()) << reply.status().message();
    }
    ::close(fd.value());
  }

  // Raw HTTP/1.1 GET against the framed TCP listener (the protocol sniff).
  StatusOr<std::string> HttpGet(const std::string& target,
                                std::string* status_line,
                                std::string* headers) {
    StatusOr<int> fd = ConnectTcp("127.0.0.1", loop_->tcp_port());
    if (!fd.ok()) {
      return fd.status();
    }
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n";
    const Status sent =
        WriteAllBytes(fd.value(), request.data(), request.size());
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
      return Status::DataLoss("no header terminator in: " + response);
    }
    *status_line = response.substr(0, response.find("\r\n"));
    *headers = response.substr(0, header_end);
    return response.substr(header_end + 4);
  }

  EventLoopOptions loop_options_;
  std::unique_ptr<SchedulerService> service_;
  std::unique_ptr<FederationRouter> router_;  // the tests' own front end
  std::unique_ptr<EventLoop> loop_;
  static int counter_;
};

int TelemetryEndToEnd::counter_ = 0;

TEST_F(TelemetryEndToEnd, HttpMetricsServesLintCleanTypedExposition) {
  DriveTraffic(/*count=*/64);

  std::string status_line;
  std::string headers;
  StatusOr<std::string> body = HttpGet("/metrics", &status_line, &headers);
  ASSERT_TRUE(body.ok()) << body.status().message();
  EXPECT_NE(status_line.find(" 200 "), std::string::npos) << status_line;
  EXPECT_NE(headers.find("text/plain; version=0.0.4"), std::string::npos);

  ExpectLintClean(body.value(), "GET /metrics");
  StatusOr<PromScrape> parsed = ParsePrometheus(body.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const PromScrape& scrape = parsed.value();

  // The families the scrape contract promises (CI greps the same list).
  for (const char* family :
       {"lyra_svc_request_duration_seconds", "lyra_svc_commands_applied_total",
        "lyra_svc_jobs_submitted_total", "lyra_svc_queue_depth",
        "lyra_svc_io_frames_total", "lyra_svc_uptime_seconds",
        "lyra_svc_info", "lyra_engine_jobs", "lyra_engine_pool_gpus",
        "lyra_engine_sim_events_scheduler_tick_total"}) {
    EXPECT_TRUE(scrape.types.count(family)) << "missing family " << family;
  }

  // The traffic we just drove is visible: 64 accepted submits and a submit
  // duration histogram carrying 64 samples.
  EXPECT_DOUBLE_EQ(scrape.Value("lyra_svc_jobs_submitted_total"), 64.0);
  StatusOr<obs::Histogram> submit_hist = ExtractHistogram(
      scrape, "lyra_svc_request_duration_seconds", {{"cmd", "submit"}});
  ASSERT_TRUE(submit_hist.ok()) << submit_hist.status().message();
  EXPECT_EQ(submit_hist.value().count(), 64u);
  EXPECT_GT(submit_hist.value().Quantile(0.99), 0.0);

  // An unknown path 404s without disturbing the daemon.
  std::string not_found_status;
  std::string ignored;
  StatusOr<std::string> missing =
      HttpGet("/not-a-page", &not_found_status, &ignored);
  ASSERT_TRUE(missing.ok()) << missing.status().message();
  EXPECT_NE(not_found_status.find(" 404 "), std::string::npos);
}

// The registry rows of `scrape` whose labels are exactly `labels`: each
// registry counter's value and each registry histogram's count, by sample
// name.
std::map<std::string, double> RegistryRows(
    const PromScrape& scrape, const std::map<std::string, std::string>& labels) {
  std::map<std::string, double> rows;
  for (const auto& [family, help] : scrape.helps) {
    std::string name;
    if (help.rfind("Engine metrics registry counter ", 0) == 0) {
      name = family;
    } else if (help.rfind("Engine metrics registry histogram ", 0) == 0) {
      name = family + "_count";
    } else {
      continue;
    }
    for (const PromSample& sample : scrape.samples) {
      if (sample.name == name && sample.labels == labels) {
        rows[name] = sample.value;
        break;
      }
    }
  }
  return rows;
}

// stats_prom over the router, for the plain, --federation=0x4 and
// --federation=2x2 fleets: the document passes the exposition lint, each
// engine's registry rows (shard="k" in a fleet) equal that engine's own
// one-engine exposition, and the unlabelled rows are their sum.
TEST(TelemetryTopologies, EveryRouterExpositionIsLintCleanAndMatchesMetrics) {
  const std::pair<const char*, std::vector<ClusterSpec>> topologies[] = {
      {"plain", SingleCluster()},
      {"--federation=0x4", ParseFederationSpec("0x4").value()},
      {"--federation=2x2", ParseFederationSpec("2x2").value()}};
  for (const auto& [topology, clusters] : topologies) {
    SCOPED_TRACE(topology);
    StatusOr<FederationSet> built =
        BuildFederation(SmallServiceOptions(), clusters, [](int) {
          return std::make_unique<VirtualTimeDriver>();
        });
    ASSERT_TRUE(built.ok()) << built.status().message();
    FederationRouter& router = *built.value().router;
    for (int i = 0; i < 12; ++i) {
      JsonValue submit = SubmitCmd();
      submit.Set("key", JsonValue::MakeString("tenant-" + std::to_string(i)));
      ASSERT_TRUE(router.Execute(submit).GetBool("ok"));
    }
    // Past the registry refresh interval, so the advance's publish copies
    // every engine's registry after the submits.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    JsonValue advance = Cmd("advance");
    advance.Set("to", JsonValue::MakeNumber(3600.0));
    ASSERT_TRUE(router.Execute(advance).GetBool("ok"));

    const JsonValue prom = router.Execute(Cmd("stats_prom"));
    ASSERT_TRUE(prom.GetBool("ok")) << prom.Dump();
    const std::string text = prom.GetString("text", "");
    ExpectLintClean(text, topology);
    StatusOr<PromScrape> scrape = ParsePrometheus(text);
    ASSERT_TRUE(scrape.ok()) << scrape.status().message();
    const int engines = router.shard_count();
    std::map<std::string, double> summed;
    for (int k = 0; k < engines; ++k) {
      StatusOr<PromScrape> own =
          ParsePrometheus(RenderPrometheus(*router.shard(k)));
      ASSERT_TRUE(own.ok()) << own.status().message();
      const std::map<std::string, double> rows = RegistryRows(own.value(), {});
      ASSERT_FALSE(rows.empty()) << "engine " << k;
      const std::map<std::string, std::string> shard =
          engines > 1 ? std::map<std::string, std::string>{{"shard", std::to_string(k)}}
                      : std::map<std::string, std::string>{};
      EXPECT_EQ(RegistryRows(scrape.value(), shard), rows) << "engine " << k;
      for (const auto& [name, value] : rows) {
        summed[name] += value;
      }
    }
    EXPECT_EQ(RegistryRows(scrape.value(), {}), summed);
    for (auto& service : built.value().services) {
      service->Stop();
    }
  }
}

// Phase two's knapsack work, counted inside the engine in solves and DP cell
// updates (no clock), reaches /metrics as lyra_engine_mckp_*.
TEST(TelemetryTopologies, MckpCountersReachExposition) {
  StatusOr<FederationSet> built =
      BuildFederation(SmallServiceOptions(), SingleCluster(), [](int) {
        return std::make_unique<VirtualTimeDriver>();
      });
  ASSERT_TRUE(built.ok()) << built.status().message();
  FederationRouter& router = *built.value().router;
  for (int i = 0; i < 12; ++i) {
    JsonValue submit = SubmitCmd();
    submit.Replace("at", JsonValue::MakeNumber(60.0 * i));
    submit.Replace("max_workers", JsonValue::MakeNumber(1 + i % 4));
    ASSERT_TRUE(router.Execute(submit).GetBool("ok"));
  }
  // Past the registry refresh interval, so the advance's publish copies the
  // registry after the scheduling rounds.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  JsonValue advance = Cmd("advance");
  advance.Set("to", JsonValue::MakeNumber(7200.0));
  ASSERT_TRUE(router.Execute(advance).GetBool("ok"));
  StatusOr<PromScrape> scrape =
      ParsePrometheus(router.Execute(Cmd("stats_prom")).GetString("text", ""));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  const double solves = scrape.value().Value("lyra_engine_mckp_solves_total");
  EXPECT_GT(solves, 0.0);
  EXPECT_GT(scrape.value().Value("lyra_engine_mckp_cells_total"), solves);
  for (auto& service : built.value().services) {
    service->Stop();
  }
}

// An engine that goes idle right after a publish that skipped the registry
// copy (one inside the refresh interval) publishes once more when the
// interval closes, so the burst's work reaches /metrics without another
// command: the registry copy's time reads the engine's, and its rows equal
// the engine's own registry.
TEST_F(TelemetryEndToEnd, IdleEngineRefreshesItsRegistryCopyOnce) {
  StatusOr<int> fd = ConnectUnix(loop_options_.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  const auto exchange = [&](const std::vector<JsonValue>& commands) {
    std::string burst;
    for (const JsonValue& command : commands) {
      AppendFrame(command.Dump(), burst);
    }
    ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());
    for (std::size_t i = 0; i < commands.size(); ++i) {
      StatusOr<std::string> reply = ReadFrame(fd.value());
      ASSERT_TRUE(reply.ok()) << reply.status().message();
      ASSERT_NE(reply.value().find("\"ok\":true"), std::string::npos) << reply.value();
    }
  };
  // Past the interval, the first submit's publish copies the registry; the
  // burst right after it lands inside the interval and skips the copy.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_NO_FATAL_FAILURE(exchange({SubmitCmd()}));
  JsonValue advance = Cmd("advance");
  advance.Set("to", JsonValue::MakeNumber(600.0));
  ASSERT_NO_FATAL_FAILURE(exchange({SubmitCmd(), advance}));
  ::close(fd.value());

  PromScrape scrape;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (;;) {
    std::string status_line;
    std::string headers;
    StatusOr<std::string> body = HttpGet("/metrics", &status_line, &headers);
    ASSERT_TRUE(body.ok()) << body.status().message();
    StatusOr<PromScrape> parsed = ParsePrometheus(body.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    scrape = std::move(parsed.value());
    if (scrape.Value("lyra_engine_metrics_time_seconds") == 600.0 ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(scrape.Value("lyra_engine_virtual_time_seconds"), 600.0);
  ASSERT_EQ(scrape.Value("lyra_engine_metrics_time_seconds"), 600.0);

  // The engine's own registry, read once its thread has stopped.
  service_->Stop();
  const obs::MetricsValues engine = service_->simulator().metrics().Values();
  std::map<std::string, double> want;
  const auto row = [](const std::string& metric, const char* suffix) {
    std::string name = "lyra_engine_";
    for (const char c : metric) {
      name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    return name + suffix;
  };
  for (const auto& [metric, value] : engine.counters) {
    want[row(metric, "_total")] = static_cast<double>(value);
  }
  for (const auto& [metric, histogram] : engine.histograms) {
    want[row(metric, "_count")] = static_cast<double>(histogram.count());
  }
  EXPECT_GT(want[row("sim.events.scheduler_tick", "_total")], 0.0);
  EXPECT_EQ(RegistryRows(scrape, {}), want);
}

TEST_F(TelemetryEndToEnd, StatsPromWireCommandCarriesTheSameDocument) {
  DriveTraffic(/*count=*/8);

  StatusOr<int> fd = ConnectUnix(loop_options_.unix_path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteFrame(fd.value(), Cmd("stats_prom").Dump()).ok());
  StatusOr<std::string> reply_text = ReadFrame(fd.value());
  ::close(fd.value());
  ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
  StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();

  StatusOr<PromScrape> scrape =
      ParsePrometheus(reply.value().GetString("text", ""));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  EXPECT_DOUBLE_EQ(scrape.value().Value("lyra_svc_jobs_submitted_total"), 8.0);
  // The scrape itself rode the read fast path, not the engine queue.
  EXPECT_DOUBLE_EQ(scrape.value().Value("lyra_svc_queue_depth"), 0.0);
}

TEST_F(TelemetryEndToEnd, TraceDumpWritesLoadableChromeTrace) {
  DriveTraffic(/*count=*/16);

  const std::string path = "/tmp/lyra_telemetry_trace_" +
                           std::to_string(::getpid()) + ".json";
  JsonValue request = Cmd("trace_dump");
  request.Set("path", JsonValue::MakeString(path));
  const JsonValue reply = router_->Execute(request);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_GE(reply.GetDouble("spans"), 17.0);  // 16 submits + ping

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StatusOr<JsonValue> trace = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  const JsonValue* events = trace.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Spans for the wire commands we sent are present as Complete events.
  bool saw_submit = false;
  for (const JsonValue& event : events->AsArray()) {
    if (event.GetString("ph", "") == "X" &&
        event.GetString("name", "") == "submit") {
      saw_submit = true;
      EXPECT_GE(event.GetDouble("dur", -1.0), 0.0);
    }
  }
  EXPECT_TRUE(saw_submit);
  std::remove(path.c_str());

  // A path the service cannot open is a clean error reply, not a crash.
  JsonValue bad = Cmd("trace_dump");
  bad.Set("path", JsonValue::MakeString("/nonexistent-dir/x.json"));
  EXPECT_FALSE(router_->Execute(bad).GetBool("ok"));
}

TEST_F(TelemetryEndToEnd, PingCarriesUptimeAppliedCountAndIdentity) {
  DriveTraffic(/*count=*/4);
  const JsonValue reply = router_->Execute(Cmd("ping"));
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_GE(reply.GetDouble("uptime_s", -1.0), 0.0);
  EXPECT_GE(reply.GetDouble("commands_applied", -1.0), 4.0);
  EXPECT_GE(reply.GetDouble("snapshot_seq", -1.0), 1.0);
  EXPECT_EQ(reply.GetString("scheduler", ""), "lyra");
  EXPECT_EQ(reply.GetString("reclaim", ""), "lyra");
  EXPECT_EQ(reply.GetString("driver", ""), "virtual");
}

// Scrapes hammer the telemetry shards while io threads are writing into
// them: single-writer relaxed atomics must keep this data-race-free (the
// TSan job runs this test) and every observed document must stay parseable.
TEST_F(TelemetryEndToEnd, ConcurrentScrapesUnderWriteLoadStayParseable) {
  std::thread traffic([this] {
    for (int round = 0; round < 4; ++round) {
      DriveTraffic(/*count=*/64);
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([this] {
      for (int i = 0; i < 20; ++i) {
        const JsonValue reply = router_->Execute(Cmd("stats_prom"));
        ASSERT_TRUE(reply.GetBool("ok"));
        const StatusOr<PromScrape> scrape =
            ParsePrometheus(reply.GetString("text", ""));
        ASSERT_TRUE(scrape.ok()) << scrape.status().message();
      }
    });
  }
  traffic.join();
  for (std::thread& scraper : scrapers) {
    scraper.join();
  }
  // After the dust settles the totals agree with the traffic driven.
  const JsonValue reply = router_->Execute(Cmd("stats_prom"));
  const StatusOr<PromScrape> scrape =
      ParsePrometheus(reply.GetString("text", ""));
  ASSERT_TRUE(scrape.ok());
  EXPECT_DOUBLE_EQ(scrape.value().Value("lyra_svc_jobs_submitted_total"),
                   256.0);
}

// Unit-level parser checks: malformed lines fail loudly, Find honors label
// subsets, and the log2 shard histogram reassembles exactly.
TEST(PromParser, MalformedLinesAreRejected) {
  EXPECT_FALSE(ParsePrometheus("not a metric line").ok());
  EXPECT_FALSE(ParsePrometheus("name{unclosed=\"x\" 1").ok());
  const StatusOr<PromScrape> ok = ParsePrometheus(
      "# HELP m help text\n# TYPE m counter\nm{a=\"b\"} 4\n\n");
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_DOUBLE_EQ(ok.value().Value("m", {{"a", "b"}}), 4.0);
  EXPECT_EQ(ok.value().Find("m", {{"a", "zzz"}}), nullptr);
  EXPECT_EQ(ok.value().helps.at("m"), "help text");
}

TEST(PromParser, HistogramRoundTripsThroughExposition) {
  Log2Histogram shard;
  shard.Record(900);          // ns
  shard.Record(12 * 1000);    // 12us
  shard.Record(3 * 1000000);  // 3ms
  const obs::Histogram original = shard.ToHistogram(1e-9);

  std::string text = "# HELP h x\n# TYPE h histogram\n";
  const std::vector<double>& bounds = original.upper_bounds();
  std::uint64_t cumulative = 0;
  char line[128];
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += original.bucket_counts()[i];
    std::snprintf(line, sizeof(line), "h_bucket{le=\"%.10g\"} %llu\n",
                  bounds[i], static_cast<unsigned long long>(cumulative));
    text += line;
  }
  cumulative += original.bucket_counts().back();
  std::snprintf(line, sizeof(line), "h_bucket{le=\"+Inf\"} %llu\nh_sum %g\nh_count %llu\n",
                static_cast<unsigned long long>(cumulative), original.sum(),
                static_cast<unsigned long long>(cumulative));
  text += line;

  const StatusOr<PromScrape> scrape = ParsePrometheus(text);
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  const StatusOr<obs::Histogram> round = ExtractHistogram(scrape.value(), "h");
  ASSERT_TRUE(round.ok()) << round.status().message();
  EXPECT_EQ(round.value().count(), original.count());
  EXPECT_EQ(round.value().bucket_counts(), original.bucket_counts());
  // Quantiles agree to within bucket interpolation of the same layout.
  EXPECT_NEAR(round.value().Quantile(0.5), original.Quantile(0.5),
              original.Quantile(0.5) * 0.5 + 1e-9);
}

// One histogram `h` scraped from exposition lines `buckets`.
StatusOr<obs::Histogram> ExtractH(const std::string& buckets) {
  const StatusOr<PromScrape> scrape =
      ParsePrometheus(buckets + "h_sum 3\nh_count 3\n");
  EXPECT_TRUE(scrape.ok()) << scrape.status().message();
  return ExtractHistogram(scrape.value(), "h");
}

// A scrape is untrusted bytes: ExtractHistogram refuses bounds out of
// order, a bound that is not a number, and a bucket value that is no count,
// rather than aborting in the Histogram constructor or casting a value
// outside std::uint64_t.
TEST(PromParser, MalformedScrapedHistogramsFailCleanly) {
  const std::string inf = "h_bucket{le=\"+Inf\"} 3\n";
  const StatusOr<obs::Histogram> fine =
      ExtractH("h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\n" + inf);
  ASSERT_TRUE(fine.ok()) << fine.status().message();
  EXPECT_EQ(fine.value().bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1}));

  for (const std::string& buckets :
       {"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n" + inf,
        "h_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 2\n" + inf,
        inf + "h_bucket{le=\"1\"} 1\n",
        "h_bucket{le=\"1\"} 1\n" + inf + inf,
        "h_bucket{le=\"x\"} 1\n" + inf,
        "h_bucket{le=\"1x\"} 1\n" + inf,
        "h_bucket{le=\"\"} 1\n" + inf,
        "h_bucket{le=\"nan\"} 1\n" + inf,
        "h_bucket{le=\"inf\"} 1\n" + inf,
        "h_bucket{le=\"1\"} -1\n" + inf,
        "h_bucket{le=\"1\"} 1.5\n" + inf,
        "h_bucket{le=\"1\"} 1e30\n" + inf,
        "h_bucket{le=\"1\"} 18446744073709551616\n" + inf,
        "h_bucket{le=\"1\"} nan\n" + inf,
        std::string("h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} +Inf\n")}) {
    const StatusOr<obs::Histogram> refused = ExtractH(buckets);
    ASSERT_FALSE(refused.ok()) << buckets;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << buckets;
  }
  EXPECT_EQ(ExtractH("h_bucket{le=\"1\"} 1\n").status().code(),
            StatusCode::kNotFound);
}

// Two scrapes whose bounds differ (a daemon restarted with another layout)
// make a fresh window instead of tripping Subtract's CHECK.
TEST(PromParser, WindowOverScrapesWithOtherBoundsIsFresh) {
  const std::string inf = "h_bucket{le=\"+Inf\"} 3\n";
  const StatusOr<obs::Histogram> now =
      ExtractH("h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\n" + inf);
  const StatusOr<obs::Histogram> other =
      ExtractH("h_bucket{le=\"1\"} 1\nh_bucket{le=\"4\"} 1\n" + inf);
  ASSERT_TRUE(now.ok()) << now.status().message();
  ASSERT_TRUE(other.ok()) << other.status().message();
  EXPECT_EQ(WindowSince(now.value(), other.value()).count(), 3u);
  EXPECT_EQ(WindowSince(now.value(), now.value()).count(), 0u);
}

}  // namespace
}  // namespace lyra::svc
