// Seeded byte-mutation fuzzers for the decoders that read untrusted wire
// bytes: FrameDecoder (length-prefixed frames, fed in arbitrary chunks),
// JsonValue::Parse under JsonParseLimits::Untrusted(),
// DecodeEngineCommand on whatever parses as an engine command, and the
// scrape decoder (ParsePrometheus, then ExtractHistogram), which lyra_top
// and lyra_loadgen feed with bytes off a socket, plus the HTTP sniff
// (EventLoop's GET /metrics path), driven over TCP, and the snapshot
// restore (RestoreFederation) on re-sealed LYRAFED payloads. They are
// self-contained: a fixed corpus of valid documents, a seeded mutator and a
// fixed iteration budget, so every ctest leg (ASan/UBSan included) runs them
// the same way. LYRA_FUZZ_ITERATIONS=<n> raises the budget of the decoder
// fuzzers for a long run; the restore fuzzer builds engines, so its budget
// stays fixed.
//
// They assert only that the decoders fail cleanly: a rejected input is an
// InvalidArgument Status, never a crash, a hang or an allocation past the
// limits; an accepted input is well formed (a frame within the payload cap,
// a document that survives Dump/Parse unchanged, a command of the kind its
// "cmd" names).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/prom.h"
#include "src/svc/service.h"
#include "src/svc/snapshot.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"
#include "tests/prom_lint.h"

namespace lyra::svc {
namespace {

int Iterations(int fallback) {
  if (const char* env = std::getenv("LYRA_FUZZ_ITERATIONS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return fallback;
}

// Valid wire commands: the corpus every mutation starts from.
std::vector<std::string> CommandCorpus() {
  std::vector<std::string> corpus;
  JsonValue submit = JsonValue::MakeObject();
  submit.Set("cmd", JsonValue::MakeString("submit"))
      .Set("at", JsonValue::MakeNumber(12.5))
      .Set("gpus_per_worker", JsonValue::MakeNumber(2))
      .Set("min_workers", JsonValue::MakeNumber(1))
      .Set("max_workers", JsonValue::MakeNumber(4))
      .Set("total_work", JsonValue::MakeNumber(36000.0))
      .Set("fungible", JsonValue::MakeBool(true))
      .Set("model", JsonValue::MakeString("resnet\t\"50\"\\u"))
      .Set("key", JsonValue::MakeString("tenant-\x01\x7f"));
  corpus.push_back(submit.Dump());

  JsonValue batch = JsonValue::MakeArray();
  JsonValue nested = JsonValue::MakeObject();
  nested.Set("ids", JsonValue::MakeArray()
                        .Append(JsonValue::MakeNumber(-1))
                        .Append(JsonValue::MakeNumber(1e300))
                        .Append(JsonValue::MakeNumber(-2.5e-300))
                        .Append(JsonValue::MakeNull()));
  nested.Set("deep", JsonValue::MakeObject().Set(
                         "a", JsonValue::MakeArray().Append(
                                  JsonValue::MakeObject().Set("b", JsonValue::MakeBool(false)))));
  batch.Append(nested).Append(JsonValue::MakeString(""));
  corpus.push_back(batch.Dump());

  corpus.push_back(R"({"cmd":"advance","to":3600})");
  corpus.push_back(
      R"({"cmd":"submit","model":"bert","min_workers":2,"max_workers":2147483647,)"
      R"("requested_workers":2,"checkpointing":true,"heterogeneous":false,"seq":9})");
  corpus.push_back(R"({"cmd":"cancel","job":9007199254740992,"at":0.5,"seq":-1})");
  corpus.push_back(R"({"cmd":"snapshot","path":"/tmp/x.snap","seq":1e308})");
  corpus.push_back(R"({"cmd":"drain"})");
  corpus.push_back(R"({"cmd":"migrate","job":3,"to":"train1"})");
  corpus.push_back(R"({"cmd":"query_job","job":9007199254740993})");
  corpus.push_back(R"(  [ true , false , null , "é😀" ]  )");
  return corpus;
}

// Applies 1-4 random edits: bit flips, truncation, insertion of random or
// structural bytes, overwriting a word with 0x00/0xff, or duplicating a slice
// (repeats keys, nests brackets, repeats frames).
std::string Mutate(Rng& rng, std::string data) {
  static constexpr char kStructural[] = "{}[]\",:\\0-.eE+ \x80\xff";
  const int edits = static_cast<int>(rng.UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const auto at =
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(data.size())));
    switch (rng.UniformInt(0, 5)) {
      case 0:
        if (at < data.size()) {
          data[at] = static_cast<char>(data[at] ^ (1 << rng.UniformInt(0, 7)));
        }
        break;
      case 1:
        data.resize(at);
        break;
      case 2:
        for (std::int64_t n = rng.UniformInt(1, 8); n > 0; --n) {
          data.insert(data.begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(rng.UniformInt(0, 255)));
        }
        break;
      case 3:
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(at),
                    kStructural[rng.UniformInt(0, sizeof(kStructural) - 2)]);
        break;
      case 4: {
        const char fill = rng.NextBernoulli(0.5) ? '\xff' : '\0';
        for (std::size_t i = at; i < data.size() && i < at + 4; ++i) {
          data[i] = fill;
        }
        break;
      }
      default: {
        const auto length = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(data.size() - at)));
        data.insert(at, data.substr(at, length));
        break;
      }
    }
  }
  return data;
}

// Accepted documents are well formed; rejected ones fail with
// InvalidArgument and a message.
void ExpectCleanParse(const std::string& text, int iteration) {
  const StatusOr<JsonValue> parsed = JsonValue::Parse(text, JsonParseLimits::Untrusted());
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << "iteration " << iteration;
    EXPECT_FALSE(parsed.status().message().empty()) << "iteration " << iteration;
    return;
  }
  const std::string dumped = parsed.value().Dump();
  const StatusOr<JsonValue> again = JsonValue::Parse(dumped, JsonParseLimits::Untrusted());
  ASSERT_TRUE(again.ok()) << "iteration " << iteration << ": " << dumped;
  EXPECT_EQ(again.value().Dump(), dumped) << "iteration " << iteration;
}

TEST(Fuzz, UntrustedJsonParseFailsCleanly) {
  const std::vector<std::string> corpus = CommandCorpus();
  for (const std::string& text : corpus) {
    ASSERT_TRUE(JsonValue::Parse(text, JsonParseLimits::Untrusted()).ok()) << text;
  }
  Rng rng(0x150f);
  const int iterations = Iterations(20000);
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string& seed = corpus[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    ExpectCleanParse(Mutate(rng, seed), iter);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(Fuzz, FrameDecoderFailsCleanly) {
  const std::vector<std::string> corpus = CommandCorpus();
  Rng rng(0xf4a3e);
  const int iterations = Iterations(5000);
  for (int iter = 0; iter < iterations; ++iter) {
    // A stream of a few valid frames, mutated as a whole, then fed in random
    // chunk sizes as a socket would deliver it.
    std::string stream;
    for (std::int64_t n = rng.UniformInt(1, 4); n > 0; --n) {
      AppendFrame(corpus[static_cast<std::size_t>(rng.UniformInt(
                      0, static_cast<std::int64_t>(corpus.size()) - 1))],
                  stream);
    }
    const bool intact = rng.NextBernoulli(0.1);
    if (!intact) {
      stream = Mutate(rng, stream);
    }
    FrameDecoder decoder;
    std::size_t fed = 0;
    std::size_t decoded = 0;  // frame bytes taken out, headers included
    std::vector<std::string> payloads;
    bool failed = false;
    while (fed < stream.size() && !failed) {
      const auto chunk = std::min<std::size_t>(
          stream.size() - fed, static_cast<std::size_t>(rng.UniformInt(1, 64)));
      decoder.Append(stream.data() + fed, chunk);
      fed += chunk;
      for (;;) {
        std::string payload;
        const StatusOr<bool> next = decoder.Next(&payload);
        if (!next.ok()) {
          EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument) << "iteration " << iter;
          failed = true;  // the stream is unrecoverable after a bad length
          break;
        }
        if (!next.value()) {
          break;
        }
        ASSERT_LE(payload.size(), kMaxFramePayload) << "iteration " << iter;
        decoded += 4 + payload.size();
        ExpectCleanParse(payload, iter);
        payloads.push_back(std::move(payload));
      }
      ASSERT_EQ(decoded + decoder.buffered(), fed) << "iteration " << iter;
    }
    if (intact) {
      // Chunking never changes what a valid stream decodes to.
      std::string reframed;
      for (const std::string& payload : payloads) {
        AppendFrame(payload, reframed);
      }
      EXPECT_EQ(reframed, stream) << "iteration " << iter;
      EXPECT_EQ(decoder.buffered(), 0u) << "iteration " << iter;
    }
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Every mutated document that parses as an engine command decodes to a
// command of the kind its "cmd" names, or fails with InvalidArgument and a
// message. migrate, which the router answers itself, always fails.
TEST(Fuzz, EngineCommandDecodeFailsCleanly) {
  const std::vector<std::string> corpus = CommandCorpus();
  Rng rng(0xdec0de);
  const int iterations = Iterations(20000);
  int decoded = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string& seed = corpus[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const std::string text = rng.NextBernoulli(0.1) ? seed : Mutate(rng, seed);
    const StatusOr<JsonValue> parsed =
        JsonValue::Parse(text, JsonParseLimits::Untrusted());
    if (!parsed.ok() || !parsed.value().is_object()) {
      continue;
    }
    const TelemetryCmd cmd =
        TelemetryCmdFromName(parsed.value().GetString("cmd"));
    if (!IsEngineCmd(cmd)) {
      continue;
    }
    const StatusOr<EngineCommand> command =
        DecodeEngineCommand(cmd, parsed.value());
    if (!command.ok()) {
      EXPECT_EQ(command.status().code(), StatusCode::kInvalidArgument)
          << "iteration " << iter << ": " << text;
      EXPECT_FALSE(command.status().message().empty()) << "iteration " << iter;
      continue;
    }
    ++decoded;
    EXPECT_NE(cmd, TelemetryCmd::kMigrate) << "iteration " << iter;
    EXPECT_EQ(command.value().cmd, cmd) << "iteration " << iter << ": " << text;
    if (cmd == TelemetryCmd::kSnapshot) {
      EXPECT_FALSE(command.value().path.empty()) << "iteration " << iter;
    }
  }
  EXPECT_GT(decoded, 0);
}

// The exposition of a 2x2 fleet after some work: every shape of family
// (unlabelled, per-command, per-thread, merged and shard="k" rows,
// histograms, the cluster join) appears in it.
std::string FleetExposition() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.auto_advance = false;
  StatusOr<FederationSet> built =
      BuildFederation(options, ParseFederationSpec("2x2").value(), [](int) {
        return std::make_unique<VirtualTimeDriver>();
      });
  EXPECT_TRUE(built.ok()) << built.status().message();
  FederationRouter& router = *built.value().router;
  for (int i = 0; i < 8; ++i) {
    const std::string kind = i % 2 == 0 ? "training" : "inference";
    const std::string submit =
        R"({"cmd":"submit","at":0,"total_work":7200,"kind":")" + kind + "\"}";
    EXPECT_TRUE(router.Execute(JsonValue::Parse(submit).value()).GetBool("ok"));
  }
  EXPECT_TRUE(
      router.Execute(JsonValue::Parse(R"({"cmd":"advance","to":3600})").value())
          .GetBool("ok"));
  const std::string text = RenderPrometheus(router);
  for (auto& service : built.value().services) {
    service->Stop();
  }
  return text;
}

// Every `_bucket` series of a scrape: family name and labels without `le`.
std::set<std::pair<std::string, std::map<std::string, std::string>>>
BucketSeries(const PromScrape& scrape) {
  std::set<std::pair<std::string, std::map<std::string, std::string>>> series;
  const std::string suffix = "_bucket";
  for (const PromSample& sample : scrape.samples) {
    const std::string& name = sample.name;
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      std::map<std::string, std::string> labels = sample.labels;
      labels.erase("le");
      series.emplace(name.substr(0, name.size() - suffix.size()),
                     std::move(labels));
    }
  }
  return series;
}

// A mutated exposition either fails to parse with InvalidArgument, or every
// histogram series in it reassembles into a well-formed histogram or fails
// with InvalidArgument / NotFound: never an abort, and never a value cast
// outside its type (the UBSan leg checks that).
TEST(Fuzz, PrometheusScrapeFailsCleanly) {
  const std::string corpus = FleetExposition();
  const StatusOr<PromScrape> intact = ParsePrometheus(corpus);
  ASSERT_TRUE(intact.ok()) << intact.status().message();
  const auto intact_series = BucketSeries(intact.value());
  ASSERT_GT(intact_series.size(), 10u);
  for (const auto& [family, labels] : intact_series) {
    EXPECT_TRUE(ExtractHistogram(intact.value(), family, labels).ok()) << family;
  }

  Rng rng(0x5c4a9e);
  const int iterations = Iterations(1000);
  int parsed = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const StatusOr<PromScrape> scrape = ParsePrometheus(Mutate(rng, corpus));
    if (!scrape.ok()) {
      EXPECT_EQ(scrape.status().code(), StatusCode::kInvalidArgument)
          << "iteration " << iter;
      EXPECT_FALSE(scrape.status().message().empty()) << "iteration " << iter;
      continue;
    }
    ++parsed;
    for (const auto& [family, labels] : BucketSeries(scrape.value())) {
      const StatusOr<obs::Histogram> histogram =
          ExtractHistogram(scrape.value(), family, labels);
      if (!histogram.ok()) {
        EXPECT_TRUE(histogram.status().code() == StatusCode::kInvalidArgument ||
                    histogram.status().code() == StatusCode::kNotFound)
            << "iteration " << iter << ": " << histogram.status().message();
        continue;
      }
      const obs::Histogram& h = histogram.value();
      EXPECT_EQ(h.bucket_counts().size(), h.upper_bounds().size() + 1)
          << "iteration " << iter;
      h.Quantile(0.99);
    }
  }
  EXPECT_GT(parsed, 0);
}

// Request heads for the HTTP sniff: scrapes with and without a version or a
// query string, and pages the loop does not serve.
std::vector<std::string> HttpCorpus() {
  return {
      "GET /metrics HTTP/1.1\r\nHost: lyra\r\nAccept: text/plain\r\nConnection: close\r\n\r\n",
      "GET /metrics?name[]=lyra_svc_info HTTP/1.0\r\n\r\n",
      "GET /metrics\r\n\r\n",
      "GET / HTTP/1.1\r\nUser-Agent: prometheus/2.45\r\n\r\n",
      "GET /metricsz HTTP/1.1\r\nHost: x\r\n\r\n",
  };
}

// Sends `head` on a fresh TCP connection and reads until the loop closes
// it. False when the read timed out: the loop neither answered nor closed.
bool HttpExchange(int port, const std::string& head, std::string* response) {
  StatusOr<int> fd = ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) {
    ADD_FAILURE() << fd.status().message();
    return false;
  }
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // A head the loop drops may reset the connection under the write.
  (void)WriteAllBytes(fd.value(), head.data(), head.size());
  response->clear();
  char buf[16 * 1024];
  bool closed = true;
  for (;;) {
    const ssize_t n = ::read(fd.value(), buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      closed = false;
    }
    if (n <= 0) {
      break;
    }
    response->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd.value());
  return closed;
}

// The whole response the loop owes a head it accepted: 200 and the
// exposition for a request line naming /metrics (alone, or followed by a
// space or a query string), 404 for anything else.
void ExpectHttpResponse(const std::string& head, const std::string& response, int iter) {
  const std::string line = head.substr(0, head.find("\r\n"));
  const bool metrics = line.rfind("GET /metrics", 0) == 0 &&
                       (line.size() == 12 || line[12] == ' ' || line[12] == '?');
  const std::string status = metrics ? "HTTP/1.1 200 OK\r\n" : "HTTP/1.1 404 Not Found\r\n";
  ASSERT_EQ(response.rfind(status, 0), 0u) << "iteration " << iter << ": " << response;
  const std::size_t header_end = response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos) << "iteration " << iter;
  const std::string length = "Content-Length: ";
  const std::size_t at = response.find(length);
  ASSERT_LT(at, header_end) << "iteration " << iter;
  EXPECT_EQ(std::stoul(response.substr(at + length.size())),
            response.size() - header_end - 4)
      << "iteration " << iter;
}

// Mutated request heads sent to a running loop over TCP. Each head starts
// with 'G', so the loop sniffs it as HTTP, and ends at its first blank line,
// so the loop reads all of it. A head within kMaxHttpHeader must get the
// 200 or 404 its request line calls for; a longer one may instead be closed
// unanswered. Nothing may crash, hang or wedge the loop: a framed ping on
// the same listener still answers after the run.
TEST(Fuzz, HttpRequestFailsCleanly) {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.auto_advance = false;
  SchedulerService service(options, std::make_unique<VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());
  EventLoopOptions loop_options;
  loop_options.tcp_port = 0;
  loop_options.io_threads = 1;
  EventLoop loop(&service, loop_options);
  ASSERT_TRUE(loop.Start().ok());

  const std::vector<std::string> corpus = HttpCorpus();
  Rng rng(0x4774);
  const int iterations = Iterations(300);
  int answered = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::string head = Mutate(rng, corpus[static_cast<std::size_t>(rng.UniformInt(
                                       0, static_cast<std::int64_t>(corpus.size()) - 1))]);
    if (head.empty()) {
      head = "G";
    }
    head[0] = 'G';
    if (rng.NextBernoulli(0.1)) {
      // A header line that carries the head past the cap.
      head += "\r\nX-Pad: " + std::string(kMaxHttpHeader, 'p');
    }
    const std::size_t blank = head.find("\r\n\r\n");
    head = blank == std::string::npos ? head + "\r\n\r\n" : head.substr(0, blank + 4);

    std::string response;
    ASSERT_TRUE(HttpExchange(loop.tcp_port(), head, &response))
        << "iteration " << iter << ": no answer and no close";
    if (head.size() > kMaxHttpHeader && response.empty()) {
      continue;  // dropped at the cap
    }
    ExpectHttpResponse(head, response, iter);
    if (HasFatalFailure()) {
      return;
    }
    ++answered;
  }
  EXPECT_GT(answered, iterations / 2);

  StatusOr<int> fd = ConnectTcp("127.0.0.1", loop.tcp_port());
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  std::string frame;
  AppendFrame(R"({"cmd":"ping"})", frame);
  ASSERT_TRUE(WriteAllBytes(fd.value(), frame.data(), frame.size()).ok());
  StatusOr<std::string> reply = ReadFrame(fd.value());
  ::close(fd.value());
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_NE(reply.value().find("\"ok\":true"), std::string::npos) << reply.value();
  service.Stop();
  loop.Stop();
}

// Snapshot restore past the checksum. The LYRAFED payload of a 2x2 fleet's
// snapshot is mutated and sealed again, so each mutant reaches the
// container grammar, the cluster-list rule and the image decoder, not only
// the envelope's checksum. Most edits land on the container's own bytes
// (counters, name lengths and names, kinds, image framing), since a byte
// inside an image only meets that image's checksum; written bytes favour
// the ones that matter to a name (quote, newline, label syntax). Every
// mutant is refused as InvalidArgument or DataLoss before any engine is
// built, or restores to a fleet whose /metrics passes the exposition lint.
TEST(Fuzz, FederationRestoreOfResealedSnapshotsIsWholeOrRefused) {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.auto_advance = false;
  const auto virtual_driver = [](int) -> std::unique_ptr<TimeDriver> {
    return std::make_unique<VirtualTimeDriver>();
  };
  const std::string path =
      testing::TempDir() + "/lyra_fuzz_fed_" + std::to_string(::getpid());
  {
    StatusOr<FederationSet> fleet =
        BuildFederation(options, ParseFederationSpec("2x2").value(), virtual_driver);
    ASSERT_TRUE(fleet.ok()) << fleet.status().message();
    FederationRouter& router = *fleet.value().router;
    for (const char* cluster : {"inf0", "inf1", "train0", "train1", "train1"}) {
      JsonValue submit = JsonValue::MakeObject();
      submit.Set("cmd", JsonValue::MakeString("submit"))
          .Set("cluster", JsonValue::MakeString(cluster))
          .Set("total_work", JsonValue::MakeNumber(7200.0));
      ASSERT_TRUE(router.Execute(submit).GetBool("ok"));
    }
    JsonValue snap = JsonValue::MakeObject();
    snap.Set("cmd", JsonValue::MakeString("snapshot"))
        .Set("path", JsonValue::MakeString(path));
    ASSERT_TRUE(router.Execute(snap).GetBool("ok"));
    for (auto& service : fleet.value().services) {
      service->Stop();
    }
  }
  const std::string file = ReadFile(path).value();
  StatusOr<std::string_view> opened = Open(kFedSnapshotFormat, file, path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const std::string payload(opened.value());

  // The container's own bytes: submit_seq, ledger_hash and the cluster
  // count, then per cluster its name's length and bytes, its kind and its
  // image's length.
  std::vector<std::size_t> frame;
  for (std::size_t i = 0; i < 20; ++i) {
    frame.push_back(i);
  }
  std::size_t at = 20;
  const FedSnapshot written = LoadFedSnapshot(path).value();
  for (const FedClusterImage& cluster : written.clusters) {
    const std::size_t own = 4 + cluster.name.size() + 1 + 8;
    for (std::size_t i = 0; i < own; ++i) {
      frame.push_back(at + i);
    }
    at += own + cluster.image.size();
  }
  ASSERT_EQ(at, payload.size());

  static constexpr char kNameBytes[] = "\"\n\\{}=, #._-aZ09\x7f\x80\xff";
  Rng rng(0xfed5);
  int built = 0;
  const auto counting_driver = [&built](int) -> std::unique_ptr<TimeDriver> {
    ++built;
    return std::make_unique<VirtualTimeDriver>();
  };
  constexpr int kIterations = 500;
  int restored_count = 0;
  int invalid_count = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::string mutated = payload;
    for (std::int64_t e = rng.UniformInt(1, 2); e > 0; --e) {
      const std::size_t pos =
          rng.NextBernoulli(0.75)
              ? frame[static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(frame.size()) - 1))]
              : static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(mutated.size()) - 1));
      const char byte =
          rng.NextBernoulli(0.5)
              ? kNameBytes[rng.UniformInt(0, sizeof(kNameBytes) - 2)]
              : static_cast<char>(rng.UniformInt(0, 255));
      switch (rng.UniformInt(0, 7)) {
        case 0:
          mutated.erase(std::min(pos, mutated.size() - 1), 1);
          break;
        case 1:
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos), byte);
          break;
        default:
          mutated[std::min(pos, mutated.size() - 1)] = byte;
          break;
      }
    }
    ASSERT_TRUE(WriteFileAtomic(path, Seal(kFedSnapshotFormat, mutated)).ok());
    built = 0;
    StatusOr<FederationSet> restored = RestoreFederation(options, path, counting_driver);
    if (!restored.ok()) {
      const StatusCode code = restored.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument || code == StatusCode::kDataLoss)
          << restored.status().message();
      EXPECT_EQ(built, 0) << restored.status().message();
      invalid_count += code == StatusCode::kInvalidArgument ? 1 : 0;
      continue;
    }
    ++restored_count;
    JsonValue prom = JsonValue::MakeObject();
    prom.Set("cmd", JsonValue::MakeString("stats_prom"));
    const JsonValue reply = restored.value().router->Execute(prom);
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ExpectLintClean(reply.GetString("text", ""), "restored mutant");
    for (auto& service : restored.value().services) {
      service->Stop();
    }
  }
  // The budget reaches both outcomes and the cluster-list rule.
  EXPECT_GT(restored_count, 0);
  EXPECT_GT(invalid_count, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lyra::svc
