// Multi-cluster federation conformance tests (DESIGN.md §11): spec parsing,
// deterministic cluster routing (explicit cluster / kind targets, keyed and
// keyless, pipelined over the event loop), global-id arithmetic across the
// fleet (engine k is cluster k), each fleet fact in one home (a cluster's
// /metrics rows join federation_stats), checkpoint-cost-charged migration
// between training clusters and its ledger, the plain-service compatibility
// contract (a one-cluster federation answers byte-for-byte like a lone
// SchedulerService and writes the identical LYRASNAP image), LYRAFED
// restores (version 4 as written at every fleet size, keeping each
// cluster's name and kind; retired layouts, a bare LYRASNAP file, a bad
// image or a bad cluster list refused before any engine is built),
// LYRASNAP version 2 refused, and a golden regression pinning the engine
// outcomes of a Lyra pair script.
//
// To regenerate the golden fixture after an *intentional* behaviour change:
//   LYRA_UPDATE_GOLDEN=1 ./svc_federation_test
// and commit tests/golden/federation_pair.golden with an explanation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/sim/simulator.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/prom.h"
#include "src/svc/service.h"
#include "src/svc/snapshot.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"
#include "tests/fed_test_support.h"

namespace lyra::svc {
namespace {

#ifndef LYRA_GOLDEN_DIR
#error "LYRA_GOLDEN_DIR must be defined by the build"
#endif

constexpr const char* kPairFixture = LYRA_GOLDEN_DIR "/federation_pair.golden";

std::string TempPath(const char* tag) {
  return "/tmp/lyra_fed_test_" + std::to_string(::getpid()) + "_" + tag;
}

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue Submit(double at, double work, int gpus_per_worker = 1,
                 int min_workers = 1, int max_workers = 1) {
  JsonValue cmd = Cmd("submit");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("gpus_per_worker", JsonValue::MakeNumber(gpus_per_worker));
  cmd.Set("min_workers", JsonValue::MakeNumber(min_workers));
  cmd.Set("max_workers", JsonValue::MakeNumber(max_workers));
  cmd.Set("total_work", JsonValue::MakeNumber(work));
  return cmd;
}

JsonValue SubmitTo(const char* cluster, double at, double work,
                   int gpus_per_worker = 1, int min_workers = 1,
                   int max_workers = 1) {
  JsonValue cmd = Submit(at, work, gpus_per_worker, min_workers, max_workers);
  cmd.Set("cluster", JsonValue::MakeString(cluster));
  return cmd;
}

JsonValue Advance(double to) {
  JsonValue cmd = Cmd("advance");
  cmd.Set("to", JsonValue::MakeNumber(to));
  return cmd;
}

JsonValue Cancel(double at, std::int64_t job) {
  JsonValue cmd = Cmd("cancel");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  return cmd;
}

JsonValue Migrate(std::int64_t job, const char* to) {
  JsonValue cmd = Cmd("migrate");
  cmd.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  cmd.Set("to", JsonValue::MakeString(to));
  return cmd;
}

ServiceOptions BaseOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.engine.seed = 4321;
  options.auto_advance = false;
  return options;
}

std::unique_ptr<TimeDriver> MakeVirtualDriver(int /*shard*/) {
  return std::make_unique<VirtualTimeDriver>();
}

FederationSet BuildFed(const std::string& spec) {
  StatusOr<std::vector<ClusterSpec>> clusters = ParseFederationSpec(spec);
  EXPECT_TRUE(clusters.ok()) << clusters.status().message();
  StatusOr<FederationSet> built =
      BuildFederation(BaseOptions(), clusters.value(), MakeVirtualDriver);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built.value());
}

void StopFed(FederationSet& fed) {
  for (auto& service : fed.services) {
    service->Stop();
  }
}

TEST(Federation, SpecParsingCompactAndExplicitForms) {
  StatusOr<std::vector<ClusterSpec>> compact = ParseFederationSpec("2x3");
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  ASSERT_EQ(compact.value().size(), 5u);
  EXPECT_EQ(compact.value()[0].name, "inf0");
  EXPECT_EQ(compact.value()[1].name, "inf1");
  EXPECT_EQ(compact.value()[2].name, "train0");
  EXPECT_EQ(compact.value()[4].name, "train2");
  EXPECT_EQ(compact.value()[0].kind, ClusterKind::kInference);
  EXPECT_EQ(compact.value()[2].kind, ClusterKind::kTraining);

  StatusOr<std::vector<ClusterSpec>> verbose =
      ParseFederationSpec("edge:inf,bulk:train,spill:training");
  ASSERT_TRUE(verbose.ok()) << verbose.status().message();
  ASSERT_EQ(verbose.value().size(), 3u);
  EXPECT_EQ(verbose.value()[0].name, "edge");
  EXPECT_EQ(verbose.value()[0].kind, ClusterKind::kInference);
  EXPECT_EQ(verbose.value()[1].kind, ClusterKind::kTraining);
  EXPECT_EQ(verbose.value()[2].kind, ClusterKind::kTraining);

  EXPECT_FALSE(ParseFederationSpec("").ok());
  EXPECT_FALSE(ParseFederationSpec("0x0").ok());
  EXPECT_FALSE(ParseFederationSpec("a:bogus").ok());
  EXPECT_FALSE(ParseFederationSpec("a:inf,a:train").ok());
  EXPECT_FALSE(ParseFederationSpec("bad name:inf").ok());
  // A cluster is one engine: the retired engine counts ("@S", a third
  // field) and a fourth field (the retired loan priority) are refused.
  for (const char* spec : {"0x1@4", "2x2@2", "1x1@1", "a:train:2", "a:inf:1",
                           "edge:inf:2:7", "edge:inf:1:99999999999"}) {
    EXPECT_EQ(ParseFederationSpec(spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

// The plain daemon's fleet is `--federation=0x1`, one training cluster
// "train0", and `0xN` is N training clusters train0..trainN-1, the fleets
// bench_svc_saturation's engine-scaling sweep runs.
TEST(Federation, ZeroByOneSpecIsSingleCluster) {
  const StatusOr<std::vector<ClusterSpec>> one = ParseFederationSpec("0x1");
  ASSERT_TRUE(one.ok()) << one.status().message();
  ASSERT_EQ(one.value().size(), 1u);
  ASSERT_EQ(SingleCluster().size(), 1u);
  for (const ClusterSpec& cluster : {one.value()[0], SingleCluster()[0]}) {
    EXPECT_EQ(cluster.name, "train0");
    EXPECT_EQ(cluster.kind, ClusterKind::kTraining);
  }
  for (int n = 2; n <= 8; ++n) {
    const std::string spec = "0x" + std::to_string(n);
    const StatusOr<std::vector<ClusterSpec>> parsed = ParseFederationSpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.status().message();
    ASSERT_EQ(parsed.value().size(), static_cast<std::size_t>(n)) << spec;
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(parsed.value()[c].name, "train" + std::to_string(c)) << spec;
      EXPECT_EQ(parsed.value()[c].kind, ClusterKind::kTraining) << spec;
    }
  }
}

// The compact form bounds its counts before it builds a cluster list: a
// count of a hundred million is refused at once instead of allocating its
// clusters, and one past strtoll's range is refused instead of saturated.
TEST(Federation, SpecBoundsEngineCountBeforeBuilding) {
  for (const char* spec : {"65x0", "0x65", "33x32", "100000000x1",
                           "9223372036854775807x9223372036854775807"}) {
    const StatusOr<std::vector<ClusterSpec>> parsed = ParseFederationSpec(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().message().rfind(
                  "federation engine count must be in [1, 64], got ", 0),
              0u)
        << spec << ": " << parsed.status().message();
  }
  EXPECT_EQ(ParseFederationSpec("33x32").status().message(),
            "federation engine count must be in [1, 64], got 65");

  const StatusOr<std::vector<ClusterSpec>> saturated =
      ParseFederationSpec("99999999999999999999x1");
  ASSERT_FALSE(saturated.ok());
  EXPECT_EQ(saturated.status().message(), "bad federation spec: \"99999999999999999999x1\"");

  // The limit itself still parses.
  EXPECT_TRUE(ParseFederationSpec("32x32").ok());
  EXPECT_TRUE(ParseFederationSpec("0x64").ok());
}

TEST(Federation, GlobalIdRoundTripAcrossFederationTimesShards) {
  for (const char* spec : {"1x1", "2x1", "1x2", "2x2", "0x4"}) {
    FederationSet fed = BuildFed(spec);
    FederationRouter& router = *fed.router;
    const int engines = router.shard_count();
    // Engine k is cluster k: a submit to cluster c is answered by engine c,
    // and the id arithmetic round-trips through the fleet — so an id names
    // (cluster, local) unambiguously.
    for (int c = 0; c < engines; ++c) {
      const JsonValue reply =
          router.Execute(SubmitTo(router.cluster_spec(c).name.c_str(), 0.0,
                                  3600.0));
      ASSERT_TRUE(reply.GetBool("ok")) << spec << ": " << reply.Dump();
      const auto job = static_cast<std::int64_t>(reply.GetDouble("job", -1.0));
      EXPECT_EQ(router.ShardOfJob(job), static_cast<std::uint32_t>(c))
          << spec << " cluster " << c;
      EXPECT_EQ(job, router.shard(c)->ids().Global(0)) << spec;
    }
    for (std::int64_t local = 0; local < 50; ++local) {
      for (int e = 0; e < engines; ++e) {
        const FleetIds& ids = router.shard(e)->ids();
        const std::int64_t global = ids.Global(local);
        EXPECT_EQ(router.ShardOfJob(global), static_cast<std::uint32_t>(e))
            << spec;
        EXPECT_EQ(ids.Local(global), local) << spec;
      }
    }
    StopFed(fed);
  }
}

// Pipelined submits targeting explicit clusters and kinds over the event
// loop: replies come back in order, and every global id matches the routing
// mirror — cluster routing is a pure function of (cluster, key | sequence),
// never of timing.
TEST(Federation, RoutingIsDeterministicUnderPipelining) {
  FederationSet fed = BuildFed("2x2");  // inf0, inf1, train0, train1
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_fed_route_" + std::to_string(::getpid()) + ".sock";
  EventLoop server(fed.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();

  const std::vector<std::uint32_t> inf_engines = {0, 1};
  const std::vector<std::uint32_t> train_engines = {2, 3};
  constexpr int kEngines = 4;
  std::vector<std::int64_t> local(kEngines, 0);
  std::uint64_t seq_counter = 0;  // router's keyless submit counter
  std::vector<std::int64_t> predicted;
  std::string burst;
  int frame = 0;

  const auto queue_submit = [&](const char* cluster, const char* kind,
                                const char* key) {
    JsonValue submit = Submit(0.0, 36000.0);
    std::vector<std::uint32_t> targets =
        kind != nullptr && std::string(kind) == "inference" ? inf_engines
                                                            : train_engines;
    if (cluster != nullptr) {
      submit.Set("cluster", JsonValue::MakeString(cluster));
      targets = {static_cast<std::uint32_t>(fed.router->FindCluster(cluster))};
    }
    if (kind != nullptr) {
      submit.Set("kind", JsonValue::MakeString(kind));
    }
    std::uint32_t engine;
    if (key != nullptr) {
      submit.Set("key", JsonValue::MakeString(key));
      engine = targets[Fnv1a(key) % targets.size()];
    } else {
      engine = targets[Fnv1aU64(seq_counter++) % targets.size()];
    }
    predicted.push_back(local[engine]++ * kEngines + engine);
    submit.Set("seq", JsonValue::MakeNumber(frame++));
    AppendFrame(submit.Dump(), burst);
  };

  // Interleave every targeting mode in one pipelined burst.
  for (int round = 0; round < 6; ++round) {
    queue_submit("train0", nullptr, nullptr);
    queue_submit("inf0", nullptr, nullptr);
    queue_submit(nullptr, "training", nullptr);
    queue_submit(nullptr, "inference", nullptr);
    queue_submit(nullptr, nullptr, nullptr);  // kindless -> training default
    queue_submit(nullptr, "training", "tenant-a");
  }
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  std::set<std::int64_t> distinct;
  for (int expect = 0; expect < frame; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    const std::int64_t id =
        static_cast<std::int64_t>(reply.value().GetDouble("job", -1.0));
    EXPECT_EQ(id, predicted[static_cast<std::size_t>(expect)])
        << "frame " << expect << " routed off the mirror: "
        << reply_text.value();
    EXPECT_TRUE(distinct.insert(id).second) << "global id collided: " << id;
  }
  ::close(fd.value());
  StopFed(fed);
  server.Stop();

  // Keyed submits all landed on one engine ("tenant-a" is pinned).
  const std::uint32_t pinned =
      train_engines[Fnv1a("tenant-a") % train_engines.size()];
  int keyed = 0;
  for (std::size_t i = 5; i < predicted.size(); i += 6) {
    EXPECT_EQ(predicted[i] % kEngines, pinned);
    ++keyed;
  }
  EXPECT_EQ(keyed, 6);
}

TEST(Federation, InvalidTargetsAreRejectedInline) {
  FederationSet fed = BuildFed("1x1");
  FederationRouter& router = *fed.router;

  JsonValue unknown = Submit(0.0, 3600.0);
  unknown.Set("cluster", JsonValue::MakeString("nope"));
  JsonValue reply = router.Execute(unknown);
  EXPECT_FALSE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");
  EXPECT_NE(reply.GetString("error").find("nope"), std::string::npos);

  JsonValue bad_kind = Submit(0.0, 3600.0);
  bad_kind.Set("kind", JsonValue::MakeString("quantum"));
  reply = router.Execute(bad_kind);
  EXPECT_FALSE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  reply = router.Execute(Migrate(0, "train0"));
  EXPECT_FALSE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("code"), "failed_precondition")
      << "one-pair federations cannot migrate: " << reply.Dump();

  // An out-of-range numeric cluster index is an unknown cluster.
  JsonValue numeric = Submit(0.0, 3600.0);
  numeric.Set("cluster", JsonValue::MakeNumber(7));
  reply = router.Execute(numeric);
  EXPECT_FALSE(reply.GetBool("ok"));
  StopFed(fed);
}

// Migration between training clusters: the job is cancelled on the source,
// resubmitted on the destination with the remaining work plus the checkpoint
// cost (60s GPU-time when checkpointing, 300s cold otherwise), and the move
// is recorded in the migration ledger. Invalid moves answer inline.
TEST(Federation, MigrationChargesCheckpointCostAndMovesTheJob) {
  FederationSet fed = BuildFed("1x2");  // inf0, train0, train1
  FederationRouter& router = *fed.router;

  JsonValue submit = SubmitTo("train0", 0.0, 7200.0, 2, 1, 3);
  submit.Set("checkpointing", JsonValue::MakeBool(true));
  const JsonValue submitted = router.Execute(submit);
  ASSERT_TRUE(submitted.GetBool("ok")) << submitted.Dump();
  const std::int64_t job =
      static_cast<std::int64_t>(submitted.GetDouble("job", -1.0));
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));
  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  const JsonValue source = router.Execute(query);
  ASSERT_TRUE(source.GetBool("ok")) << source.Dump();

  const JsonValue moved = router.Execute(Migrate(job, "train1"));
  ASSERT_TRUE(moved.GetBool("ok")) << moved.Dump();
  EXPECT_EQ(moved.GetDouble("checkpoint_cost"), kMigrationCheckpointCost);
  EXPECT_EQ(moved.GetDouble("from_job"), static_cast<double>(job));
  EXPECT_EQ(moved.GetString("cluster"), "train1");
  const std::int64_t new_job =
      static_cast<std::int64_t>(moved.GetDouble("job", -1.0));
  ASSERT_GE(new_job, 0);
  EXPECT_NE(new_job, job);
  EXPECT_EQ(router.ShardOfJob(new_job), 2u)
      << "migrated job must live on train1's engine";

  // Source side: the original job ended cancelled.
  const JsonValue old_state = router.Execute(query);
  ASSERT_TRUE(old_state.GetBool("ok")) << old_state.Dump();
  EXPECT_EQ(old_state.GetString("state"), "cancelled") << old_state.Dump();

  // The destination runs the source's spec with the checkpoint cost added to
  // its remaining work, submitted at the cancel's time.
  JsonValue query_new = Cmd("query_job");
  query_new.Set("job", JsonValue::MakeNumber(static_cast<double>(new_job)));
  const JsonValue migrated = router.Execute(query_new);
  ASSERT_TRUE(migrated.GetBool("ok")) << migrated.Dump();
  for (const char* field : {"gpus_per_worker", "min_workers", "max_workers"}) {
    EXPECT_EQ(migrated.GetDouble(field, -1.0), source.GetDouble(field, -2.0))
        << field;
  }
  EXPECT_EQ(migrated.GetDouble("work_remaining", -1.0),
            source.GetDouble("work_remaining") + kMigrationCheckpointCost)
      << migrated.Dump();
  EXPECT_EQ(migrated.GetDouble("submit_time", -1.0), 600.0) << migrated.Dump();
  EXPECT_EQ(migrated.GetDouble("submit_time", -1.0), moved.GetDouble("time"));

  // The ledger recorded the move.
  EXPECT_NE(router.ledger_hash(), 0u);
  bool saw_migrate = false;
  for (const std::string& event : router.RecentEvents()) {
    saw_migrate = saw_migrate || event.find("migrate") != std::string::npos;
  }
  EXPECT_TRUE(saw_migrate);

  // A non-checkpointing job pays the cold-restart cost.
  const JsonValue cold_submit =
      router.Execute(SubmitTo("train1", 700.0, 7200.0));
  ASSERT_TRUE(cold_submit.GetBool("ok"));
  const std::int64_t cold_job =
      static_cast<std::int64_t>(cold_submit.GetDouble("job", -1.0));
  const JsonValue cold_moved = router.Execute(Migrate(cold_job, "train0"));
  ASSERT_TRUE(cold_moved.GetBool("ok")) << cold_moved.Dump();
  EXPECT_EQ(cold_moved.GetDouble("checkpoint_cost"), kMigrationColdCost);

  // Invalid moves: inference destination, unknown job, self-move.
  JsonValue bad = router.Execute(Migrate(new_job, "inf0"));
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_NE(bad.GetString("error").find("not a training cluster"),
            std::string::npos)
      << bad.Dump();
  bad = router.Execute(Migrate(router.shard(1)->ids().Global(9999), "train1"));
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_EQ(bad.GetString("code"), "not_found");
  bad = router.Execute(Migrate(new_job, "train1"));
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_NE(bad.GetString("error").find("already on"), std::string::npos)
      << bad.Dump();
  StopFed(fed);
}

// Each fleet fact has one home. In /metrics a cluster is its
// lyra_fed_cluster_info{cluster,kind,shard} row, which joins engine k's
// shard="k" rows, and those rows equal federation_stats' jobs and GPUs for
// the cluster (its own pool: inference for an inference cluster, training
// otherwise). No per-cluster copy of them is exported, and no JSON read
// repeats what another carries.
TEST(Federation, ClusterInfoJoinsEngineRowsEqualToFederationStats) {
  FederationSet fed = BuildFed("2x2");
  FederationRouter& router = *fed.router;
  for (const char* cluster : {"inf0", "inf1", "train0", "train1"}) {
    ASSERT_TRUE(router.Execute(SubmitTo(cluster, 0.0, 7200.0)).GetBool("ok"));
  }
  for (int i = 0; i < 3; ++i) {  // unplaceable: pending on train1
    ASSERT_TRUE(router.Execute(SubmitTo("train1", 0.0, 1e6, 64, 100, 100))
                    .GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));

  const JsonValue stats = router.Execute(Cmd("federation_stats"));
  ASSERT_TRUE(stats.GetBool("ok")) << stats.Dump();
  EXPECT_EQ(stats.Find("shards"), nullptr) << stats.Dump();
  const JsonValue cluster_stats = router.Execute(Cmd("cluster_stats"));
  EXPECT_EQ(cluster_stats.Find("federation"), nullptr) << cluster_stats.Dump();
  const JsonValue metrics = router.Execute(Cmd("metrics"));
  EXPECT_EQ(metrics.GetString("code"), "invalid_argument") << metrics.Dump();

  StatusOr<PromScrape> scrape = ParsePrometheus(
      router.Execute(Cmd("stats_prom")).GetString("text", ""));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  const PromScrape& prom = scrape.value();
  for (const char* gone : {"lyra_fed_jobs", "lyra_fed_gpus", "lyra_fed_clusters"}) {
    EXPECT_EQ(prom.types.count(gone), 0u) << gone;
  }
  EXPECT_EQ(prom.Value("lyra_svc_shards"), 4.0);
  EXPECT_EQ(prom.Value("lyra_engine_jobs", {{"state", "pending"}, {"shard", "3"}}),
            3.0);

  const JsonValue* clusters = stats.Find("clusters");
  ASSERT_NE(clusters, nullptr);
  ASSERT_EQ(clusters->AsArray().size(), 4u);
  for (const JsonValue& entry : clusters->AsArray()) {
    const std::string name = entry.GetString("name");
    const std::string kind = entry.GetString("kind");
    SCOPED_TRACE(name);
    EXPECT_EQ(entry.Find("shards"), nullptr);
    EXPECT_EQ(entry.Find("first_engine"), nullptr);
    const PromSample* info = prom.Find("lyra_fed_cluster_info", {{"cluster", name}});
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->labels.at("kind"), kind);
    const std::string shard = info->labels.at("shard");
    EXPECT_EQ(shard, std::to_string(static_cast<int>(entry.GetDouble("cluster"))));
    for (const char* state : {"pending", "running", "finished", "cancelled"}) {
      EXPECT_EQ(prom.Value("lyra_engine_jobs", {{"state", state}, {"shard", shard}},
                           -1.0),
                entry.Find("jobs")->GetDouble(state, -2.0))
          << state;
    }
    const char* pool = kind == "inference" ? "inference" : "training";
    for (const char* counter : {"total", "used", "free"}) {
      EXPECT_EQ(prom.Value("lyra_engine_pool_gpus",
                           {{"pool", pool}, {"kind", counter}, {"shard", shard}},
                           -1.0),
                entry.Find("gpus")->GetDouble(counter, -2.0))
          << counter;
    }
  }
  StopFed(fed);
}

// The compatibility contract: a federation of exactly one training cluster
// with one engine answers every plain command byte-for-byte like the
// unsharded SchedulerService, and its snapshot file holds the identical
// LYRASNAP image under its own cluster's name. federation_stats is the only
// additive surface.
TEST(Federation, SingleClusterFederationMatchesPlainServiceByteForByte) {
  const auto script = [](double snapshot_at) {
    std::vector<JsonValue> commands;
    commands.push_back(Submit(0.0, 50000.0, 1, 1, 4));
    commands.push_back(Submit(0.0, 200000.0));
    commands.push_back(Advance(3000.0));
    commands.push_back(Cancel(3600.0, 1));
    commands.push_back(Submit(5000.0, 90000.0, 2, 1, 2));
    commands.push_back(Advance(snapshot_at));
    commands.push_back(Cmd("cluster_stats"));
    commands.push_back(Cmd("drain"));
    return commands;
  };

  SchedulerService engine(BaseOptions(), MakeVirtualDriver(0));
  ASSERT_TRUE(engine.Start().ok());
  FederationRouter plain({&engine}, SingleCluster());
  FederationSet fed = BuildFed("solo:train");
  ASSERT_EQ(fed.router->shard_count(), 1);

  const std::string plain_snap = TempPath("plain");
  const std::string fed_snap = TempPath("fed");
  for (const JsonValue& command : script(20000.0)) {
    const JsonValue plain_reply = plain.Execute(command);
    const JsonValue fed_reply = fed.router->Execute(command);
    EXPECT_EQ(plain_reply.Dump(), fed_reply.Dump())
        << "diverged on " << command.Dump();
  }
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(plain_snap));
  ASSERT_TRUE(plain.Execute(snap).GetBool("ok"));
  snap.Replace("path", JsonValue::MakeString(fed_snap));
  ASSERT_TRUE(fed.router->Execute(snap).GetBool("ok"));

  StatusOr<FedSnapshot> plain_file = LoadFedSnapshot(plain_snap);
  StatusOr<FedSnapshot> fed_file = LoadFedSnapshot(fed_snap);
  ASSERT_TRUE(plain_file.ok()) << plain_file.status().message();
  ASSERT_TRUE(fed_file.ok()) << fed_file.status().message();
  ASSERT_EQ(plain_file.value().clusters.size(), 1u);
  ASSERT_EQ(fed_file.value().clusters.size(), 1u);
  EXPECT_EQ(plain_file.value().clusters[0].name, "train0");
  EXPECT_EQ(fed_file.value().clusters[0].name, "solo");
  EXPECT_EQ(plain_file.value().submit_seq, fed_file.value().submit_seq);
  EXPECT_TRUE(plain_file.value().clusters[0].image ==
              fed_file.value().clusters[0].image);
  std::remove(plain_snap.c_str());
  std::remove(fed_snap.c_str());
  engine.Stop();
  StopFed(fed);
}

// Golden regression for the Lyra pair (1 inference + 1 training cluster):
// 190 unplaceable training jobs, 6 fungible spike jobs on inf0 (its engine
// loans its own servers inward over the diurnal valley), cancels, and three
// advances. Every reply plus each engine's decision-log digest, fault-log
// hash and final time is diffed byte-for-byte against
// tests/golden/federation_pair.golden. The router moves no capacity between
// clusters, so these outcomes are the engines' alone.
TEST(Federation, PairScriptEngineOutcomesMatchGolden) {
  FederationSet fed = BuildFed("1x1");
  FederationRouter& router = *fed.router;

  std::ostringstream trace;
  const auto run = [&](const JsonValue& command) {
    const JsonValue reply = router.Execute(command);
    trace << ">> " << command.Dump() << "\n<< " << reply.Dump() << "\n";
    return reply;
  };

  std::vector<std::int64_t> demand_ids;
  for (int i = 0; i < 190; ++i) {
    const JsonValue reply =
        router.Execute(SubmitTo("train0", 0.0, 999999.0, 64, 100, 100));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    demand_ids.push_back(
        static_cast<std::int64_t>(reply.GetDouble("job", -1.0)));
  }
  trace << "## submitted 190 pending training jobs\n";
  run(Advance(100.0));
  for (int i = 0; i < 6; ++i) {
    JsonValue spike = SubmitTo("inf0", 100.0, 999999.0, 8, 40, 40);
    spike.Set("fungible", JsonValue::MakeBool(true));
    // The inference engine accepts the job even though it stays pending.
    const JsonValue reply = router.Execute(spike);
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  }
  trace << "## submitted 6 fungible spike jobs on inf0\n";
  run(Advance(14400.0));
  for (const std::int64_t id : demand_ids) {
    ASSERT_TRUE(router.Execute(Cancel(14500.0, id)).GetBool("ok"));
  }
  trace << "## cancelled all pending training demand\n";
  run(Advance(15000.0));
  StopFed(fed);

  trace << "## engines\n";
  for (std::size_t k = 0; k < fed.services.size(); ++k) {
    const Simulator& sim = fed.services[k]->simulator();
    const std::vector<DecisionRecord>& records = sim.decision_log().records();
    const FaultInjector* faults = sim.fault_injector();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "engine %zu decisions=%zu digest=%016llx faults=%016llx "
                  "time=%.17g\n",
                  k, records.size(),
                  static_cast<unsigned long long>(DecisionDigest(records)),
                  static_cast<unsigned long long>(
                      faults != nullptr ? faults->log_hash() : 0),
                  sim.now());
    trace << line;
  }
  const std::string text = trace.str();

  if (std::getenv("LYRA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kPairFixture, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kPairFixture;
    out << text;
    GTEST_SKIP() << "fixture regenerated at " << kPairFixture;
  }
  std::ifstream fixture(kPairFixture, std::ios::binary);
  ASSERT_TRUE(fixture.good())
      << kPairFixture
      << " missing; run with LYRA_UPDATE_GOLDEN=1 to create it";
  std::ostringstream want;
  want << fixture.rdbuf();
  EXPECT_EQ(text, want.str())
      << "federation pair outcomes diverged from the golden trace; if "
         "intentional, regenerate with LYRA_UPDATE_GOLDEN=1";
}

// The LYRAFED container round-trips the whole federation: cluster layout,
// per-engine images, migration ledger hash, and routing counter all come
// back, and the restored ledger's hash chain continues from the file's.
TEST(Federation, FedSnapshotRestoresLayoutLedgerAndCounter) {
  FederationSet fed = BuildFed("edge:inf,bulk:train,spill:train");
  FederationRouter& router = *fed.router;
  ASSERT_EQ(router.shard_count(), 3);

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 40; ++i) {
    const JsonValue reply =
        router.Execute(SubmitTo("bulk", 0.0, 999999.0, 64, 100, 100));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ids.push_back(static_cast<std::int64_t>(reply.GetDouble("job", -1.0)));
  }
  ASSERT_TRUE(router.Execute(Advance(100.0)).GetBool("ok"));
  for (int i = 0; i < 2; ++i) {
    const JsonValue moved = router.Execute(Migrate(ids[i], "spill"));
    ASSERT_TRUE(moved.GetBool("ok")) << moved.Dump();
  }
  const std::uint64_t hash_before = router.ledger_hash();
  ASSERT_NE(hash_before, 0u) << "script must snapshot with migrations logged";
  const std::uint64_t seq_before = router.submit_seq();

  const std::string path = TempPath("layout");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  const JsonValue written = router.Execute(snap);
  ASSERT_TRUE(written.GetBool("ok")) << written.Dump();
  EXPECT_EQ(written.GetDouble("clusters", 0.0), 3.0);
  EXPECT_EQ(ReadFile(path).value().substr(0, 8), "LYRAFED_");
  StopFed(fed);

  // Base options are deliberately wrong — the container's layout must win.
  ServiceOptions base = BaseOptions();
  base.engine.seed = 1;
  StatusOr<FederationSet> restored =
      RestoreFederation(base, path, MakeVirtualDriver);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  FederationRouter& resumed = *restored.value().router;
  ASSERT_EQ(resumed.shard_count(), 3);
  EXPECT_EQ(resumed.cluster_spec(0).name, "edge");
  EXPECT_EQ(resumed.cluster_spec(0).kind, ClusterKind::kInference);
  EXPECT_EQ(resumed.cluster_spec(1).name, "bulk");
  EXPECT_EQ(resumed.cluster_spec(1).kind, ClusterKind::kTraining);
  EXPECT_EQ(resumed.cluster_spec(2).name, "spill");
  EXPECT_EQ(resumed.submit_seq(), seq_before);
  EXPECT_EQ(resumed.ledger_hash(), hash_before)
      << "migration ledger hash must survive the restart bit-for-bit";

  // The next migration extends the restored chain by its own line.
  const JsonValue moved = resumed.Execute(Migrate(ids[2], "spill"));
  ASSERT_TRUE(moved.GetBool("ok")) << moved.Dump();
  const std::vector<std::string> events = resumed.RecentEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(resumed.ledger_hash(), Fnv1a("\n", Fnv1a(events[0], hash_before)));
  for (auto& service : restored.value().services) {
    service->Stop();
  }
  std::remove(path.c_str());
}

// A cluster's engine list as older routers wrote it, `engines` copies of
// the cluster's image: the plain LYRASNAP image for a list of one, else a
// LYRASHRD envelope (u32 engine count, u64 routing counter, u64-framed
// images).
std::string RetiredClusterImage(const FedClusterImage& cluster,
                                std::uint32_t engines,
                                std::uint64_t submit_seq) {
  if (engines == 1) {
    return cluster.image;
  }
  ByteWriter payload;
  payload.U32(engines);
  payload.U64(submit_seq);
  for (std::uint32_t e = 0; e < engines; ++e) {
    payload.Blob(cluster.image);
  }
  return Seal({"LYRASHRD", 1}, payload.bytes());
}

// LYRAFED versions 1 to 3, each cluster an engine list of `engines` copies
// of its image. Version 1 (an older router's loan ledger, a loan priority
// per cluster) and version 2 (no ledger) nest the list as one retired
// cluster image; version 3 frames each image after the engine count.
std::string RetiredFedFile(const FedSnapshot& fed, std::uint32_t version,
                           std::uint32_t engines) {
  ByteWriter payload;
  payload.U64(fed.submit_seq);
  if (version == 1) {
    for (int i = 0; i < 4; ++i) {
      payload.U64(0);  // loan id counter, granted/reclaimed/returned totals
    }
  }
  payload.U64(fed.ledger_hash);
  if (version == 1) {
    payload.U32(0);  // active loans
  }
  payload.U32(static_cast<std::uint32_t>(fed.clusters.size()));
  for (const FedClusterImage& cluster : fed.clusters) {
    payload.Str(cluster.name);
    payload.U8(cluster.kind);
    if (version == 1) {
      payload.I64(0);  // loan priority
    }
    payload.U32(engines);
    if (version == 3) {
      for (std::uint32_t e = 0; e < engines; ++e) {
        payload.Blob(cluster.image);
      }
    } else {
      payload.Blob(RetiredClusterImage(cluster, engines, fed.submit_seq));
    }
  }
  return Seal({"LYRAFED_", version}, payload.bytes());
}

// LYRAFED version 4 is the one snapshot file --restore reads. A file in a
// retired layout — a bare LYRASNAP image, a top-level LYRASHRD, LYRAFED
// version 1, 2 or 3 with its per-cluster engine lists — is refused as
// InvalidArgument before any engine is built; a version-4 file restores its
// layout, routing counter and ledger hash.
TEST(Federation, OnlyTheCurrentFleetContainerRestores) {
  FederationSet fed = BuildFed("2x2");
  FederationRouter& router = *fed.router;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const JsonValue reply =
        router.Execute(SubmitTo("train1", 0.0, 999999.0, 64, 100, 100));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ids.push_back(static_cast<std::int64_t>(reply.GetDouble("job", -1.0)));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(100.0)).GetBool("ok"));
  ASSERT_TRUE(router.Execute(Migrate(ids[0], "train0")).GetBool("ok"));
  const std::uint64_t hash_before = router.ledger_hash();
  const std::uint64_t seq_before = router.submit_seq();
  ASSERT_NE(hash_before, 0u);
  ASSERT_GT(seq_before, 0u);

  const std::string path = TempPath("v4");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  ASSERT_TRUE(router.Execute(snap).GetBool("ok"));
  StopFed(fed);

  const std::string file = ReadFile(path).value();
  ASSERT_EQ(file.substr(0, 8), "LYRAFED_");
  EXPECT_EQ(file.substr(8, 4), std::string("\x04\0\0\0", 4))
      << "version word";
  EXPECT_EQ(file.find("LYRASHRD"), std::string::npos);
  StatusOr<FedSnapshot> written = LoadFedSnapshot(path);
  ASSERT_TRUE(written.ok()) << written.status().message();
  const char* names[] = {"inf0", "inf1", "train0", "train1"};
  ASSERT_EQ(written.value().clusters.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    const FedClusterImage& cluster = written.value().clusters[c];
    EXPECT_EQ(cluster.name, names[c]);
    EXPECT_EQ(cluster.image.substr(0, 8), "LYRASNAP") << cluster.name;
  }

  int built = 0;
  const auto counting_driver = [&built](int shard) {
    ++built;
    return MakeVirtualDriver(shard);
  };
  const FedClusterImage& train1 = written.value().clusters[3];
  const std::pair<const char*, std::string> retired[] = {
      {"bare LYRASNAP", train1.image},
      {"LYRASHRD", RetiredClusterImage(train1, 2, seq_before)},
      {"LYRAFED v1", RetiredFedFile(written.value(), 1, 2)},
      {"LYRAFED v2", RetiredFedFile(written.value(), 2, 2)},
      {"LYRAFED v3, one engine per cluster",
       RetiredFedFile(written.value(), 3, 1)},
      {"LYRAFED v3, two engines per cluster",
       RetiredFedFile(written.value(), 3, 2)},
  };
  const std::string retired_path = TempPath("retired");
  for (const auto& [name, bytes] : retired) {
    ASSERT_TRUE(WriteFileAtomic(retired_path, bytes).ok());
    StatusOr<FederationSet> refused =
        RestoreFederation(BaseOptions(), retired_path, counting_driver);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << name << ": " << refused.status().message();
    EXPECT_EQ(built, 0) << name;
  }
  std::remove(retired_path.c_str());

  StatusOr<FederationSet> restored =
      RestoreFederation(BaseOptions(), path, counting_driver);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(built, 4);
  const FederationRouter& resumed = *restored.value().router;
  ASSERT_EQ(resumed.shard_count(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(resumed.cluster_spec(c).name, names[c]);
    EXPECT_EQ(resumed.cluster_spec(c).kind,
              c < 2 ? ClusterKind::kInference : ClusterKind::kTraining);
  }
  EXPECT_EQ(resumed.submit_seq(), seq_before);
  EXPECT_EQ(resumed.ledger_hash(), hash_before);
  StopFed(restored.value());
  std::remove(path.c_str());
}

// A LYRASNAP image in the layout of `version`: version 2 carried a
// weights-file path after the reclaim name, version 3 dropped it. The log is
// one advance command.
std::string SnapshotImageOfVersion(const EngineConfig& config,
                                   std::uint32_t version) {
  ByteWriter payload;
  payload.Str(config.scheduler);
  payload.Str(config.reclaim);
  if (version == 2) {
    payload.Str("weights.bin");
  }
  payload.Bool(config.info_agnostic);
  payload.Bool(config.tuned);
  payload.Bool(config.loaning);
  payload.Bool(config.lstm);
  payload.Bool(config.faults);
  payload.F64(config.scale);
  payload.F64(config.horizon_days);
  payload.U64(config.seed);
  payload.U64(1);
  payload.U8(static_cast<std::uint8_t>(CommandKind::kAdvance));
  payload.F64(600.0);
  payload.F64(600.0);  // horizon
  return Seal({"LYRASNAP", version}, payload.bytes());
}

// The snapshot file at `path`: `images` as the clusters train0, train1, ...
void WriteTrainingFleet(const std::string& path,
                        const std::vector<std::string>& images) {
  FedSnapshot fed;
  for (std::size_t c = 0; c < images.size(); ++c) {
    fed.clusters.push_back({"train" + std::to_string(c), 1, images[c]});
  }
  ASSERT_TRUE(WriteFileAtomic(path, EncodeFedSnapshot(fed)).ok());
}

// LYRASNAP version 3 is the one engine image a restore reads. A version-2
// image is refused as InvalidArgument naming its version, by the decoder
// and, inside a one-cluster container, by --restore before any engine is
// built; the same log in the current layout restores.
TEST(Federation, RetiredSnapshotVersionIsRefused) {
  const EngineConfig config = BaseOptions().engine;
  const std::string retired = SnapshotImageOfVersion(config, 2);
  const StatusOr<ServiceSnapshot> decoded = DecodeSnapshot(retired, "v2 image");
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported LYRASNAP version 2"),
            std::string::npos)
      << decoded.status().message();

  int built = 0;
  const auto counting_driver = [&built](int shard) {
    ++built;
    return MakeVirtualDriver(shard);
  };
  const std::string path = TempPath("snap_v2");
  WriteTrainingFleet(path, {retired});
  StatusOr<FederationSet> refused =
      RestoreFederation(BaseOptions(), path, counting_driver);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("unsupported LYRASNAP version 2"),
            std::string::npos)
      << refused.status().message();
  EXPECT_EQ(built, 0);

  ServiceSnapshot current;
  current.config = config;
  current.commands = {{CommandKind::kAdvance, 600.0, {}, -1}};
  current.horizon = 600.0;
  ASSERT_EQ(SnapshotImageOfVersion(config, 3), EncodeSnapshot(current));
  WriteTrainingFleet(path, {SnapshotImageOfVersion(config, 3)});
  StatusOr<FederationSet> restored =
      RestoreFederation(BaseOptions(), path, counting_driver);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(built, 1);
  StopFed(restored.value());
  std::remove(path.c_str());
}

// Snapshots `fed` after a short script to `path` and stops it: submits
// spread over its clusters, then an advance past their start.
void SnapshotAfterScript(FederationSet& fed, const std::string& path) {
  FederationRouter& router = *fed.router;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  const JsonValue written = router.Execute(snap);
  ASSERT_TRUE(written.GetBool("ok")) << written.Dump();
  StopFed(fed);
}

// A one-cluster fleet writes the same container as a larger one, so a warm
// restart keeps the cluster's name and kind (an inference cluster included)
// along with its jobs: federation_stats' cluster entry is the same before
// and after.
TEST(Federation, OneClusterFleetKeepsItsIdentityAcrossRestore) {
  const std::pair<const char*, const char*> fleets[] = {
      {"edge:inf", R"("name":"edge","kind":"inference")"},
      {"1x0", R"("name":"inf0","kind":"inference")"}};
  for (const auto& [spec, identity] : fleets) {
    SCOPED_TRACE(spec);
    FederationSet fed = BuildFed(spec);
    ASSERT_EQ(fed.router->shard_count(), 1);
    const std::string path = TempPath("one_cluster");
    ASSERT_TRUE(fed.router->Execute(Submit(0.0, 36000.0)).GetBool("ok"));
    ASSERT_TRUE(fed.router->Execute(Advance(600.0)).GetBool("ok"));
    const JsonValue before = fed.router->Execute(Cmd("federation_stats"));
    ASSERT_TRUE(before.GetBool("ok")) << before.Dump();
    JsonValue snap = Cmd("snapshot");
    snap.Set("path", JsonValue::MakeString(path));
    ASSERT_TRUE(fed.router->Execute(snap).GetBool("ok"));
    StopFed(fed);
    EXPECT_EQ(ReadFile(path).value().substr(0, 8), "LYRAFED_");

    StatusOr<FederationSet> restored =
        RestoreFederation(BaseOptions(), path, MakeVirtualDriver);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    const JsonValue after =
        restored.value().router->Execute(Cmd("federation_stats"));
    ASSERT_TRUE(after.GetBool("ok")) << after.Dump();
    EXPECT_NE(after.Dump().find(identity), std::string::npos) << after.Dump();
    ASSERT_NE(before.Find("clusters"), nullptr);
    ASSERT_NE(after.Find("clusters"), nullptr);
    EXPECT_EQ(after.Find("clusters")->Dump(), before.Find("clusters")->Dump());
    StopFed(restored.value());
    std::remove(path.c_str());
  }
}

// The whole file is checked before any engine is built: a container whose
// cluster k holds a retired-version or a corrupt LYRASNAP image is refused
// without a single engine, whichever cluster k is.
TEST(Federation, BadImageAtAnyClusterBuildsNoEngine) {
  FederationSet fed = BuildFed("2x2");
  const std::string path = TempPath("bad_image");
  SnapshotAfterScript(fed, path);
  StatusOr<FedSnapshot> written = LoadFedSnapshot(path);
  ASSERT_TRUE(written.ok()) << written.status().message();
  ASSERT_EQ(written.value().clusters.size(), 4u);

  int built = 0;
  const auto counting_driver = [&built](int shard) {
    ++built;
    return MakeVirtualDriver(shard);
  };
  std::string corrupt = written.value().clusters[2].image;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x5a);
  const std::pair<std::string, StatusCode> bad_images[] = {
      {SnapshotImageOfVersion(BaseOptions().engine, 2), StatusCode::kInvalidArgument},
      {corrupt, StatusCode::kDataLoss}};
  const std::string bad_path = TempPath("bad_image_file");
  for (std::size_t k = 0; k < 4; ++k) {
    for (const auto& [image, code] : bad_images) {
      SCOPED_TRACE("cluster " + std::to_string(k));
      FedSnapshot bad = written.value();
      bad.clusters[k].image = image;
      ASSERT_TRUE(WriteFileAtomic(bad_path, EncodeFedSnapshot(bad)).ok());
      built = 0;
      StatusOr<FederationSet> refused =
          RestoreFederation(BaseOptions(), bad_path, counting_driver);
      EXPECT_EQ(refused.status().code(), code) << refused.status().message();
      EXPECT_NE(refused.status().message().find(
                    "(cluster " + written.value().clusters[k].name + ")"),
                std::string::npos)
          << refused.status().message();
      EXPECT_EQ(built, 0);
    }
  }
  std::remove(bad_path.c_str());

  // A lone engine restores exactly one cluster; the good file restores.
  SchedulerService lone(BaseOptions(), MakeVirtualDriver(0));
  EXPECT_EQ(lone.Restore(path).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(lone.stopped());
  built = 0;
  StatusOr<FederationSet> restored =
      RestoreFederation(BaseOptions(), path, counting_driver);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(built, 4);
  StopFed(restored.value());
  std::remove(path.c_str());
}

// A snapshot's cluster list obeys the rule a --federation spec does
// (ValidateClusters): a re-sealed container naming a cluster "", twice, or
// with a quote or a newline (a name that would write its own samples into
// the lyra_fed_cluster_info labels of /metrics) is refused as
// InvalidArgument before any engine is built, by the fleet restore and by a
// lone engine's.
TEST(Federation, RestoredClusterNamesFollowTheSpecRule) {
  FederationSet fed = BuildFed("0x2");
  const std::string path = TempPath("names");
  SnapshotAfterScript(fed, path);
  StatusOr<FedSnapshot> written = LoadFedSnapshot(path);
  ASSERT_TRUE(written.ok()) << written.status().message();
  ASSERT_EQ(written.value().clusters.size(), 2u);

  int built = 0;
  const auto counting_driver = [&built](int shard) {
    ++built;
    return MakeVirtualDriver(shard);
  };
  const std::string bad_names[] = {
      "", "train1", "a\"b", "a\nb",
      "x\",kind=\"training\",shard=\"0\"} 1\nlyra_injected_total 42\n#"};
  const std::string bad_path = TempPath("names_file");
  for (const std::string& name : bad_names) {
    SCOPED_TRACE("name \"" + name + "\"");
    FedSnapshot bad = written.value();
    bad.clusters[0].name = name;
    ASSERT_TRUE(WriteFileAtomic(bad_path, EncodeFedSnapshot(bad)).ok());
    built = 0;
    StatusOr<FederationSet> refused =
        RestoreFederation(BaseOptions(), bad_path, counting_driver);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().message();
    EXPECT_EQ(built, 0);
    if (name == "train1") {
      continue;  // a duplicate needs two clusters
    }

    bad.clusters.resize(1);
    ASSERT_TRUE(WriteFileAtomic(bad_path, EncodeFedSnapshot(bad)).ok());
    SchedulerService lone(BaseOptions(), MakeVirtualDriver(0));
    const Status lone_status = lone.Restore(bad_path);
    EXPECT_EQ(lone_status.code(), StatusCode::kInvalidArgument)
        << lone_status.message();
    EXPECT_TRUE(lone.stopped());
  }
  std::remove(bad_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lyra::svc
