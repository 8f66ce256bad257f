// Engine-fleet tests (DESIGN.md §10) on N training clusters of one engine
// each, the `--federation=0xN` fleet: deterministic routing of untargeted
// submits (same key / same job id always lands on the same engine,
// global↔local id arithmetic round-trips), merged reads (cluster_stats
// across engines equals the sum of the per-engine snapshots, and the
// exposition folds registry histograms bucketwise), wire job ids outside [0, 2^53]
// rejected before any routing, the one snapshot file (LYRAFED at four
// engines, holding each engine's own image, and at one), a
// randomized kill-and-warm-restart at 0x4 that must reproduce every
// engine's decision log byte-for-byte, and pipelined reply ordering over
// the fleet's event loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/prom.h"
#include "src/svc/service.h"
#include "src/svc/snapshot.h"
#include "src/svc/state_snapshot.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"

namespace lyra::svc {
namespace {

constexpr int kShards = 4;

std::string TempPath(const char* tag) {
  return "/tmp/lyra_shard_test_" + std::to_string(::getpid()) + "_" + tag;
}

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue Submit(double at, double work, int max_workers = 1,
                 const char* key = nullptr) {
  JsonValue cmd = Cmd("submit");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("gpus_per_worker", JsonValue::MakeNumber(1));
  cmd.Set("min_workers", JsonValue::MakeNumber(1));
  cmd.Set("max_workers", JsonValue::MakeNumber(max_workers));
  cmd.Set("total_work", JsonValue::MakeNumber(work));
  cmd.Set("fungible", JsonValue::MakeBool(true));
  if (key != nullptr) {
    cmd.Set("key", JsonValue::MakeString(key));
  }
  return cmd;
}

JsonValue Cancel(double at, std::int64_t job) {
  JsonValue cmd = Cmd("cancel");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  return cmd;
}

JsonValue Advance(double to) {
  JsonValue cmd = Cmd("advance");
  cmd.Set("to", JsonValue::MakeNumber(to));
  return cmd;
}

ServiceOptions FleetOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.engine.faults = true;  // crashes/storms must replay exactly too
  options.engine.seed = 1234;
  options.auto_advance = false;
  return options;
}

std::unique_ptr<TimeDriver> MakeVirtualDriver(int /*shard*/) {
  return std::make_unique<VirtualTimeDriver>();
}

// `--federation=0x<shards>`: training clusters train0..train<shards-1>.
FederationSet BuildFleet(int shards,
                         const ServiceOptions& options = FleetOptions()) {
  StatusOr<std::vector<ClusterSpec>> clusters =
      ParseFederationSpec("0x" + std::to_string(shards));
  EXPECT_TRUE(clusters.ok()) << clusters.status().message();
  StatusOr<FederationSet> built =
      BuildFederation(options, clusters.value(), MakeVirtualDriver);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built.value());
}

// What one engine alone answers: the reply of a one-engine router over it.
JsonValue EngineExecute(SchedulerService* engine, const JsonValue& request) {
  FederationRouter solo({engine}, SingleCluster());
  return solo.Execute(request);
}

void StopFleet(FederationSet& fleet) {
  for (auto& service : fleet.services) {
    service->Stop();
  }
}

// Mirror of the router's keyless routing: FNV-1a over the submit sequence
// number's 8 little-endian bytes. Recomputed here so the tests predict the
// shard (and therefore the global job id) of every scripted submit without
// asking the router — an independent check that routing is a pure function
// of (key | sequence), not of timing.
std::uint32_t PredictKeylessShard(std::uint64_t seq, int shards) {
  return static_cast<std::uint32_t>(Fnv1aU64(seq) %
                                    static_cast<std::uint64_t>(shards));
}

std::uint32_t PredictKeyShard(const std::string& key, int shards) {
  return static_cast<std::uint32_t>(Fnv1a(key) %
                                    static_cast<std::uint64_t>(shards));
}

// A deterministic fleet script plus, for every submit, the global job id the
// router must hand back (computed from the mirrored routing above and the
// per-shard local counters). Cancels target ids issued earlier in the
// script, so they exercise the id-to-shard route on real jobs.
struct FleetScript {
  std::vector<JsonValue> commands;
  std::vector<std::int64_t> expected_job;  // -1 for non-submit commands
};

FleetScript MakeFleetScript(int shards) {
  FleetScript script;
  std::uint64_t seq = 0;
  std::vector<std::int64_t> local(static_cast<std::size_t>(shards), 0);
  std::vector<std::int64_t> issued;

  const auto submit = [&](double at, double work, int max_workers,
                          const char* key) {
    const std::uint32_t shard =
        key != nullptr ? PredictKeyShard(key, shards)
                       : PredictKeylessShard(seq++, shards);
    const std::int64_t id = local[shard]++ * shards + shard;
    issued.push_back(id);
    script.commands.push_back(Submit(at, work, max_workers, key));
    script.expected_job.push_back(id);
  };
  const auto other = [&](JsonValue cmd) {
    script.commands.push_back(std::move(cmd));
    script.expected_job.push_back(-1);
  };

  submit(0.0, 50000.0, 4, nullptr);
  submit(0.0, 200000.0, 1, "tenant-a");
  submit(600.0, 7200.0, 1, nullptr);
  submit(600.0, 120000.0, 2, "tenant-b");
  other(Advance(3000.0));
  other(Cancel(3600.0, issued[1]));
  submit(5000.0, 100000.0, 2, nullptr);
  submit(5000.0, 90000.0, 1, nullptr);
  other(Advance(20000.0));
  submit(30000.0, 40000.0, 8, "tenant-a");
  other(Cancel(40000.0, issued[3]));
  submit(41000.0, 60000.0, 2, nullptr);
  other(Cmd("drain"));
  return script;
}

// Per-shard terminal state of a fleet run; the unit of byte-for-byte
// comparison between an uninterrupted run and a kill-and-restore run.
struct FleetOutcome {
  std::vector<std::vector<DecisionRecord>> decisions;
  std::vector<std::uint64_t> fault_hashes;
  std::vector<double> final_times;
};

FleetOutcome CollectOutcome(const FederationSet& fleet) {
  FleetOutcome outcome;
  for (const auto& service : fleet.services) {
    outcome.decisions.push_back(service->simulator().decision_log().records());
    const FaultInjector* faults = service->simulator().fault_injector();
    outcome.fault_hashes.push_back(faults != nullptr ? faults->log_hash() : 0);
    outcome.final_times.push_back(service->simulator().now());
  }
  return outcome;
}

// Applies script[0..n) through the router on a fresh kShards fleet,
// snapshotting after `cut` commands into `snapshot_path` (when cut >= 0) and
// stopping there — the "kill". Submit replies are checked against the
// predicted global ids along the way.
FleetOutcome RunFleetScript(const FleetScript& script, int cut,
                            const std::string& snapshot_path) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  for (std::size_t i = 0; i < script.commands.size(); ++i) {
    if (cut >= 0 && static_cast<std::size_t>(cut) == i) {
      JsonValue snap = Cmd("snapshot");
      snap.Set("path", JsonValue::MakeString(snapshot_path));
      const JsonValue reply = router.Execute(snap);
      EXPECT_TRUE(reply.GetBool("ok")) << reply.Dump();
      EXPECT_EQ(reply.GetDouble("clusters", 0.0), kShards);
      StopFleet(fleet);
      return CollectOutcome(fleet);
    }
    const JsonValue reply = router.Execute(script.commands[i]);
    if (script.expected_job[i] >= 0) {
      EXPECT_TRUE(reply.GetBool("ok")) << "cmd " << i << ": " << reply.Dump();
      EXPECT_EQ(reply.GetDouble("job", -1.0),
                static_cast<double>(script.expected_job[i]))
          << "cmd " << i << " routed off-script: " << reply.Dump();
    }
  }
  StopFleet(fleet);
  return CollectOutcome(fleet);
}

// Restores a fleet from `snapshot_path` and applies script[cut..n). The base
// options are deliberately wrong — each shard's persisted EngineConfig must
// win, and the restored submit counter must route the remaining keyless
// submits to the same shards (checked via the predicted ids).
FleetOutcome ResumeFleetScript(const FleetScript& script, int cut,
                               const std::string& snapshot_path) {
  ServiceOptions options = FleetOptions();
  options.engine.scheduler = "fifo";
  options.engine.seed = 1;
  options.engine.faults = false;
  StatusOr<FederationSet> restored =
      RestoreFederation(options, snapshot_path, MakeVirtualDriver);
  EXPECT_TRUE(restored.ok()) << restored.status().message();
  FederationSet fleet = std::move(restored.value());
  FederationRouter& router = *fleet.router;
  EXPECT_EQ(router.shard_count(), kShards);
  for (int k = 0; k < kShards; ++k) {
    EXPECT_EQ(router.shard(k)->options().engine.scheduler, "lyra");
    EXPECT_EQ(router.shard(k)->options().engine.seed,
              1234u + static_cast<std::uint64_t>(k));
  }
  for (std::size_t i = static_cast<std::size_t>(cut);
       i < script.commands.size(); ++i) {
    const JsonValue reply = router.Execute(script.commands[i]);
    if (script.expected_job[i] >= 0) {
      EXPECT_TRUE(reply.GetBool("ok")) << "cmd " << i << ": " << reply.Dump();
      EXPECT_EQ(reply.GetDouble("job", -1.0),
                static_cast<double>(script.expected_job[i]))
          << "restored routing diverged at cmd " << i << ": " << reply.Dump();
    }
  }
  StopFleet(fleet);
  return CollectOutcome(fleet);
}

TEST(Shard, JobIdArithmeticRoundTripsAndEncodesTheShard) {
  FederationSet fleet = BuildFleet(kShards);
  const FederationRouter& router = *fleet.router;
  for (std::int64_t local = 0; local < 100; ++local) {
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      const FleetIds& ids = router.shard(static_cast<int>(shard))->ids();
      const std::int64_t global = ids.Global(local);
      EXPECT_EQ(router.ShardOfJob(global), shard);
      EXPECT_EQ(ids.Local(global), local);
    }
  }
  StopFleet(fleet);
}

// One naming rule for per-engine files (trace streams, flight dumps,
// trace_dump); an empty path means the output is off on every engine.
TEST(Shard, EnginePathNamesOneFilePerEngine) {
  EXPECT_EQ(EnginePath("/tmp/t.json", 0), "/tmp/t.json");
  EXPECT_EQ(EnginePath("/tmp/t.json", 3), "/tmp/t.json.shard3");
  EXPECT_EQ(EnginePath("", 0), "");
  EXPECT_EQ(EnginePath("", 2), "");
}

TEST(Shard, SameKeyAlwaysLandsOnTheSameShard) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  const std::uint32_t expected = PredictKeyShard("tenant-a", kShards);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const JsonValue reply =
        router.Execute(Submit(0.0, 36000.0, 1, "tenant-a"));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ids.push_back(reply.AsObject().empty()
                      ? -1
                      : static_cast<std::int64_t>(reply.GetDouble("job", -1)));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_GE(ids[i], 0);
    // Same key -> same shard: every global id carries the same residue.
    EXPECT_EQ(router.ShardOfJob(ids[i]), expected) << "id " << ids[i];
    // And on that shard, local ids are the engine's plain sequence.
    EXPECT_EQ(router.shard(static_cast<int>(expected))->ids().Local(ids[i]),
              static_cast<std::int64_t>(i));
  }
  // A query or cancel for any of those ids routes by the id alone and finds
  // the job — the id is the route.
  for (const std::int64_t id : ids) {
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(static_cast<double>(id)));
    const JsonValue reply = router.Execute(query);
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    EXPECT_EQ(reply.GetDouble("job", -1.0), static_cast<double>(id));
  }
  const JsonValue cancelled = router.Execute(Cancel(10.0, ids[2]));
  EXPECT_TRUE(cancelled.GetBool("ok")) << cancelled.Dump();
  // A job that was never issued reports its *global* id in the error.
  const std::int64_t missing =
      router.shard(static_cast<int>(expected))->ids().Global(9999);
  const JsonValue not_found = router.Execute(Cancel(10.0, missing));
  EXPECT_FALSE(not_found.GetBool("ok"));
  const std::string message = not_found.GetString("error");
  EXPECT_NE(message.find(std::to_string(missing)), std::string::npos)
      << message;
  StopFleet(fleet);
}

// Every engine error that names a job names the id the client sent: a
// cancel of a finished job answers failed_precondition with its global id,
// not the engine's local one.
TEST(Shard, CancelOfATerminatedJobNamesItsGlobalId) {
  FederationSet fleet = BuildFleet(2);
  FederationRouter& router = *fleet.router;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const JsonValue reply = router.Execute(Submit(0.0, 3600.0));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ids.push_back(static_cast<std::int64_t>(reply.GetDouble("job", -1.0)));
  }
  ASSERT_TRUE(router.Execute(Cmd("drain")).GetBool("ok"));
  for (const std::int64_t id : ids) {
    const JsonValue reply = router.Execute(Cancel(0.0, id));
    ASSERT_FALSE(reply.GetBool("ok", true)) << reply.Dump();
    ASSERT_EQ(reply.GetString("code"), "failed_precondition") << reply.Dump();
    EXPECT_NE(reply.GetString("error").find("job " + std::to_string(id) + " "),
              std::string::npos)
        << "cancel of " << id << ": " << reply.Dump();
  }
  StopFleet(fleet);
}

// An engine takes only its own fleet ids: a cancel naming another engine's
// job is not_found with that id, and nothing is logged.
TEST(Shard, EngineRefusesAnotherEnginesJobId) {
  FederationSet fleet = BuildFleet(2);
  ASSERT_TRUE(fleet.router->Execute(Submit(0.0, 3600.0, 1, "k")).GetBool("ok"));
  const std::uint32_t owner = PredictKeyShard("k", 2);
  SchedulerService* other = fleet.services[1 - owner].get();
  const std::int64_t job = fleet.services[owner]->ids().Global(0);
  const JsonValue reply = EngineExecute(other, Cancel(0.0, job));
  EXPECT_EQ(reply.GetString("code"), "not_found") << reply.Dump();
  EXPECT_EQ(reply.GetString("error"), "no such job: " + std::to_string(job));
  StopFleet(fleet);
  EXPECT_TRUE(other->command_log().empty());
}

TEST(Shard, KeylessSubmitsFollowTheRoutingCounter) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  std::vector<std::int64_t> local(kShards, 0);
  std::set<std::int64_t> seen;
  for (std::uint64_t seq = 0; seq < 24; ++seq) {
    const std::uint32_t shard = PredictKeylessShard(seq, kShards);
    const std::int64_t expected = local[shard]++ * kShards + shard;
    const JsonValue reply = router.Execute(Submit(0.0, 36000.0));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    EXPECT_EQ(reply.GetDouble("job", -1.0), static_cast<double>(expected))
        << "seq " << seq;
    EXPECT_TRUE(seen.insert(expected).second) << "global id collided";
  }
  EXPECT_EQ(router.submit_seq(), 24u);
  StopFleet(fleet);
}

TEST(Shard, ClusterStatsMergeEqualsSumOfPerShardSnapshots) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(router.Execute(Submit(0.0, 90000.0, 2)).GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(7200.0)).GetBool("ok"));

  const JsonValue merged = router.Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(merged.GetBool("ok")) << merged.Dump();

  // Rebuild the per-shard replies from the published snapshots and check
  // that every numeric the merge claims is the exact sum (job counters and
  // capacity pools alike — a shard fleet reports fleet-wide capacity).
  std::vector<JsonValue> parts;
  double max_time = 0.0;
  for (int k = 0; k < kShards; ++k) {
    const std::shared_ptr<const StateSnapshot> snap =
        router.shard(k)->snapshot();
    ASSERT_NE(snap, nullptr);
    parts.push_back(EngineExecute(router.shard(k), Cmd("cluster_stats")));
    max_time = std::max(max_time, snap->time);
  }
  const auto sum_of = [&parts](const char* section, const std::string& key) {
    double total = 0.0;
    for (const JsonValue& part : parts) {
      const JsonValue* obj = part.Find(section);
      total += obj != nullptr ? obj->GetDouble(key) : 0.0;
    }
    return total;
  };
  const JsonValue* jobs = merged.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  for (const auto& [key, value] : jobs->AsObject()) {
    ASSERT_TRUE(value.is_number());
    EXPECT_EQ(value.AsDouble(), sum_of("jobs", key)) << "jobs." << key;
  }
  EXPECT_EQ(jobs->GetDouble("total"), 20.0);
  const JsonValue* cluster = merged.Find("cluster");
  ASSERT_NE(cluster, nullptr);
  for (const auto& [pool_name, pool] : cluster->AsObject()) {
    ASSERT_TRUE(pool.is_object());
    for (const auto& [key, value] : pool.AsObject()) {
      if (!value.is_number()) {
        continue;
      }
      double total = 0.0;
      for (const JsonValue& part : parts) {
        const JsonValue* other = part.Find("cluster");
        ASSERT_NE(other, nullptr);
        const JsonValue* other_pool = other->Find(pool_name);
        ASSERT_NE(other_pool, nullptr);
        total += other_pool->GetDouble(key);
      }
      EXPECT_EQ(value.AsDouble(), total) << pool_name << "." << key;
    }
  }
  // Time merges as the max across shards, not a sum.
  EXPECT_DOUBLE_EQ(merged.GetDouble("time"), max_time);
  double events = 0.0;
  for (const JsonValue& part : parts) {
    events += part.GetDouble("events_processed");
  }
  EXPECT_DOUBLE_EQ(merged.GetDouble("events_processed"), events);
  StopFleet(fleet);
}

// The fleet exposition folds each registry histogram bucketwise: the
// merged (unlabelled) row's buckets are the sums of the shard="k" rows'
// buckets, so its count is the sum of the per-engine counts.
TEST(Shard, MetricsMergeFoldsRegistryHistogramsBucketwise) {
  FederationSet fleet = BuildFleet(2);
  FederationRouter& router = *fleet.router;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    ASSERT_TRUE(
        router.Execute(Submit(0.0, 7200.0, 1, key.c_str())).GetBool("ok"));
  }
  // Past the registry refresh interval, so the advance's publish copies
  // both registries after the submits.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(router.Execute(Advance(7200.0)).GetBool("ok"));

  const StatusOr<PromScrape> scrape = ParsePrometheus(
      router.Execute(Cmd("stats_prom")).GetString("text", ""));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  const std::string family = "lyra_engine_sim_pending_jobs_per_tick";
  const StatusOr<obs::Histogram> merged =
      ExtractHistogram(scrape.value(), family);
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  std::vector<std::uint64_t> buckets(merged.value().bucket_counts().size());
  std::uint64_t counts = 0;
  double sum = 0.0;
  for (int k = 0; k < 2; ++k) {
    const StatusOr<obs::Histogram> part = ExtractHistogram(
        scrape.value(), family, {{"shard", std::to_string(k)}});
    ASSERT_TRUE(part.ok()) << "engine " << k << ": " << part.status().message();
    ASSERT_GT(part.value().count(), 0u) << "engine " << k;
    ASSERT_EQ(part.value().upper_bounds(), merged.value().upper_bounds());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += part.value().bucket_counts()[i];
    }
    counts += part.value().count();
    sum += part.value().sum();
  }
  EXPECT_EQ(merged.value().bucket_counts(), buckets);
  EXPECT_EQ(merged.value().count(), counts);
  // Each row's sum is printed to ten significant digits.
  EXPECT_NEAR(merged.value().sum(), sum, 1e-9 * std::max(1.0, sum));
  StopFleet(fleet);
}

TEST(Shard, WarmRestartReplaysEveryShardByteForByte) {
  const FleetScript script = MakeFleetScript(kShards);
  const FleetOutcome baseline = RunFleetScript(script, /*cut=*/-1, "");
  ASSERT_EQ(baseline.decisions.size(), static_cast<std::size_t>(kShards));
  // Sharded routing spread real work everywhere: every shard decided things.
  for (int k = 0; k < kShards; ++k) {
    EXPECT_FALSE(baseline.decisions[k].empty()) << "shard " << k;
  }

  Rng rng(99);
  const int n = static_cast<int>(script.commands.size());
  std::vector<int> cuts = {0, n - 1};
  for (int i = 0; i < 3; ++i) {
    cuts.push_back(static_cast<int>(rng.UniformInt(1, n - 2)));
  }
  for (const int cut : cuts) {
    const std::string path = TempPath(("cut" + std::to_string(cut)).c_str());
    RunFleetScript(script, cut, path);
    const FleetOutcome resumed = ResumeFleetScript(script, cut, path);
    ASSERT_EQ(resumed.decisions.size(), static_cast<std::size_t>(kShards));
    for (int k = 0; k < kShards; ++k) {
      EXPECT_EQ(resumed.decisions[k].size(), baseline.decisions[k].size())
          << "cut=" << cut << " shard=" << k;
      EXPECT_TRUE(resumed.decisions[k] == baseline.decisions[k])
          << "decision log diverged after restore at cut=" << cut
          << " shard=" << k;
      EXPECT_EQ(resumed.fault_hashes[k], baseline.fault_hashes[k])
          << "cut=" << cut << " shard=" << k;
      EXPECT_DOUBLE_EQ(resumed.final_times[k], baseline.final_times[k])
          << "cut=" << cut << " shard=" << k;
    }
    std::remove(path.c_str());
  }
}

// A fleet of four engines writes one LYRAFED container: the training
// clusters train0..train3, each holding its engine's image, plus the
// routing counter. Each image is, byte for byte, the one the engine writes
// into its own one-cluster file.
TEST(Shard, FourEngineSnapshotIsOneLyrafedContainer) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));
  const std::string path = TempPath("lyrafed");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  const JsonValue reply = router.Execute(snap);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_EQ(reply.Find("shards"), nullptr) << reply.Dump();
  EXPECT_EQ(reply.GetDouble("clusters", 0.0), kShards);
  std::vector<std::string> own;
  for (int k = 0; k < kShards; ++k) {
    const std::string part = TempPath(("own" + std::to_string(k)).c_str());
    snap.Replace("path", JsonValue::MakeString(part));
    ASSERT_TRUE(EngineExecute(fleet.services[k].get(), snap).GetBool("ok"));
    StatusOr<FedSnapshot> solo = LoadFedSnapshot(part);
    ASSERT_TRUE(solo.ok()) << solo.status().message();
    ASSERT_EQ(solo.value().clusters.size(), 1u);
    own.push_back(solo.value().clusters[0].image);
    std::remove(part.c_str());
  }
  StopFleet(fleet);

  EXPECT_EQ(ReadFile(path).value().substr(0, 8), "LYRAFED_");
  StatusOr<FedSnapshot> loaded = LoadFedSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().submit_seq, 6u);
  const std::vector<FedClusterImage>& clusters = loaded.value().clusters;
  ASSERT_EQ(clusters.size(), own.size());
  for (int k = 0; k < kShards; ++k) {
    EXPECT_EQ(clusters[k].name, "train" + std::to_string(k));
    EXPECT_EQ(own[k].substr(0, 8), "LYRASNAP") << "engine " << k;
    EXPECT_TRUE(clusters[k].image == own[k]) << "engine " << k;
  }
  std::remove(path.c_str());
}

// One engine writes the same LYRAFED container as a fleet, of one cluster
// (train0, training) whose image is the engine's own, and restores as a
// one-engine fleet under that cluster's name.
TEST(Shard, OneEngineWritesAOneClusterLyrafed) {
  FederationSet fleet = BuildFleet(1);
  FederationRouter& router = *fleet.router;
  ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));
  const std::string routed = TempPath("routed");
  const std::string direct = TempPath("direct");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(routed));
  const JsonValue reply = router.Execute(snap);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_EQ(reply.Find("clusters"), nullptr) << reply.Dump();
  snap.Replace("path", JsonValue::MakeString(direct));
  ASSERT_TRUE(EngineExecute(fleet.services[0].get(), snap).GetBool("ok"));
  StopFleet(fleet);

  const std::string bytes = ReadFile(routed).value();
  EXPECT_EQ(bytes.substr(0, 8), "LYRAFED_");
  EXPECT_EQ(bytes.substr(8, 4), std::string("\x04\0\0\0", 4)) << "version word";
  StatusOr<FedSnapshot> file = LoadFedSnapshot(routed);
  StatusOr<FedSnapshot> own = LoadFedSnapshot(direct);
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_TRUE(own.ok()) << own.status().message();
  ASSERT_EQ(file.value().clusters.size(), 1u);
  EXPECT_EQ(file.value().clusters[0].name, "train0");
  EXPECT_EQ(file.value().clusters[0].kind,
            static_cast<std::uint8_t>(ClusterKind::kTraining));
  EXPECT_EQ(file.value().clusters[0].image.substr(0, 8), "LYRASNAP");
  EXPECT_TRUE(file.value().clusters[0].image == own.value().clusters[0].image);
  StatusOr<FederationSet> restored =
      RestoreFederation(FleetOptions(), routed, MakeVirtualDriver);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().router->shard_count(), 1);
  EXPECT_EQ(restored.value().router->cluster_spec(0).name, "train0");
  StopFleet(restored.value());
  std::remove(routed.c_str());
  std::remove(direct.c_str());
}

// A malformed fanout command is decoded before it is copied to the engines:
// it is answered once, with no "shard" field, counts one command error and
// reaches no engine queue.
TEST(Shard, MalformedFanoutCommandIsAnsweredOnce) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  const struct {
    const char* request;
    const char* reply;
  } cases[] = {
      {R"({"cmd":"advance","seq":7})",
       R"({"ok":false,"code":"invalid_argument","error":"advance requires a finite non-negative \"to\"","seq":7})"},
      {R"({"cmd":"advance","to":-5})",
       R"({"ok":false,"code":"invalid_argument","error":"advance requires a finite non-negative \"to\""})"},
      {R"({"cmd":"snapshot"})",
       R"({"ok":false,"code":"invalid_argument","error":"snapshot requires a \"path\""})"},
  };
  for (const auto& row : cases) {
    const SchedulerService::Stats before = router.AggregateStats();
    const JsonValue reply =
        router.Execute(JsonValue::Parse(row.request).value());
    EXPECT_EQ(reply.Dump(), row.reply);
    const SchedulerService::Stats after = router.AggregateStats();
    EXPECT_EQ(after.command_errors - before.command_errors, 1u) << row.request;
    EXPECT_EQ(after.commands_applied, before.commands_applied) << row.request;
  }
  StopFleet(fleet);
}

// Collects the replies of commands dispatched without waiting, keyed by the
// sink word `a`, as the event loop pipelines one connection's frames.
class ReplyCollector : public SchedulerService::CompletionSink {
 public:
  void OnReply(std::uint64_t a, std::uint64_t /*b*/, JsonValue reply) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      replies_[a] = std::move(reply);
    }
    cv_.notify_all();
  }

  // Waits for the replies to `count` dispatched commands and takes them in
  // sink-word order.
  std::vector<JsonValue> Take(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return replies_.size() == count; });
    std::vector<JsonValue> replies;
    for (auto& entry : replies_) {
      replies.push_back(std::move(entry.second));
    }
    replies_.clear();
    return replies;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, JsonValue> replies_;
};

// Routes and dispatches `request` as the event loop does, without waiting
// for its reply. These pipelines stay far below the queue capacity, so
// nothing is shed.
void Pipeline(FederationRouter& router, const JsonValue& request,
              const std::shared_ptr<ReplyCollector>& sink, std::uint64_t a) {
  EXPECT_FALSE(router.Dispatch(TelemetryCmdFromName(request.GetString("cmd")),
                               request, sink, a, 0));
}

// Two snapshots to one path, pipelined with a submit between them, round
// after round: both are answered ok, each captures its own command set, and
// the file is the second one's, restoring to engines whose decision logs
// equal the fleet's own.
TEST(Shard, PipelinedSnapshotsToOnePathAreExact) {
  FederationSet fleet = BuildFleet(2);
  FederationRouter& router = *fleet.router;
  ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  const std::string path = TempPath("samepath");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  auto sink = std::make_shared<ReplyCollector>();
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    Pipeline(router, snap, sink, 0);
    Pipeline(router, Submit(60.0 * round, 3600.0), sink, 1);
    Pipeline(router, snap, sink, 2);
    const std::vector<JsonValue> replies = sink->Take(3);
    for (const JsonValue& reply : replies) {
      ASSERT_TRUE(reply.GetBool("ok")) << "round " << round << ": "
                                       << reply.Dump();
    }
    EXPECT_EQ(replies[2].GetDouble("commands", 0.0),
              replies[0].GetDouble("commands", 0.0) + 1.0)
        << "round " << round;
    StatusOr<FedSnapshot> file = LoadFedSnapshot(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    EXPECT_EQ(file.value().submit_seq, router.submit_seq()) << "round " << round;
  }
  StopFleet(fleet);
  const FleetOutcome own = CollectOutcome(fleet);

  StatusOr<FederationSet> restored =
      RestoreFederation(FleetOptions(), path, MakeVirtualDriver);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  StopFleet(restored.value());
  const FleetOutcome again = CollectOutcome(restored.value());
  ASSERT_EQ(again.decisions.size(), own.decisions.size());
  for (std::size_t k = 0; k < own.decisions.size(); ++k) {
    EXPECT_FALSE(own.decisions[k].empty()) << "engine " << k;
    EXPECT_TRUE(again.decisions[k] == own.decisions[k]) << "engine " << k;
    EXPECT_EQ(again.fault_hashes[k], own.fault_hashes[k]) << "engine " << k;
    EXPECT_DOUBLE_EQ(again.final_times[k], own.final_times[k]) << "engine " << k;
  }
}

// A fanout command one engine fails is answered with that engine's error,
// its index, and the client's "seq" once.
TEST(Shard, FailedFanoutReplyEchoesSeqOnce) {
  FederationSet fleet = BuildFleet(2);
  fleet.services[1]->Stop();
  JsonValue advance = Advance(600.0);
  advance.Set("seq", JsonValue::MakeNumber(11));
  EXPECT_EQ(fleet.router->Execute(advance).Dump(),
            R"({"ok":false,"code":"unavailable","error":"service is stopped","shard":1,"seq":11})");
  StopFleet(fleet);
}

// A fleet snapshot whose container cannot be written is answered once: the
// write's own error naming the client's path, no "shard" field, one command
// error, and no file left behind.
TEST(Shard, FailedContainerWriteIsAnsweredOnce) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  const std::string dir = TempPath("snapdir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const struct {
    std::string path;
    std::string reply;
  } cases[] = {
      // The directory does not exist: the temporary file cannot be opened.
      {"/nonexistent-dir/fleet.snap",
       R"({"ok":false,"code":"invalid_argument","error":"cannot open for writing: /nonexistent-dir/fleet.snap.tmp","seq":3})"},
      // The path is a directory: the temporary file is written, and the
      // rename over the directory fails.
      {dir, R"({"ok":false,"code":"internal","error":"rename failed: )" + dir +
                R"(","seq":3})"},
  };
  for (const auto& row : cases) {
    JsonValue snap = Cmd("snapshot");
    snap.Set("path", JsonValue::MakeString(row.path));
    snap.Set("seq", JsonValue::MakeNumber(3));
    const SchedulerService::Stats before = router.AggregateStats();
    EXPECT_EQ(router.Execute(snap).Dump(), row.reply);
    const SchedulerService::Stats after = router.AggregateStats();
    EXPECT_EQ(after.command_errors - before.command_errors, 1u) << row.path;
    EXPECT_EQ(after.commands_applied - before.commands_applied,
              static_cast<std::uint64_t>(kShards))
        << row.path;
    EXPECT_NE(::access((row.path + ".tmp").c_str(), F_OK), 0) << row.path;
    for (int k = 0; k < kShards; ++k) {
      const std::string part = row.path + ".part" + std::to_string(k);
      EXPECT_NE(::access(part.c_str(), F_OK), 0) << part;
    }
  }
  EXPECT_EQ(::rmdir(dir.c_str()), 0) << "the snapshot wrote into " << dir;
  StopFleet(fleet);
}

// Migration needs two clusters: on a one-engine fleet migrate answers
// failed_precondition and cancels nothing.
TEST(Shard, MigrateOnOneClusterIsAFailedPrecondition) {
  FederationSet fleet = BuildFleet(1);
  ASSERT_TRUE(fleet.router->Execute(Submit(0.0, 36000.0)).GetBool("ok"));
  JsonValue migrate = Cmd("migrate");
  migrate.Set("job", JsonValue::MakeNumber(0));
  migrate.Set("to", JsonValue::MakeString("train0"));
  const JsonValue reply = fleet.router->Execute(migrate);
  EXPECT_FALSE(reply.GetBool("ok", true)) << reply.Dump();
  EXPECT_EQ(reply.GetString("code"), "failed_precondition") << reply.Dump();
  EXPECT_EQ(reply.GetString("error"),
            "migration requires at least two clusters");
  const JsonValue stats = fleet.router->Execute(Cmd("cluster_stats"));
  EXPECT_EQ(stats.Find("jobs")->GetDouble("cancelled"), 0.0);
  StopFleet(fleet);
}

// Wire job ids outside [0, 2^53] name no job. A negative id used to alias a
// real job on a sharded fleet (-1 reached local job 0 of engine N-1), and an
// id like 1e30 was an undefined integer cast; both are invalid_argument
// before any id arithmetic, on the plain service and the router alike.
TEST(Shard, JobIdsOutsideTheWireRangeAreRejected) {
  FederationSet fleet = BuildFleet(kShards);
  FederationRouter& router = *fleet.router;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    ASSERT_TRUE(router.Execute(Submit(0.0, 36000.0, 1, key.c_str())).GetBool("ok"));
  }
  SchedulerService& plain = *fleet.services[0];
  for (const double bad : {-1.0, -3.0, 2.5, 1e30, -1e30, 9007199254740994.0}) {
    JsonValue cancel = Cancel(0.0, 0);
    cancel.Replace("job", JsonValue::MakeNumber(bad));
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(bad));
    for (const JsonValue& reply :
         {router.Execute(cancel), router.Execute(query),
          EngineExecute(&plain, cancel), EngineExecute(&plain, query)}) {
      EXPECT_FALSE(reply.GetBool("ok", true)) << bad << ": " << reply.Dump();
      EXPECT_EQ(reply.GetString("code"), "invalid_argument")
          << bad << ": " << reply.Dump();
    }
  }
  const JsonValue stats = router.Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(stats.GetBool("ok")) << stats.Dump();
  EXPECT_EQ(stats.Find("jobs")->GetDouble("cancelled"), 0.0) << stats.Dump();
  // The largest valid id is routed, and simply names no job.
  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(9007199254740992.0));
  EXPECT_EQ(router.Execute(query).GetString("code"), "not_found");
  StopFleet(fleet);
}

// Pipelined submits and reads over the sharded event loop: replies come back
// in per-connection order even though consecutive frames fan out to
// different engine shards, global ids never collide, and a read pipelined
// behind its submit observes the write (read-your-writes across the router).
TEST(Shard, PipelinedRepliesStayInOrderAcrossShards) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_shard_loop_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 2;

  ServiceOptions options = FleetOptions();
  options.engine.faults = false;
  FederationSet fleet = BuildFleet(kShards, options);
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();

  constexpr int kSubmits = 32;
  std::string burst;
  for (int i = 0; i < kSubmits; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(i));
    AppendFrame(submit.Dump(), burst);
  }
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  std::vector<std::int64_t> ids;
  std::set<std::int64_t> distinct;
  for (int expect = 0; expect < kSubmits; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    const std::int64_t id =
        static_cast<std::int64_t>(reply.value().GetDouble("job", -1.0));
    ASSERT_GE(id, 0);
    ids.push_back(id);
    EXPECT_TRUE(distinct.insert(id).second) << "global id collided: " << id;
  }

  // Queries pipelined behind the submits: routed by id to whichever shard
  // owns each job, answered with the global id, ordering preserved.
  burst.clear();
  for (int i = 0; i < kSubmits; ++i) {
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(static_cast<double>(ids[i])));
    query.Set("seq", JsonValue::MakeNumber(kSubmits + i));
    AppendFrame(query.Dump(), burst);
  }
  JsonValue stats = Cmd("cluster_stats");
  stats.Set("seq", JsonValue::MakeNumber(2 * kSubmits));
  AppendFrame(stats.Dump(), burst);
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  for (int expect = kSubmits; expect <= 2 * kSubmits; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    if (expect < 2 * kSubmits) {
      EXPECT_EQ(reply.value().GetDouble("job", -1.0),
                static_cast<double>(ids[expect - kSubmits]));
    } else {
      const JsonValue* jobs = reply.value().Find("jobs");
      ASSERT_NE(jobs, nullptr);
      EXPECT_EQ(jobs->GetDouble("total"), static_cast<double>(kSubmits));
    }
  }
  ::close(fd.value());

  StopFleet(fleet);
  server.Stop();
}

// A cancel pipelined in the same burst as its own submit: the client never
// saw the submit reply, so it predicts the global id from the routing
// mirror. The router must have consumed the submit's sequence number before
// the cancel is routed (Dispatch takes it before it returns), so the cancel
// lands on the same shard as the submit and finds the job — the regression
// this guards is the router routing the cancel before assigning the
// submit's id.
TEST(Shard, PipelinedCancelImmediatelyAfterSubmitSameFrameBurst) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_shard_cancel_" + std::to_string(::getpid()) + ".sock";
  ServiceOptions options = FleetOptions();
  options.engine.faults = false;
  FederationSet fleet = BuildFleet(kShards, options);
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();

  // Predict every submit's global id, then pipeline submit + cancel pairs in
  // one write() so the cancel is queued before the submit's reply exists.
  constexpr int kPairs = 8;
  std::vector<std::int64_t> local(kShards, 0);
  std::string burst;
  std::vector<std::int64_t> predicted;
  int seq = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint32_t shard =
        PredictKeylessShard(static_cast<std::uint64_t>(i), kShards);
    const std::int64_t id = local[shard]++ * kShards + shard;
    predicted.push_back(id);
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(seq++));
    AppendFrame(submit.Dump(), burst);
    JsonValue cancel = Cancel(0.0, id);
    cancel.Set("seq", JsonValue::MakeNumber(seq++));
    AppendFrame(cancel.Dump(), burst);
  }
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  for (int expect = 0; expect < seq; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    // Both halves of pair i answer with the same global id.
    EXPECT_EQ(reply.value().GetDouble("job", -1.0),
              static_cast<double>(predicted[expect / 2]))
        << reply_text.value();
  }

  // Every job ended cancelled — nothing leaked into pending/running.
  const JsonValue stats = fleet.router->Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(stats.GetBool("ok")) << stats.Dump();
  const JsonValue* jobs = stats.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->GetDouble("cancelled"), static_cast<double>(kPairs));
  EXPECT_EQ(jobs->GetDouble("pending") + jobs->GetDouble("running"), 0.0);
  ::close(fd.value());
  StopFleet(fleet);
  server.Stop();
}

// A snapshot pipelined directly behind a drain, with a second connection
// racing submits against both barriers: the two fanouts must serialize
// (countdown merges), the snapshot must capture a consistent fleet (every
// image loads, the routing counter covers every submit that was answered
// before the snapshot), and nothing deadlocks.
TEST(Shard, SnapshotPipelinedBehindDrainWhileSubmitsRace) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_shard_drainrace_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 2;
  ServiceOptions options = FleetOptions();
  options.engine.faults = false;
  FederationSet fleet = BuildFleet(kShards, options);
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> barrier_fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(barrier_fd.ok());
  StatusOr<int> racer_fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(racer_fd.ok());

  const std::string path = TempPath("drainrace");
  // Connection A: submits, then drain + snapshot back-to-back in one write.
  std::string burst;
  constexpr int kBefore = 6;
  for (int i = 0; i < kBefore; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(i));
    AppendFrame(submit.Dump(), burst);
  }
  JsonValue drain = Cmd("drain");
  drain.Set("seq", JsonValue::MakeNumber(kBefore));
  AppendFrame(drain.Dump(), burst);
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  snap.Set("seq", JsonValue::MakeNumber(kBefore + 1));
  AppendFrame(snap.Dump(), burst);

  // Connection B: a concurrent burst of submits racing the barriers.
  std::string race;
  constexpr int kRacers = 16;
  for (int i = 0; i < kRacers; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(1000 + i));
    AppendFrame(submit.Dump(), race);
  }
  ASSERT_TRUE(
      WriteAllBytes(barrier_fd.value(), burst.data(), burst.size()).ok());
  ASSERT_TRUE(WriteAllBytes(racer_fd.value(), race.data(), race.size()).ok());

  // Connection A's replies arrive in order; drain and snapshot both succeed.
  for (int expect = 0; expect <= kBefore + 1; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(barrier_fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    if (expect == kBefore + 1) {
      EXPECT_EQ(reply.value().GetDouble("clusters", 0.0), kShards);
    }
  }
  // Connection B's submits all complete (in order, unique global ids).
  std::set<std::int64_t> distinct;
  for (int expect = 0; expect < kRacers; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(racer_fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), 1000 + expect);
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    EXPECT_TRUE(distinct
                    .insert(static_cast<std::int64_t>(
                        reply.value().GetDouble("job", -1.0)))
                    .second);
  }
  ::close(barrier_fd.value());
  ::close(racer_fd.value());

  // The snapshot is a loadable kShards container whose routing counter has
  // advanced at least past connection A's submits (B's may land either side
  // of the barrier — that's the race — but the container must be coherent).
  StatusOr<FedSnapshot> fed = LoadFedSnapshot(path);
  ASSERT_TRUE(fed.ok()) << fed.status().message();
  const std::vector<FedClusterImage>& clusters = fed.value().clusters;
  EXPECT_EQ(clusters.size(), static_cast<std::size_t>(kShards));
  EXPECT_GE(fed.value().submit_seq, static_cast<std::uint64_t>(kBefore));
  EXPECT_LE(fed.value().submit_seq,
            static_cast<std::uint64_t>(kBefore + kRacers));
  for (const FedClusterImage& cluster : clusters) {
    EXPECT_EQ(cluster.image.substr(0, 8), "LYRASNAP");
  }
  std::remove(path.c_str());

  StopFleet(fleet);
  server.Stop();
}

}  // namespace
}  // namespace lyra::svc
