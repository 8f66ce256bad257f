// Tests for the observability layer: metrics registry, thread-local context
// scoping (parallel simulations must see disjoint registries), and phase
// profiler span nesting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/obs/obs.h"

namespace lyra::obs {
namespace {

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());

  Counter* c = registry.counter("sched.launched");
  c->Add();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);
  // Get-or-create: same name returns the same handle.
  EXPECT_EQ(registry.counter("sched.launched"), c);

  registry.gauge("usage")->Set(0.75);
  EXPECT_DOUBLE_EQ(registry.gauge("usage")->value(), 0.75);

  Histogram* h = registry.histogram("latency", {1.0, 10.0, 100.0});
  h->Record(0.5);
  h->Record(5.0);
  h->Record(50.0);
  h->Record(5000.0);  // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 5000.0);
  ASSERT_EQ(h->bucket_counts().size(), 4u);
  EXPECT_EQ(h->bucket_counts()[0], 1u);
  EXPECT_EQ(h->bucket_counts()[1], 1u);
  EXPECT_EQ(h->bucket_counts()[2], 1u);
  EXPECT_EQ(h->bucket_counts()[3], 1u);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(Metrics, ExportJsonParsesBackAndIsDeterministic) {
  MetricsRegistry registry;
  registry.counter("b.count")->Add(2);
  registry.counter("a.count")->Add(1);
  registry.gauge("g")->Set(1.5);
  registry.histogram("h", {10.0})->Record(3.0);

  const std::string json = registry.Values().ToJson().Dump();
  const StatusOr<JsonValue> parsed = JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->GetDouble("a.count"), 1.0);
  EXPECT_DOUBLE_EQ(counters->GetDouble("b.count"), 2.0);
  // Name-sorted export: identical registries serialize identically.
  EXPECT_EQ(json, registry.Values().ToJson().Dump());
  // std::map iteration is name-sorted, so "a.count" precedes "b.count".
  EXPECT_EQ(counters->AsObject()[0].first, "a.count");

  const JsonValue* h = root.Find("histograms")->Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->GetDouble("count"), 1.0);
  EXPECT_DOUBLE_EQ(h->GetDouble("sum"), 3.0);
  EXPECT_DOUBLE_EQ(root.Find("gauges")->GetDouble("g"), 1.5);
}

// A fleet merges engine registry copies: counters and gauges sum,
// histograms merge bucketwise, and a metric only one engine has is copied.
TEST(Metrics, ValuesMergeSumsAndMergesBucketwise) {
  MetricsRegistry a;
  a.counter("c")->Add(2);
  a.gauge("g")->Set(0.5);
  a.histogram("h", {1.0, 10.0})->Record(0.5);
  MetricsRegistry b;
  b.counter("c")->Add(3);
  b.counter("only_b")->Add(7);
  b.gauge("g")->Set(0.25);
  b.histogram("h", {1.0, 10.0})->Record(20.0);
  b.histogram("h", {1.0, 10.0})->Record(5.0);

  MetricsValues merged = a.Values();
  merged.Merge(b.Values());
  EXPECT_EQ(merged.counters.at("c"), 5u);
  EXPECT_EQ(merged.counters.at("only_b"), 7u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 0.75);
  const Histogram& h = merged.histograms.at("h");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 20.0);
  // The copy is detached: later recording leaves it unchanged.
  a.counter("c")->Add(100);
  EXPECT_EQ(merged.counters.at("c"), 5u);
}

// Merging per-shard histograms must reproduce the single-histogram counts
// exactly: the service telemetry plane records into per-io-thread shards and
// only merges at scrape time, so any drift here would make /metrics lie.
TEST(Metrics, MergeOfShardsEqualsSingleHistogram) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0, 16.0};
  Histogram shard_a(bounds);
  Histogram shard_b(bounds);
  Histogram shard_c(bounds);
  Histogram reference(bounds);
  // Deterministic pseudo-random spread across all buckets incl. overflow.
  std::uint64_t state = 42;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double x = static_cast<double>(state % 320) / 10.0;  // [0, 32)
    reference.Record(x);
    (i % 3 == 0 ? shard_a : i % 3 == 1 ? shard_b : shard_c).Record(x);
  }
  Histogram merged(bounds);
  merged.Merge(shard_a);
  merged.Merge(shard_b);
  merged.Merge(shard_c);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_DOUBLE_EQ(merged.sum(), reference.sum());
  EXPECT_DOUBLE_EQ(merged.min(), reference.min());
  EXPECT_DOUBLE_EQ(merged.max(), reference.max());
  ASSERT_EQ(merged.bucket_counts().size(), reference.bucket_counts().size());
  for (std::size_t i = 0; i < merged.bucket_counts().size(); ++i) {
    EXPECT_EQ(merged.bucket_counts()[i], reference.bucket_counts()[i])
        << "bucket " << i;
  }
}

// Quantile estimates interpolate inside the containing bucket, so the error
// against the exact order statistic is bounded by that bucket's width.
TEST(Metrics, QuantileErrorBoundedByBucketWidth) {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) {
    bounds.push_back(b);  // log2 buckets, like the telemetry shards
  }
  Histogram hist(bounds);
  std::vector<double> samples;
  std::uint64_t state = 7;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double x = 0.5 + static_cast<double>(state % 30000) / 10.0;
    hist.Record(x);
    samples.push_back(x);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double estimate = hist.Quantile(q);
    // Width of the bucket containing the exact value.
    double lo = 0.0;
    double width = 0.0;
    for (const double b : bounds) {
      if (exact <= b) {
        width = b - lo;
        break;
      }
      lo = b;
    }
    ASSERT_GT(width, 0.0);
    EXPECT_NEAR(estimate, exact, width) << "q=" << q;
  }
}

// Subtracting an earlier scrape of the same cumulative histogram leaves
// exactly the in-between samples — the windowed view lyra_top renders.
TEST(Metrics, SubtractYieldsTheWindowBetweenScrapes) {
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram cumulative(bounds);
  cumulative.Record(0.5);
  cumulative.Record(5.0);
  const Histogram earlier = cumulative;  // scrape #1
  cumulative.Record(50.0);
  cumulative.Record(50.0);
  cumulative.Record(500.0);
  Histogram window = cumulative;  // scrape #2
  window.Subtract(earlier);
  EXPECT_EQ(window.count(), 3u);
  EXPECT_DOUBLE_EQ(window.sum(), 600.0);
  ASSERT_EQ(window.bucket_counts().size(), 4u);
  EXPECT_EQ(window.bucket_counts()[0], 0u);
  EXPECT_EQ(window.bucket_counts()[1], 0u);
  EXPECT_EQ(window.bucket_counts()[2], 2u);
  EXPECT_EQ(window.bucket_counts()[3], 1u);
  // min/max re-bracket to the occupied buckets of the window.
  EXPECT_GE(window.min(), 10.0);
  EXPECT_LE(window.Quantile(0.5), 100.0);
}

// The from-parts constructor (used when reassembling a histogram from a
// Prometheus scrape) estimates min/max from the occupied buckets.
TEST(Metrics, FromPartsBracketsMinMaxByOccupiedBuckets) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const Histogram hist(bounds, {0, 3, 0, 2}, 14.0);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 14.0);
  // First occupied bucket is (1, 2]; last is the overflow (> 4).
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
  EXPECT_GE(hist.Quantile(0.5), 1.0);
  EXPECT_LE(hist.Quantile(0.5), 2.0);
}

TEST(ObsContext, FreeFunctionsNoOpWithoutContext) {
  ASSERT_EQ(Current(), nullptr);
  // Must not crash, and must not materialize state anywhere.
  AddCounter("nobody.home");
  SetGauge("nobody.home", 1.0);
  RecordHistogram("nobody.home", 1.0);
  EXPECT_EQ(CurrentTrace(), nullptr);
  PhaseSpan span(Phase::kPlacement);  // no-op span
}

TEST(ObsContext, ScopedInstallAndNestedRestore) {
  ObsContext outer;
  ObsContext inner;
  {
    ScopedObsContext outer_scope(&outer);
    EXPECT_EQ(Current(), &outer);
    AddCounter("depth", 1);
    {
      ScopedObsContext inner_scope(&inner);
      EXPECT_EQ(Current(), &inner);
      AddCounter("depth", 10);
    }
    EXPECT_EQ(Current(), &outer);
    AddCounter("depth", 1);
  }
  EXPECT_EQ(Current(), nullptr);
  EXPECT_EQ(outer.metrics.counter("depth")->value(), 2u);
  EXPECT_EQ(inner.metrics.counter("depth")->value(), 10u);
}

TEST(ObsContext, ParallelThreadsSeeDisjointRegistries) {
  // The contract parallel bench runs rely on: each thread installs its own
  // context, all record under the same metric names, and no increment leaks
  // across threads.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<ObsContext> contexts(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&contexts, t] {
      ScopedObsContext scope(&contexts[static_cast<std::size_t>(t)]);
      Counter* mine = Current()->metrics.counter("shared.name");
      for (int i = 0; i < kIncrements * (t + 1); ++i) {
        mine->Add();
      }
      RecordHistogram("latency", static_cast<double>(t));
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ObsContext& context = contexts[static_cast<std::size_t>(t)];
    EXPECT_EQ(context.metrics.counter("shared.name")->value(),
              static_cast<std::uint64_t>(kIncrements) * (t + 1));
    EXPECT_EQ(context.metrics.histogram("latency")->count(), 1u);
    EXPECT_DOUBLE_EQ(context.metrics.histogram("latency")->max(),
                     static_cast<double>(t));
  }
}

TEST(PhaseProfiler, AggregatesCallsAndTotals) {
  PhaseProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    profiler.Begin(Phase::kSchedulerTick);
    profiler.End();
  }
  EXPECT_EQ(profiler.calls(Phase::kSchedulerTick), 3u);
  EXPECT_GE(profiler.total_sec(Phase::kSchedulerTick), 0.0);
  const std::vector<PhaseStat> stats = profiler.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "scheduler_tick");
  EXPECT_EQ(stats[0].calls, 3u);
}

TEST(PhaseProfiler, NestedSpansSubtractChildTimeFromParentSelf) {
  PhaseProfiler profiler;
  profiler.Begin(Phase::kEventDrain);
  profiler.Begin(Phase::kSchedulerTick);
  profiler.Begin(Phase::kPlacement);
  // Burn a measurable amount of time in the innermost span.
  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) {
    sink += static_cast<double>(i);
  }
  const PhaseProfiler::SpanResult placement = profiler.End();
  const PhaseProfiler::SpanResult tick = profiler.End();
  const PhaseProfiler::SpanResult drain = profiler.End();
  EXPECT_EQ(profiler.depth(), 0);

  // Inclusive times nest monotonically.
  EXPECT_GE(tick.elapsed_sec, placement.elapsed_sec);
  EXPECT_GE(drain.elapsed_sec, tick.elapsed_sec);
  // A leaf's self time is its elapsed time; a parent's excludes the child.
  EXPECT_DOUBLE_EQ(placement.self_sec, placement.elapsed_sec);
  EXPECT_NEAR(tick.self_sec, tick.elapsed_sec - placement.elapsed_sec, 1e-12);
  EXPECT_NEAR(drain.self_sec, drain.elapsed_sec - tick.elapsed_sec, 1e-12);
  // Self times telescope: summed across the tree they equal the root time.
  const double self_sum = profiler.self_sec(Phase::kEventDrain) +
                          profiler.self_sec(Phase::kSchedulerTick) +
                          profiler.self_sec(Phase::kPlacement);
  EXPECT_NEAR(self_sum, drain.elapsed_sec, 1e-12);
}

TEST(PhaseProfiler, SiblingSpansAccumulateIntoSharedParent) {
  PhaseProfiler profiler;
  profiler.Begin(Phase::kEventDrain);
  for (int i = 0; i < 5; ++i) {
    profiler.Begin(Phase::kSchedulerTick);
    profiler.End();
  }
  const PhaseProfiler::SpanResult drain = profiler.End();
  EXPECT_EQ(profiler.calls(Phase::kSchedulerTick), 5u);
  EXPECT_NEAR(drain.self_sec,
              drain.elapsed_sec - profiler.total_sec(Phase::kSchedulerTick), 1e-12);
}

}  // namespace
}  // namespace lyra::obs
