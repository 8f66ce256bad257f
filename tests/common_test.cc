// Unit tests for src/common: rng, stats, table formatting, status, ids, json.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/types.h"

namespace lyra {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::unordered_set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.NextLogNormal(std::log(100.0), 0.5));
  }
  EXPECT_NEAR(Percentile(xs, 50.0), 100.0, 5.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SampleIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.SampleIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

// Reference draw that sums the weights again on every call.
std::size_t ResummingSampleIndex(Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  double target = rng.NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

TEST(Rng, SampleIndexWithSummedTotalMatchesOneShot) {
  // Lognormal hour weights, shaped like the synthetic trace's arrivals.
  Rng weight_rng(5);
  std::vector<double> weights(360);
  for (double& w : weights) {
    w = weight_rng.NextLogNormal(0.0, 1.5);
  }
  const double total = Rng::WeightTotal(weights);
  Rng once(11);
  Rng one_shot(11);
  Rng resumming(11);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t index = once.SampleIndex(weights, total);
    ASSERT_EQ(index, one_shot.SampleIndex(weights)) << "draw " << i;
    ASSERT_EQ(index, ResummingSampleIndex(resumming, weights)) << "draw " << i;
  }
}

TEST(RngDeathTest, NegativeWeightAborts) {
  const std::vector<double> weights = {1.0, -0.5, 2.0};
  EXPECT_DEATH(Rng::WeightTotal(weights), "CHECK failed");
  Rng rng(1);
  EXPECT_DEATH(rng.SampleIndex(weights), "CHECK failed");
}

TEST(Rng, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(42);
  Rng child1 = parent1.Fork();
  // Same construction; parent draws after forking must not affect the child.
  Rng parent2(42);
  Rng child2 = parent2.Fork();
  parent2.NextU64();
  parent2.NextU64();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(Mean({}), 0.0); }

TEST(Stats, MeanBasic) { EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0); }

TEST(Stats, PercentileEdges) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 25.0);  // linear interpolation
}

TEST(Stats, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 95.0), 5.0);
}

TEST(Stats, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
}

TEST(Stats, StdDevKnownValues) {
  EXPECT_NEAR(StdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0, 1e-12);
}

TEST(Stats, SummarizeCountsAndOrdering) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  const Summary s = Summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_LE(s.min, s.p25);
  EXPECT_LE(s.p25, s.p50);
  EXPECT_LE(s.p50, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, SummarizeMinAndP25) {
  // 1..5: min is the smallest sample, p25 interpolates between ranks.
  const Summary s = Summarize({5.0, 3.0, 1.0, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);  // numpy-style linear interpolation
  EXPECT_DOUBLE_EQ(Percentile({5.0, 3.0, 1.0, 4.0, 2.0}, 25.0), s.p25);
}

TEST(Stats, SummarizePercentilesEqualPercentile) {
  // Summarize sorts one copy for all five percentiles; each must be the
  // same double Percentile computes from its own sorted copy.
  Rng rng(10000);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    xs.push_back(rng.NextBernoulli(0.1) ? static_cast<double>(rng.UniformInt(0, 9))
                                        : rng.Uniform(-1e3, 1e6));
  }
  const Summary s = Summarize(xs);
  EXPECT_EQ(s.p25, Percentile(xs, 25.0));
  EXPECT_EQ(s.p50, Percentile(xs, 50.0));
  EXPECT_EQ(s.p75, Percentile(xs, 75.0));
  EXPECT_EQ(s.p95, Percentile(xs, 95.0));
  EXPECT_EQ(s.p99, Percentile(xs, 99.0));
}

TEST(Stats, SummarizeEmptyHasZeroMinAndP25) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.p25, 0.0);
}

TEST(Stats, TimeWeightedMeanPiecewiseConstant) {
  TimeWeightedMean m;
  m.Advance(0.0, 0.0);   // value held before t=0 is ignored (first call)
  m.Advance(10.0, 1.0);  // value 1.0 held over [0, 10)
  m.Advance(30.0, 0.5);  // value 0.5 held over [10, 30)
  EXPECT_DOUBLE_EQ(m.mean(), (1.0 * 10 + 0.5 * 20) / 30.0);
}

TEST(Stats, TimeWeightedMeanSkipExcludesGap) {
  TimeWeightedMean m;
  m.Advance(0.0, 0.0);
  m.Advance(10.0, 1.0);  // 1.0 over [0, 10)
  m.Skip(50.0);          // undefined over [10, 50)
  m.Advance(60.0, 1.0);  // 1.0 over [50, 60)
  EXPECT_DOUBLE_EQ(m.mean(), 1.0);
}

TEST(Stats, TimeWeightedMeanEmpty) {
  TimeWeightedMean m;
  EXPECT_EQ(m.mean(), 0.0);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::InvalidArgument("bad"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(Table, AlignsAndPadsRows) {
  TextTable t({"a", "bbbb"});
  t.AddRow({"xx"});  // short row padded
  t.AddRow({"y", "zzzzz"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("zzzzz"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(FormatDouble(1.234, 2), "1.23");
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0.00");
  EXPECT_EQ(FormatRatio(1.5), "1.50x");
  EXPECT_EQ(FormatPercent(0.1224), "12.24%");
}

TEST(Ids, ValidityAndComparison) {
  JobId none;
  EXPECT_FALSE(none.valid());
  JobId a(1);
  JobId b(2);
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, JobId(1));
}

TEST(Ids, HashDistinguishesValues) {
  std::unordered_set<JobId> set;
  for (int i = 0; i < 100; ++i) {
    set.insert(JobId(i));
  }
  EXPECT_EQ(set.size(), 100u);
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null").value().is_null());
  EXPECT_TRUE(JsonValue::Parse("true").value().AsBool());
  EXPECT_FALSE(JsonValue::Parse("false").value().AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e2").value().AsDouble(), -1250.0);
  EXPECT_EQ(JsonValue::Parse("42").value().AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("\"hi\\n\\\"there\\\"\"").value().AsString(),
            "hi\n\"there\"");
}

TEST(Json, ParsesNestedStructures) {
  const StatusOr<JsonValue> parsed = JsonValue::Parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": false}, "e": null})");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsDouble(), 2.0);
  EXPECT_EQ(a->AsArray()[2].GetString("b"), "x");
  EXPECT_FALSE(root.Find("c")->Find("d")->AsBool());
  EXPECT_TRUE(root.Find("e")->is_null());
  EXPECT_EQ(root.Find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(root.GetDouble("missing", 7.5), 7.5);
}

TEST(Json, ParsesUnicodeEscapes) {
  const StatusOr<JsonValue> parsed = JsonValue::Parse("\"\\u00e9\\u0041\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().AsString(), "\xc3\xa9" "A");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());  // trailing garbage
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

}  // namespace
}  // namespace lyra
