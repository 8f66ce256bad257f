// Hardening tests for common::JsonValue::Parse on untrusted wire input:
// randomized Dump->Parse round-trips (the wire protocol's invariant) plus an
// adversarial corpus — depth bombs, oversized documents, duplicate keys,
// truncations, and malformed literals must fail cleanly, never crash or hang
// — out-of-range numbers read through AsInt saturate, and a report merge
// replaces one section and keeps the others' bytes.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/common/codec.h"
#include "src/common/json.h"
#include "src/common/rng.h"

namespace lyra {
namespace {

// Deterministically builds a random JSON value. `budget` bounds total node
// count so documents stay small; depth is capped below the parser's limit.
JsonValue RandomValue(Rng& rng, int depth, int* budget) {
  --*budget;
  const int kind = (depth >= 6 || *budget <= 0) ? static_cast<int>(rng.UniformInt(0, 3))
                                                : static_cast<int>(rng.UniformInt(0, 5));
  switch (kind) {
    case 0:
      return JsonValue::MakeNull();
    case 1:
      return JsonValue::MakeBool(rng.NextDouble() < 0.5);
    case 2: {
      // Mix integral, fractional, tiny and huge magnitudes; all finite.
      switch (rng.UniformInt(0, 3)) {
        case 0:
          return JsonValue::MakeNumber(static_cast<double>(
              rng.UniformInt(-1'000'000'000'000, 1'000'000'000'000)));
        case 1:
          return JsonValue::MakeNumber(rng.Uniform(-1e-12, 1e-12));
        case 2:
          return JsonValue::MakeNumber(rng.Uniform(-1e18, 1e18));
        default:
          return JsonValue::MakeNumber(rng.Uniform(-1000.0, 1000.0));
      }
    }
    case 3: {
      // Strings exercising escapes, control chars, UTF-8 bytes, quotes.
      static const char kAlphabet[] =
          "ab\"\\/\b\f\n\r\tz\x01\x1f\x7f\xc3\xa9 {}[]:,";
      std::string s;
      const int len = static_cast<int>(rng.UniformInt(0, 24));
      for (int i = 0; i < len; ++i) {
        s.push_back(kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)]);
      }
      return JsonValue::MakeString(std::move(s));
    }
    case 4: {
      JsonValue array = JsonValue::MakeArray();
      const int n = static_cast<int>(rng.UniformInt(0, 5));
      for (int i = 0; i < n && *budget > 0; ++i) {
        array.Append(RandomValue(rng, depth + 1, budget));
      }
      return array;
    }
    default: {
      JsonValue object = JsonValue::MakeObject();
      const int n = static_cast<int>(rng.UniformInt(0, 5));
      for (int i = 0; i < n && *budget > 0; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        object.Set(key, RandomValue(rng, depth + 1, budget));
      }
      return object;
    }
  }
}

TEST(JsonHardening, RandomizedRoundTripIsExact) {
  Rng rng(20260806);
  for (int trial = 0; trial < 500; ++trial) {
    int budget = 60;
    const JsonValue value = RandomValue(rng, 0, &budget);
    const std::string text = value.Dump();
    StatusOr<JsonValue> reparsed = JsonValue::Parse(text, JsonParseLimits::Untrusted());
    ASSERT_TRUE(reparsed.ok()) << "trial " << trial << ": " << text;
    EXPECT_TRUE(reparsed.value() == value) << "trial " << trial << ": " << text;
    // Dump is canonical: a second round trip emits identical bytes.
    EXPECT_EQ(reparsed.value().Dump(), text) << "trial " << trial;
  }
}

TEST(JsonHardening, DepthLimitStopsArrayAndObjectBombs) {
  JsonParseLimits limits = JsonParseLimits::Untrusted();
  const std::string deep_ok(static_cast<std::size_t>(limits.max_depth), '[');
  std::string balanced = deep_ok;
  balanced += "1";
  balanced.append(static_cast<std::size_t>(limits.max_depth), ']');
  EXPECT_TRUE(JsonValue::Parse(balanced, limits).ok());

  std::string too_deep = "[" + balanced + "]";
  EXPECT_FALSE(JsonValue::Parse(too_deep, limits).ok());

  // A 100k-deep bomb must fail fast (depth check), not overflow the stack.
  const std::string bomb(100000, '[');
  EXPECT_FALSE(JsonValue::Parse(bomb, limits).ok());
  std::string object_bomb;
  for (int i = 0; i < 100000; ++i) {
    object_bomb += "{\"a\":";
  }
  EXPECT_FALSE(JsonValue::Parse(object_bomb, limits).ok());
}

TEST(JsonHardening, SizeLimitRejectsOversizedDocuments) {
  JsonParseLimits limits;
  limits.max_bytes = 64;
  const std::string small = "{\"ok\": true}";
  EXPECT_TRUE(JsonValue::Parse(small, limits).ok());
  const std::string big = "\"" + std::string(128, 'x') + "\"";
  const Status status = JsonValue::Parse(big, limits).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // Unlimited by default.
  EXPECT_TRUE(JsonValue::Parse(big).ok());
}

TEST(JsonHardening, DuplicateKeyPolicy) {
  const std::string doc = "{\"a\": 1, \"a\": 2, \"b\": 3}";
  // Default keeps every pair; Find is first-wins.
  StatusOr<JsonValue> keep = JsonValue::Parse(doc);
  ASSERT_TRUE(keep.ok());
  EXPECT_EQ(keep.value().AsObject().size(), 3u);
  EXPECT_DOUBLE_EQ(keep.value().GetDouble("a"), 1.0);

  // The wire posture rejects duplicates outright.
  EXPECT_FALSE(JsonValue::Parse(doc, JsonParseLimits::Untrusted()).ok());
  EXPECT_TRUE(
      JsonValue::Parse("{\"a\": 1, \"b\": 2}", JsonParseLimits::Untrusted()).ok());
  // Nested duplicates are caught too.
  EXPECT_FALSE(JsonValue::Parse("{\"o\": {\"x\": 1, \"x\": 1}}",
                                JsonParseLimits::Untrusted())
                   .ok());
}

TEST(JsonHardening, AdversarialCorpusFailsCleanly) {
  const char* corpus[] = {
      "",
      "   ",
      "{",
      "}",
      "[",
      "]",
      "{]",
      "[}",
      "{\"a\"}",
      "{\"a\":}",
      "{\"a\":1",
      "{:1}",
      "{1:2}",
      "[1,",
      "[1,,2]",
      "0x10",
      "1e",
      "1e+",
      "--1",
      "Infinity",
      "NaN",
      "nan",
      "tru",
      "truee",
      "nulll",
      "\"\\q\"",
      "\"\\u12\"",
      "\"\\u123g\"",
      "\"unterminated",
      "\"bad ctrl \x01\"",  // raw control characters must be escaped
      "'single'",
      "{\"a\": 1} extra",
      "[1] [2]",
      "\xff\xfe",
      "{\"\\u0000\": 1",
  };
  for (const char* text : corpus) {
    const StatusOr<JsonValue> parsed =
        JsonValue::Parse(text, JsonParseLimits::Untrusted());
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(JsonHardening, LoneSurrogateAndNulBytes) {
  // NUL inside a string is representable via escape and survives a round
  // trip; a raw NUL byte terminates nothing (std::string carries it) but is
  // a control character, so it must be rejected unescaped.
  StatusOr<JsonValue> escaped = JsonValue::Parse("\"a\\u0000b\"");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped.value().AsString().size(), 3u);
  const std::string raw_nul = std::string("\"a") + '\0' + "b\"";
  EXPECT_FALSE(JsonValue::Parse(raw_nul).ok());
}

TEST(JsonHardening, AsIntSaturatesOutOfRangeNumbers) {
  // Wire numbers outside the int64 range saturate instead of hitting the
  // undefined out-of-range float-to-integer cast.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(JsonValue::MakeNumber(1e30).AsInt(), kMax);
  EXPECT_EQ(JsonValue::MakeNumber(0x1p63).AsInt(), kMax);
  EXPECT_EQ(JsonValue::MakeNumber(-1e30).AsInt(), kMin);
  EXPECT_EQ(JsonValue::MakeNumber(-0x1p63).AsInt(), kMin);
  EXPECT_EQ(JsonValue::MakeNumber(-2.9).AsInt(), -2);
  EXPECT_EQ(JsonValue::MakeNumber(9007199254740992.0).AsInt(),
            9007199254740992);
  StatusOr<JsonValue> parsed = JsonValue::Parse("{\"job\":1e300}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("job")->AsInt(), kMax);
}

// MergeReportSection replaces its own section (moving it last) and keeps
// every other section: the same bytes where a previous merge wrote them (a
// re-Dump of a Dump is the identity). A missing or unparsable report starts
// a fresh object, and no temporary file is left.
TEST(JsonReport, MergeReplacesOneSectionAndKeepsTheOthers) {
  const std::string path = testing::TempDir() + "/lyra_report_" +
                           std::to_string(::getpid()) + ".json";
  std::remove(path.c_str());
  const StatusOr<JsonValue> first = JsonValue::Parse(R"({"rate":1.5e5})");
  const StatusOr<JsonValue> second = JsonValue::Parse(R"({"rate":2})");
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(MergeReportSection(path, "mine", first.value()).ok());
  EXPECT_EQ(ReadFile(path).value(), "{\"mine\":{\"rate\":150000}}\n");

  const std::string others =
      R"({"experiment":"t5","runs":[{"wall_sec":0.125,"events":7}],)"
      R"("mine":{"old":true},"micro":{"ns":[0.5,3.25]}})";
  ASSERT_TRUE(WriteFileAtomic(path, others + "\n").ok());
  ASSERT_TRUE(MergeReportSection(path, "mine", second.value()).ok());
  EXPECT_EQ(ReadFile(path).value(),
            R"({"experiment":"t5","runs":[{"wall_sec":0.125,"events":7}],)"
            R"("micro":{"ns":[0.5,3.25]},"mine":{"rate":2}})"
            "\n");
  EXPECT_FALSE(ReadFile(path + ".tmp").ok());

  ASSERT_TRUE(WriteFileAtomic(path, "{\"trunc").ok());
  ASSERT_TRUE(MergeReportSection(path, "mine", second.value()).ok());
  EXPECT_EQ(ReadFile(path).value(), "{\"mine\":{\"rate\":2}}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lyra
