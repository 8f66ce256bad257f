// Tests for the command-line flag library and the component registry the
// flag values feed into (every CLI resolves scheduler/reclaim/predictor
// names through src/svc/registry.h).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/flags.h"
#include "src/svc/registry.h"

namespace lyra {
namespace {

struct Parsed {
  bool verbose = false;
  int count = 7;
  double rate = 1.5;
  std::string name = "default";
};

class FlagsTest : public ::testing::Test {
 protected:
  FlagSet MakeSet() {
    FlagSet flags("test tool");
    flags.AddBool("verbose", &parsed_.verbose, "be chatty");
    flags.AddInt("count", &parsed_.count, "how many");
    flags.AddDouble("rate", &parsed_.rate, "how fast");
    flags.AddString("name", &parsed_.name, "what to call it");
    return flags;
  }

  Status Parse(FlagSet& flags, std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return flags.Parse(static_cast<int>(args.size()), args.data());
  }

  Parsed parsed_;
};

TEST_F(FlagsTest, DefaultsSurviveEmptyParse) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {}).ok());
  EXPECT_FALSE(parsed_.verbose);
  EXPECT_EQ(parsed_.count, 7);
  EXPECT_DOUBLE_EQ(parsed_.rate, 1.5);
  EXPECT_EQ(parsed_.name, "default");
}

TEST_F(FlagsTest, EqualsSyntax) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(
      Parse(flags, {"--count=42", "--rate=0.25", "--name=x", "--verbose=true"}).ok());
  EXPECT_TRUE(parsed_.verbose);
  EXPECT_EQ(parsed_.count, 42);
  EXPECT_DOUBLE_EQ(parsed_.rate, 0.25);
  EXPECT_EQ(parsed_.name, "x");
}

TEST_F(FlagsTest, SpaceSeparatedSyntax) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--count", "13", "--name", "hello"}).ok());
  EXPECT_EQ(parsed_.count, 13);
  EXPECT_EQ(parsed_.name, "hello");
}

TEST_F(FlagsTest, BareBoolSetsTrueAndNoPrefixClears) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--verbose"}).ok());
  EXPECT_TRUE(parsed_.verbose);
  ASSERT_TRUE(Parse(flags, {"--no-verbose"}).ok());
  EXPECT_FALSE(parsed_.verbose);
}

TEST_F(FlagsTest, PositionalArgumentsCollected) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"input.csv", "--count=1", "more"}).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST_F(FlagsTest, DoubleDashEndsFlagParsing) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--", "--count=9"}).ok());
  EXPECT_EQ(parsed_.count, 7);  // untouched
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--count=9");
}

TEST_F(FlagsTest, UnknownFlagIsAnError) {
  FlagSet flags = MakeSet();
  const Status status = Parse(flags, {"--bogus=1"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST_F(FlagsTest, MalformedValuesAreErrors) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(Parse(flags, {"--count=abc"}).ok());
  EXPECT_FALSE(Parse(flags, {"--rate=fast"}).ok());
  EXPECT_FALSE(Parse(flags, {"--verbose=maybe"}).ok());
}

TEST_F(FlagsTest, MissingValueIsAnError) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(Parse(flags, {"--count"}).ok());
}

TEST_F(FlagsTest, HelpRequestedIsNotAnError) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--help"}).ok());
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("default: 7"), std::string::npos);
  EXPECT_NE(usage.find("test tool"), std::string::npos);
}

// --- Component registry ----------------------------------------------------

TEST(Registry, UnknownNamesListRegisteredAlternatives) {
  const auto scheduler = svc::MakeScheduler("bogus", false, false);
  ASSERT_FALSE(scheduler.ok());
  EXPECT_NE(scheduler.status().message().find("unknown scheduler"),
            std::string::npos);
  for (const std::string& name : svc::KnownSchedulerNames()) {
    EXPECT_NE(scheduler.status().message().find(name), std::string::npos)
        << "error does not list \"" << name << "\": "
        << scheduler.status().message();
  }

  const auto reclaim = svc::MakeReclaim("bogus");
  ASSERT_FALSE(reclaim.ok());
  EXPECT_NE(reclaim.status().message().find("unknown reclaim"),
            std::string::npos);
  for (const std::string& name : svc::KnownReclaimNames()) {
    EXPECT_NE(reclaim.status().message().find(name), std::string::npos);
  }

  const auto predictor = svc::MakePredictor("bogus");
  ASSERT_FALSE(predictor.ok());
  EXPECT_NE(predictor.status().message().find("unknown usage predictor"),
            std::string::npos);
  for (const std::string& name : svc::KnownPredictorNames()) {
    EXPECT_NE(predictor.status().message().find(name), std::string::npos);
  }
}

TEST(Registry, EveryRegisteredNameConstructs) {
  for (const std::string& name : svc::KnownSchedulerNames()) {
    const auto made = svc::MakeScheduler(name, false, false);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
    EXPECT_NE(made.value(), nullptr) << name;
  }
  for (const std::string& name : svc::KnownReclaimNames()) {
    const auto made = svc::MakeReclaim(name);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
  }
  for (const std::string& name : svc::KnownPredictorNames()) {
    const auto made = svc::MakePredictor(name);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
  }
}

// The retired learned scheduler's name, passed as lyra_sim takes it, is an
// unknown scheduler like any other: the error lists the nine registered names.
TEST(Registry, RetiredLearnedSchedulerIsUnknown) {
  std::string name;
  FlagSet flags("test tool");
  flags.AddString("scheduler", &name, "scheduler name");
  const char* args[] = {"prog", "--scheduler=learned"};
  ASSERT_TRUE(flags.Parse(2, args).ok());
  ASSERT_EQ(svc::KnownSchedulerNames().size(), 9u);

  const auto made = svc::MakeScheduler(name, false, false);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(made.status().message(),
            "unknown scheduler: \"" + name + "\" (known: " +
                svc::JoinNames(svc::KnownSchedulerNames()) + ")");
}

// One rounding rule for the paper's cluster: truncate, at least one server.
// Paper-bench defaults that once rounded to the nearest server now run one
// training server fewer (0.25: 111 -> 110). A scale whose counts are not
// positive ints is refused, never cast.
TEST(Registry, PaperClusterTruncatesAndRefusesNonsenseScales) {
  const struct {
    double scale;
    int training;
    int inference;
  } rows[] = {{1.0, 443, 520}, {0.5, 221, 260}, {0.3, 132, 156},
              {0.25, 110, 130}, {0.2, 88, 104},  {0.1, 44, 52},
              {0.05, 22, 26},   {1e-6, 1, 1}};
  for (const auto& row : rows) {
    const StatusOr<svc::PaperCluster> cluster = svc::PaperClusterAt(row.scale);
    ASSERT_TRUE(cluster.ok()) << row.scale;
    EXPECT_EQ(cluster.value().training_servers, row.training) << row.scale;
    EXPECT_EQ(cluster.value().inference_servers, row.inference) << row.scale;
  }
  for (const double scale : {std::nan(""), -1.0, 0.0, 1e10,
                             std::numeric_limits<double>::infinity()}) {
    const StatusOr<svc::PaperCluster> cluster = svc::PaperClusterAt(scale);
    ASSERT_FALSE(cluster.ok()) << scale;
    EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cluster.status().message().find("scale must be positive"),
              std::string::npos)
        << cluster.status().message();
  }
}

}  // namespace
}  // namespace lyra
