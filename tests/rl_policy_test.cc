// PolicyNet persistence and the learned scheduler's determinism contract:
// LYRAPOL files round-trip byte for byte (their corruption defenses are the
// shared envelope's, covered in codec_test), policy construction is a pure
// function of PolicyOptions::seed, and an episode — a "learned" run through
// the bench harness, as the trainer rolls it out — is a pure function of
// (policy, experiment seed, sample seed).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gtest/gtest.h"
#include "src/rl/learned_scheduler.h"
#include "src/rl/policy.h"
#include "src/rl/trainer.h"

namespace lyra::rl {
namespace {

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "/lyrapol_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

TEST(Policy, SeedDeterminesWeights) {
  PolicyOptions options;
  options.seed = 7;
  PolicyNet a(options), b(options);
  EXPECT_EQ(a.Encode(), b.Encode());
  EXPECT_EQ(a.WeightsHash(), b.WeightsHash());

  options.seed = 8;
  PolicyNet c(options);
  EXPECT_NE(a.Encode(), c.Encode());
}

TEST(Policy, SaveLoadRoundTripIsByteExact) {
  PolicyOptions options;
  options.hidden = 4;
  options.seed = 11;
  options.learning_rate = 0.125;
  PolicyNet policy(options);

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(policy.Save(path).ok());
  StatusOr<PolicyNet> loaded = PolicyNet::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value().options() == options);
  EXPECT_EQ(loaded.value().Encode(), policy.Encode());
  EXPECT_EQ(loaded.value().WeightsHash(), policy.WeightsHash());
  std::remove(path.c_str());
}

TEST(Policy, DecodeRejectsShortStrings) {
  EXPECT_FALSE(PolicyNet::Decode("").ok());
  EXPECT_FALSE(PolicyNet::Decode("LYRAPOL_").ok());
}

TEST(Env, RewardCombinesJctAndUtilization) {
  SimulationResult result;
  result.jct.mean = 7200.0;  // half the 4h normalizer
  result.training_usage = 0.8;
  EXPECT_DOUBLE_EQ(ComputeReward(result), -0.5 + 0.5 * 0.8);
}

struct Episode {
  SimulationResult result;
  double reward = 0.0;
  Trajectory trajectory;  // empty in kEval mode
};

// One episode at test scale (6 training + 6 inference servers, a quarter
// day, loaning on), rolled out through the harness like the trainer's.
Episode RunEpisode(const PolicyNet& policy, PolicyMode mode, std::uint64_t sample_seed) {
  ExperimentConfig config;
  config.scale = 0.01245;
  config.days = 0.25;
  Episode episode;
  RunSpec spec;
  spec.scheduler = "learned";
  spec.reclaim = "lyra";
  spec.loaning = true;
  spec.policy = std::make_shared<const PolicyNet>(policy);
  spec.policy_mode = mode;
  spec.policy_sample_seed = sample_seed;
  if (mode == PolicyMode::kSample) {
    spec.trajectory = &episode.trajectory;
  }
  episode.result = RunExperiment(config, spec);
  episode.reward = ComputeReward(episode.result);
  return episode;
}

TEST(Env, EpisodesAreDeterministicPerSeed) {
  PolicyNet policy;

  const Episode eval_a = RunEpisode(policy, PolicyMode::kEval, 1);
  const Episode eval_b = RunEpisode(policy, PolicyMode::kEval, 99);
  // kEval ignores the sample seed entirely.
  EXPECT_DOUBLE_EQ(eval_a.result.jct.mean, eval_b.result.jct.mean);
  EXPECT_DOUBLE_EQ(eval_a.reward, eval_b.reward);
  EXPECT_TRUE(eval_a.trajectory.steps.empty());

  const Episode sample_a = RunEpisode(policy, PolicyMode::kSample, 5);
  const Episode sample_b = RunEpisode(policy, PolicyMode::kSample, 5);
  ASSERT_FALSE(sample_a.trajectory.steps.empty());
  ASSERT_EQ(sample_a.trajectory.steps.size(), sample_b.trajectory.steps.size());
  EXPECT_DOUBLE_EQ(sample_a.reward, sample_b.reward);
  for (std::size_t i = 0; i < sample_a.trajectory.steps.size(); ++i) {
    EXPECT_EQ(sample_a.trajectory.steps[i].obs, sample_b.trajectory.steps[i].obs);
    EXPECT_DOUBLE_EQ(sample_a.trajectory.steps[i].d_priority,
                     sample_b.trajectory.steps[i].d_priority);
    EXPECT_DOUBLE_EQ(sample_a.trajectory.steps[i].d_worker,
                     sample_b.trajectory.steps[i].d_worker);
  }
}

TEST(Env, ObservationsStayInUnitRange) {
  PolicyNet policy;
  const Episode episode = RunEpisode(policy, PolicyMode::kSample, 3);
  ASSERT_FALSE(episode.trajectory.steps.empty());
  for (const TrajectoryStep& step : episode.trajectory.steps) {
    ASSERT_EQ(step.obs.size(), static_cast<std::size_t>(kFeatureCount));
    for (const double feature : step.obs) {
      EXPECT_GE(feature, -1.0);
      EXPECT_LE(feature, 1.0);
    }
  }
}

}  // namespace
}  // namespace lyra::rl
