// Unit tests for the throughput / scaling models.
#include <gtest/gtest.h>

#include "src/workload/throughput.h"

namespace lyra {
namespace {

JobSpec ElasticSpec(int min_w = 2, int max_w = 6) {
  JobSpec spec;
  spec.id = JobId(0);
  spec.gpus_per_worker = 2;
  spec.min_workers = min_w;
  spec.max_workers = max_w;
  spec.total_work = 1000.0;
  return spec;
}

PlacementProfile Profile(int workers, double factor = 1.0, bool hetero = false) {
  PlacementProfile p;
  p.workers = workers;
  p.mean_gpu_factor = factor;
  p.spans_heterogeneous = hetero;
  return p;
}

TEST(ThroughputModel, LinearByDefault) {
  ThroughputModel model;
  const JobSpec spec = ElasticSpec();
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(2)), 2.0);
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(4)), 4.0);
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(6)), 6.0);
}

TEST(ThroughputModel, ZeroWorkersZeroRate) {
  ThroughputModel model;
  EXPECT_DOUBLE_EQ(model.Rate(ElasticSpec(), Profile(0)), 0.0);
}

TEST(ThroughputModel, MarginalEfficiencyDiscountsExtraWorkersOnly) {
  ThroughputOptions options;
  options.marginal_efficiency = 0.8;  // the §7.2 imperfect-scaling study
  ThroughputModel model(options);
  const JobSpec spec = ElasticSpec(2, 6);
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(2)), 2.0);           // base untouched
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(4)), 2.0 + 0.8 * 2); // 2 extra
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(6)), 2.0 + 0.8 * 4);
}

TEST(ThroughputModel, TunedJobsRecoverLinearScalingPlusBoost) {
  ThroughputOptions options;
  options.marginal_efficiency = 0.8;
  ThroughputModel model(options);
  const JobSpec spec = ElasticSpec(2, 6);
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(6), /*tuned=*/true), 6.0 * kTunedBoost);
}

TEST(ThroughputModel, InferenceGpusNormalizeToNominalWorkers) {
  ThroughputModel model;
  const JobSpec spec = ElasticSpec(2, 6);
  // 6 physical T4 workers at factor 1/3 == 2 nominal workers.
  EXPECT_NEAR(model.Rate(spec, Profile(6, 1.0 / 3.0)), 2.0, 1e-9);
}

TEST(ThroughputModel, HeterogeneousPenaltyApplies) {
  ThroughputOptions options;
  options.heterogeneous_efficiency = 0.7;  // Advanced scenario (§7.1)
  ThroughputModel model(options);
  const JobSpec spec = ElasticSpec(2, 6);
  EXPECT_DOUBLE_EQ(model.Rate(spec, Profile(4, 1.0, /*hetero=*/true)), 4.0 * 0.7);
}

TEST(ThroughputModel, IdealHeterogeneousHasNoPenalty) {
  ThroughputOptions options;
  options.heterogeneous_efficiency = 1.0;
  ThroughputModel model(options);
  EXPECT_DOUBLE_EQ(model.Rate(ElasticSpec(), Profile(4, 1.0, true)), 4.0);
}

TEST(ThroughputModel, EffectiveWorkersMonotone) {
  ThroughputOptions options;
  options.marginal_efficiency = 0.8;
  ThroughputModel model(options);
  const JobSpec spec = ElasticSpec(2, 8);
  double prev = 0.0;
  for (int w = 1; w <= 8; ++w) {
    const double eff = model.EffectiveWorkers(spec, w);
    EXPECT_GT(eff, prev);
    EXPECT_LE(eff, static_cast<double>(w));
    prev = eff;
  }
}

TEST(ScalingCurve, ThroughputIncreasesWithWorkers) {
  for (ModelFamily family : {ModelFamily::kResNet, ModelFamily::kVgg,
                             ModelFamily::kBert, ModelFamily::kGnmt}) {
    const ModelScalingCurve curve = CurveFor(family);
    double prev = 0.0;
    for (int w = 1; w <= 16; ++w) {
      const double tp = curve.ThroughputAt(w);
      EXPECT_GT(tp, prev) << ModelFamilyName(family) << " at " << w;
      prev = tp;
    }
  }
}

TEST(ScalingCurve, MarginalGainDiminishes) {
  const ModelScalingCurve curve = CurveFor(ModelFamily::kVgg);
  double prev_gain = 1e18;
  for (int w = 1; w < 16; ++w) {
    const double gain = curve.ThroughputAt(w + 1) - curve.ThroughputAt(w);
    EXPECT_LT(gain, prev_gain);
    prev_gain = gain;
  }
}

TEST(ScalingCurve, NearLinearUpTo16WorkersForGoodScalers) {
  // Fig 3: the four families keep good throughput scalability; at 16 workers
  // each retains at least 70% of perfectly linear scaling.
  for (ModelFamily family : {ModelFamily::kResNet, ModelFamily::kVgg,
                             ModelFamily::kBert, ModelFamily::kGnmt}) {
    const ModelScalingCurve curve = CurveFor(family);
    const double efficiency = curve.ThroughputAt(16) / (16.0 * curve.ThroughputAt(1));
    EXPECT_GE(efficiency, 0.70) << ModelFamilyName(family);
    EXPECT_LE(efficiency, 1.0) << ModelFamilyName(family);
  }
}

TEST(ScalingCurve, ZeroWorkersZeroThroughput) {
  EXPECT_DOUBLE_EQ(CurveFor(ModelFamily::kBert).ThroughputAt(0), 0.0);
}

TEST(ModelFamily, NamesRoundTrip) {
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kResNet), "ResNet-50");
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kVgg), "VGG16");
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kBert), "BERT");
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kGnmt), "GNMT-16");
}

// Property sweep: for every family and worker count, throughput per worker
// never exceeds the single-worker throughput (no super-linear scaling).
class CurveProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CurveProperty, NoSuperLinearScaling) {
  const auto [family_index, workers] = GetParam();
  const auto family = static_cast<ModelFamily>(family_index);
  const ModelScalingCurve curve = CurveFor(family);
  EXPECT_LE(curve.ThroughputAt(workers) / workers, curve.ThroughputAt(1) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllFamiliesAndSizes, CurveProperty,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 2, 4, 8, 16, 32)));

}  // namespace
}  // namespace lyra
