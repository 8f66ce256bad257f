// Tests for the usage predictors, including the from-scratch LSTM.
#include <gtest/gtest.h>

#include <cmath>

#include "src/predict/lstm.h"
#include "src/predict/predictor.h"

namespace lyra {
namespace {

TEST(LastValuePredictor, EchoesLastObservation) {
  LastValuePredictor p;
  EXPECT_EQ(p.PredictNext(), 0.0);
  p.Observe(0.7);
  EXPECT_EQ(p.PredictNext(), 0.7);
  p.Observe(0.2);
  EXPECT_EQ(p.PredictNext(), 0.2);
}

TEST(SeasonalNaive, FallsBackToLastValueBeforeOneSeason) {
  SeasonalNaivePredictor p(/*season_length=*/4, /*blend=*/0.5);
  p.Observe(0.1);
  p.Observe(0.9);
  EXPECT_DOUBLE_EQ(p.PredictNext(), 0.9);
}

TEST(SeasonalNaive, BlendsSeasonalValue) {
  SeasonalNaivePredictor p(/*season_length=*/4, /*blend=*/0.5);
  // One full season 0.1,0.2,0.3,0.4, then 0.5. Prediction target is slot 6,
  // whose seasonal analogue is history[5-4] = 0.2.
  for (double v : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    p.Observe(v);
  }
  EXPECT_DOUBLE_EQ(p.PredictNext(), 0.5 * 0.5 + 0.5 * 0.2);
}

TEST(SeasonalNaive, TracksPeriodicSignalBetterThanLastValue) {
  const std::size_t season = 24;
  SeasonalNaivePredictor seasonal(season, /*blend=*/0.2);
  LastValuePredictor last;
  double seasonal_err = 0.0;
  double last_err = 0.0;
  for (int t = 0; t < 500; ++t) {
    const double v = 0.5 + 0.4 * std::sin(2.0 * M_PI * t / season);
    if (t > static_cast<int>(2 * season)) {
      seasonal_err += std::abs(seasonal.PredictNext() - v);
      last_err += std::abs(last.PredictNext() - v);
    }
    seasonal.Observe(v);
    last.Observe(v);
  }
  EXPECT_LT(seasonal_err, last_err);
}

TEST(LstmNetwork, HasExpectedParameterCount) {
  LstmOptions options;
  options.hidden = 4;
  options.layers = 2;
  LstmNetwork net(options);
  // Layer 1: 4H*(in=1) + 4H*H + 4H = 16 + 64 + 16 = 96.
  // Layer 2: 4H*(in=4) + 4H*H + 4H = 64 + 64 + 16 = 144. Head: 4 + 1.
  EXPECT_EQ(net.num_parameters(), 96 + 144 + 5);
}

TEST(LstmNetwork, AnalyticGradientMatchesFiniteDifferences) {
  // Every parameter matrix — gate weights W/U, gate biases, the output head
  // — against a central finite difference of the squared-error loss. A tiny
  // two-layer net keeps the check exhaustive yet fast, and a non-constant
  // window exercises the full backprop-through-time path.
  LstmOptions options;
  options.window = 4;
  options.hidden = 3;
  options.layers = 2;
  options.seed = 5;
  LstmNetwork net(options);
  const std::vector<double> window = {0.1, 0.8, 0.3, 0.6};
  const double target = 0.4;

  net.ComputeLossAndGradient(window, target);
  const std::vector<double> analytic = net.gradients();
  ASSERT_EQ(analytic.size(), static_cast<std::size_t>(net.num_parameters()));

  const double eps = 1e-5;
  for (int i = 0; i < net.num_parameters(); ++i) {
    const double saved = net.parameter(i);
    net.set_parameter(i, saved + eps);
    const double loss_plus = net.ComputeLossAndGradient(window, target);
    net.set_parameter(i, saved - eps);
    const double loss_minus = net.ComputeLossAndGradient(window, target);
    net.set_parameter(i, saved);
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic[static_cast<std::size_t>(i)], numeric, 1e-4)
        << "parameter " << i << " of " << net.num_parameters();
  }
}

TEST(LstmNetwork, TrainingReducesLossOnConstantTarget) {
  LstmOptions options;
  options.hidden = 8;
  options.layers = 1;
  LstmNetwork net(options);
  const std::vector<double> window(10, 0.5);
  const double first = net.TrainStep(window, 0.5);
  double last = first;
  for (int i = 0; i < 200; ++i) {
    last = net.TrainStep(window, 0.5);
  }
  EXPECT_LT(last, first);
  EXPECT_LT(last, 1e-4);
}

TEST(LstmNetwork, LearnsSineWaveNextStep) {
  LstmOptions options;
  options.hidden = 16;
  options.layers = 2;
  options.learning_rate = 0.01;
  LstmNetwork net(options);
  auto signal = [](int t) { return 0.5 + 0.4 * std::sin(0.3 * t); };

  // Train on sliding windows.
  double final_loss = 1.0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    final_loss = 0.0;
    int steps = 0;
    for (int start = 0; start < 100; start += 3) {
      std::vector<double> window;
      for (int i = 0; i < 10; ++i) {
        window.push_back(signal(start + i));
      }
      final_loss += net.TrainStep(window, signal(start + 10));
      ++steps;
    }
    final_loss /= steps;
  }
  EXPECT_LT(final_loss, 0.002);

  // Generalizes to an unseen window.
  std::vector<double> window;
  for (int i = 0; i < 10; ++i) {
    window.push_back(signal(500 + i));
  }
  EXPECT_NEAR(net.Forward(window), signal(510), 0.1);
}

TEST(LstmPredictor, WarmupFallsBackToLastValue) {
  LstmPredictor p;
  for (int i = 0; i < kLstmWarmupSamples - 1; ++i) {
    p.Observe(0.4);
  }
  EXPECT_DOUBLE_EQ(p.PredictNext(), 0.4);
}

TEST(LstmPredictor, PredictionsClampToUnitInterval) {
  LstmPredictor p;
  for (int i = 0; i < 200; ++i) {
    p.Observe(i % 2 == 0 ? 0.0 : 1.0);
  }
  const double prediction = p.PredictNext();
  EXPECT_GE(prediction, 0.0);
  EXPECT_LE(prediction, 1.0);
}

TEST(LstmPredictor, TracksDiurnalSeriesWithLowLoss) {
  // §6: the paper reports 0.00048 average MSE over 1440 points on the 5-min
  // usage series. Our from-scratch LSTM on a comparable synthetic diurnal
  // series should reach the same order of magnitude.
  LstmPredictor p;
  const int day = 288;  // 5-minute slots
  for (int t = 0; t < 5 * day; ++t) {
    const double v =
        0.65 + 0.25 * std::sin(2.0 * M_PI * t / day) +
        0.03 * std::sin(2.0 * M_PI * t / 37.0);
    p.Observe(v);
  }
  EXPECT_LT(p.recent_loss(), 0.005);
  // And the next prediction is close to the actual next value.
  const double next =
      0.65 + 0.25 * std::sin(2.0 * M_PI * (5 * day) / day) +
      0.03 * std::sin(2.0 * M_PI * (5 * day) / 37.0);
  EXPECT_NEAR(p.PredictNext(), next, 0.08);
}

}  // namespace
}  // namespace lyra
