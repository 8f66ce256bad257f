// A small LSTM time-series model, from scratch (§6).
//
// Matches the paper's predictor: window size 10, two hidden LSTM layers, a
// linear head, trained online with Adam on MSE loss. Input and output are
// scalar usage fractions in [0, 1]. The implementation is plain
// std::vector math — no external ML dependency — with full backpropagation
// through time over the window.
#ifndef SRC_PREDICT_LSTM_H_
#define SRC_PREDICT_LSTM_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/predict/predictor.h"

namespace lyra {

// Adam moment decay rates and denominator epsilon.
inline constexpr double kAdamBeta1 = 0.9;
inline constexpr double kAdamBeta2 = 0.999;
inline constexpr double kAdamEps = 1e-8;
// Gradient steps the usage predictor performs per observed sample (on random
// past windows).
inline constexpr int kLstmTrainStepsPerObserve = 4;
// Before this many samples the usage predictor falls back to the last value.
inline constexpr int kLstmWarmupSamples = 64;

struct LstmOptions {
  int window = 10;
  int hidden = 16;
  int layers = 2;
  double learning_rate = 0.01;  // Adam step size
  std::uint64_t seed = 17;
};

// One stacked-LSTM network with a linear output head. Exposed separately from
// the predictor so tests can train it on known functions and check its
// backprop-through-time gradient against finite differences through the flat
// parameter view.
class LstmNetwork {
 public:
  explicit LstmNetwork(const LstmOptions& options);

  // The flat parameter view (param_ptrs_) points into this object's own
  // storage (head_b_ included), so a copy or a move would leave it pointing
  // at the source. Deleting the copy operations also suppresses the moves.
  LstmNetwork(const LstmNetwork&) = delete;
  LstmNetwork& operator=(const LstmNetwork&) = delete;

  // Runs the window through the network; returns the scalar prediction.
  double Forward(const std::vector<double>& window);

  // One training step (forward, BPTT, Adam update) on (window -> target).
  // Returns the squared-error loss before the update.
  double TrainStep(const std::vector<double>& window, double target);

  // One MSE forward/backward into a freshly zeroed buffer, without an
  // optimizer step. Returns the squared error; used by the finite-difference
  // gradient check in predictor_test.
  double ComputeLossAndGradient(const std::vector<double>& window, double target);

  // --- Flat parameter access (gradient checks) -----------------------------

  int num_parameters() const;
  double parameter(int i) const { return *param_ptrs_[static_cast<std::size_t>(i)]; }
  void set_parameter(int i, double v) { *param_ptrs_[static_cast<std::size_t>(i)] = v; }
  const std::vector<double>& gradients() const { return grads_; }

  const LstmOptions& options() const { return options_; }

 private:
  struct Layer {
    int input_size = 0;
    int hidden = 0;
    // Gate order within the 4H rows: input, forget, cell, output.
    std::vector<double> w;  // [4H x input_size]
    std::vector<double> u;  // [4H x H]
    std::vector<double> b;  // [4H]
  };

  // Per-timestep activations recorded for backprop.
  struct StepCache {
    std::vector<double> x;        // layer input
    std::vector<double> gates;    // 4H pre-activation -> post-activation
    std::vector<double> c;        // cell state
    std::vector<double> tanh_c;   // tanh(c)
    std::vector<double> h;        // hidden state
    std::vector<double> c_prev;
    std::vector<double> h_prev;
  };

  double RunForward(const std::vector<double>& window,
                    std::vector<std::vector<StepCache>>* cache);
  void Backward(const std::vector<std::vector<StepCache>>& cache, double d_output);
  void ZeroGradients();
  void AdamUpdate();

  LstmOptions options_;
  std::vector<Layer> layers_;
  std::vector<double> head_w_;  // [H]
  double head_b_ = 0.0;

  // Flattened gradient / Adam state aligned with a flat parameter view.
  std::vector<double*> param_ptrs_;
  std::vector<double> grads_;
  std::vector<double> adam_m_;
  std::vector<double> adam_v_;
  std::int64_t adam_t_ = 0;
};

class LstmPredictor : public UsagePredictor {
 public:
  explicit LstmPredictor(LstmOptions options = {});

  const char* name() const override { return "lstm"; }
  void Observe(double value) override;
  double PredictNext() override;

  // Mean training loss over the most recent observations (diagnostics; the
  // paper reports 0.00048 average MSE over 1440 points).
  double recent_loss() const;

 private:
  LstmOptions options_;
  LstmNetwork network_;
  Rng rng_;
  std::vector<double> history_;
  std::vector<double> recent_losses_;
};

}  // namespace lyra

#endif  // SRC_PREDICT_LSTM_H_
