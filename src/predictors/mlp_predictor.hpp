#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/modules.hpp"
#include "predictors/dataset.hpp"
#include "predictors/metrics.hpp"
#include "predictors/predictor.hpp"

namespace lightnas::predictors {

/// Training hyper-parameters for the MLP predictor.
struct MlpTrainConfig {
  std::size_t epochs = 120;
  std::size_t batch_size = 64;
  double learning_rate = 5e-3;
  double weight_decay = 1e-4;
  std::uint64_t seed = 7;
  /// Print progress every N epochs; 0 disables logging.
  std::size_t log_every = 0;
  /// Recycle tensor buffers / autograd graphs through a nn::TensorPool
  /// for the duration of train() (inheriting a caller-installed pool).
  /// Trained weights are bit-identical with pooling on or off.
  bool pool_tensors = true;
};

/// The paper's hardware-metric predictor (Sec 3.2): a three-layer MLP
/// (128, 64, 1 neurons) over the flattened L*K one-hot architecture
/// encoding. Targets are standardized internally for stable optimization;
/// predictions are reported in the original unit (ms or mJ).
///
/// Crucially for Sec 3.4, the predictor is *differentiable with respect
/// to its input encoding*: `forward_var` splices the prediction into an
/// autograd graph so d(LAT)/d(P-bar) flows back into the architecture
/// parameters during search (Eq 12).
class MlpPredictor : public HardwarePredictor {
 public:
  /// `unit` labels what the predictor estimates ("ms", "mJ", ...).
  MlpPredictor(std::size_t num_layers, std::size_t num_ops,
               std::uint64_t seed = 7, std::string unit = "ms");

  std::size_t input_dim() const { return num_layers_ * num_ops_; }

  /// Train on measurement data; returns the final epoch's training MSE
  /// (in standardized units; diagnostics only). Each batch's input rows
  /// are written straight from the architectures' op bytes. Throws
  /// std::invalid_argument for a zero batch size, fewer than two
  /// samples, or an architecture whose layer count is not the
  /// predictor's, and std::out_of_range for an op not below num_ops —
  /// all before the first step.
  double train(const MeasurementDataset& data, const MlpTrainConfig& config);

  /// Point prediction in the target's unit. Throws
  /// std::invalid_argument for an architecture with the wrong layer
  /// count and std::out_of_range for an op not below num_ops, here and
  /// in predict_batch and evaluate. predict_encoding is for callers that
  /// already hold a row; it throws std::invalid_argument for a width
  /// other than input_dim().
  double predict(const space::Architecture& arch) const override;
  double predict_encoding(const std::vector<float>& encoding) const;

  /// True batched inference: writes the B one-hot rows into one
  /// B x (L*K) tensor and runs a single graph-free MLP forward instead
  /// of B sequential 1-row autograd forwards. Per-row results are
  /// bit-identical to `predict`. Thread-safe (read-only on the weights);
  /// this is the micro-batching service's hot path.
  std::vector<double> predict_batch(
      const std::vector<space::Architecture>& archs) const override;

  /// Differentiable prediction: input is a 1 x (L*K) Var (typically the
  /// binarized P-bar with a straight-through estimator attached); output
  /// is a 1x1 Var in the target's unit.
  nn::VarPtr forward_var(const nn::VarPtr& encoding) const override;

  std::string unit() const override { return unit_; }

  /// Evaluate on a held-out set, one `predict` per architecture. Throws
  /// std::invalid_argument when the architectures and targets differ in
  /// count, and as `predict` does for a bad architecture.
  PredictorReport evaluate(const MeasurementDataset& data) const;

  bool is_trained() const { return trained_; }
  std::size_t num_parameters() const { return mlp_->num_parameters(); }

  /// Serializable snapshot of a trained predictor (weights + target
  /// normalization). Used by io::save_predictor / io::load_predictor.
  struct State {
    std::size_t num_layers = 0;
    std::size_t num_ops = 0;
    std::string unit;
    double target_mean = 0.0;
    double target_std = 1.0;
    bool trained = false;
    /// Parameter tensors in nn::Mlp::parameters() order, with shapes.
    std::vector<std::vector<float>> tensors;
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
  };

  State export_state() const;
  /// Reconstruct a predictor from a snapshot (shape-checked).
  static MlpPredictor from_state(const State& state);

 private:
  /// The 1-row autograd forward behind predict and predict_encoding.
  double predict_row(nn::Tensor x) const;

  std::size_t num_layers_;
  std::size_t num_ops_;
  std::string unit_;
  std::unique_ptr<nn::Mlp> mlp_;
  double target_mean_ = 0.0;
  double target_std_ = 1.0;
  bool trained_ = false;
};

}  // namespace lightnas::predictors
