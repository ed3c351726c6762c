#include "predictors/mlp_predictor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "nn/pool.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lightnas::predictors {

namespace {

/// Checked in every build: the forward copies an encoding into an
/// uninitialized input row, so a narrower one would leave the row's tail
/// unset and a wider one would overrun it.
void check_width(const char* caller, std::size_t width, std::size_t want) {
  if (width != want) {
    throw std::invalid_argument(std::string(caller) + ": encoding width " +
                                std::to_string(width) +
                                " does not match the predictor's input "
                                "width " + std::to_string(want));
  }
}

/// The same check for an architecture, which writes num_layers * num_ops
/// floats into its input row.
void check_layers(const char* caller, const space::Architecture& arch,
                  std::size_t want) {
  if (arch.num_layers() != want) {
    throw std::invalid_argument(std::string(caller) + ": architecture has " +
                                std::to_string(arch.num_layers()) +
                                " layers, but the predictor has " +
                                std::to_string(want));
  }
}

}  // namespace

MlpPredictor::MlpPredictor(std::size_t num_layers, std::size_t num_ops,
                           std::uint64_t seed, std::string unit)
    : num_layers_(num_layers), num_ops_(num_ops), unit_(std::move(unit)) {
  util::Rng rng(seed);
  // The paper's predictor: three fully connected layers, 128-64-1.
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{input_dim(), 128, 64, 1}, rng,
      "latency_mlp");
}

double MlpPredictor::train(const MeasurementDataset& data,
                           const MlpTrainConfig& config) {
  // Checked in every build: a zero batch size would never advance the
  // batch loop below, and an architecture of the wrong layer count or
  // with an op past num_ops would leave part of its row unset or write
  // past it. Every row is written once here, so a bad one throws before
  // the first step touches the weights.
  if (config.batch_size == 0) {
    throw std::invalid_argument("MlpPredictor::train: batch size must be > 0");
  }
  if (data.size() < 2 || data.architectures.size() != data.size()) {
    throw std::invalid_argument(
        "MlpPredictor::train: need at least 2 samples, one architecture "
        "each");
  }
  std::vector<float> row(input_dim());
  for (const space::Architecture& arch : data.architectures) {
    check_layers("MlpPredictor::train", arch, num_layers_);
    arch.encode_one_hot_into(num_ops_, row.data());
  }

  // Memory-reuse layer: per-epoch graphs recycle instead of reallocating
  // (pure buffer recycling — weights are bit-identical either way).
  const nn::PooledScope pool_scope(config.pool_tensors
                                       ? nn::PoolMode::kInherit
                                       : nn::PoolMode::kDisabled);

  target_mean_ = util::mean(data.targets);
  target_std_ = std::max(util::stddev(data.targets), 1e-6);

  util::Rng rng(config.seed);
  nn::Adam optimizer(mlp_->parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);
  const nn::CosineSchedule schedule(config.learning_rate,
                                    config.epochs + 1);

  double last_epoch_loss = 0.0;
  std::size_t step_epoch = 0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_lr(schedule.lr_at(step_epoch++));
    const std::vector<std::size_t> order = rng.permutation(data.size());
    double epoch_loss = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(start + config.batch_size, order.size());
      const std::size_t rows = end - start;

      // Fully overwritten below (each one-hot row zero-fills itself) —
      // pooled hits skip the tensor's own zero-fill pass.
      nn::Tensor x = nn::Tensor::uninitialized(rows, input_dim());
      nn::Tensor y = nn::Tensor::uninitialized(rows, 1);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t idx = order[start + r];
        data.architectures[idx].encode_one_hot_into(
            num_ops_, x.data().data() + r * input_dim());
        y.at(r, 0) = static_cast<float>(
            (data.targets[idx] - target_mean_) / target_std_);
      }

      optimizer.zero_grad();
      nn::VarPtr pred = mlp_->forward(nn::make_const(std::move(x)));
      nn::VarPtr loss = nn::ops::mse_loss(pred, nn::make_const(std::move(y)));
      nn::backward(loss);
      optimizer.step();

      epoch_loss += static_cast<double>(loss->value.item());
      ++batches;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(batches);
    if (config.log_every != 0 && (epoch + 1) % config.log_every == 0) {
      util::log_info() << "mlp-predictor epoch " << (epoch + 1) << "/"
                       << config.epochs << " mse=" << last_epoch_loss;
    }
  }
  trained_ = true;
  return last_epoch_loss;
}

double MlpPredictor::predict(const space::Architecture& arch) const {
  check_layers("MlpPredictor::predict", arch, num_layers_);
  nn::Tensor x = nn::Tensor::uninitialized(1, input_dim());
  arch.encode_one_hot_into(num_ops_, x.data().data());
  return predict_row(std::move(x));
}

double MlpPredictor::predict_encoding(
    const std::vector<float>& encoding) const {
  check_width("MlpPredictor::predict_encoding", encoding.size(),
              input_dim());
  nn::Tensor x = nn::Tensor::uninitialized(1, input_dim());
  std::copy(encoding.begin(), encoding.end(), x.data().begin());
  return predict_row(std::move(x));
}

double MlpPredictor::predict_row(nn::Tensor x) const {
  assert(trained_);
  const nn::VarPtr out = mlp_->forward(nn::make_const(std::move(x)));
  return target_mean_ +
         target_std_ * static_cast<double>(out->value.item());
}

std::vector<double> MlpPredictor::predict_batch(
    const std::vector<space::Architecture>& archs) const {
  assert(trained_);
  if (archs.empty()) return {};
  nn::Tensor x = nn::Tensor::uninitialized(archs.size(), input_dim());
  for (std::size_t r = 0; r < archs.size(); ++r) {
    check_layers("MlpPredictor::predict_batch", archs[r], num_layers_);
    archs[r].encode_one_hot_into(num_ops_,
                                 x.data().data() + r * input_dim());
  }
  const nn::Tensor out = mlp_->forward_inference(x);
  std::vector<double> result(archs.size());
  for (std::size_t r = 0; r < archs.size(); ++r) {
    result[r] =
        target_mean_ + target_std_ * static_cast<double>(out.at(r, 0));
  }
  return result;
}

nn::VarPtr MlpPredictor::forward_var(const nn::VarPtr& encoding) const {
  assert(trained_);
  assert(encoding->value.rows() == 1);
  assert(encoding->value.cols() == input_dim());
  const nn::VarPtr normalized = mlp_->forward(encoding);
  return nn::ops::add_scalar(nn::ops::scale(normalized, target_std_),
                             target_mean_);
}

MlpPredictor::State MlpPredictor::export_state() const {
  State state;
  state.num_layers = num_layers_;
  state.num_ops = num_ops_;
  state.unit = unit_;
  state.target_mean = target_mean_;
  state.target_std = target_std_;
  state.trained = trained_;
  for (const nn::VarPtr& param : mlp_->parameters()) {
    // State stays a plain std::vector blob (it is a serialization
    // format, not kernel storage), so copy out of the aligned buffer.
    state.tensors.emplace_back(param->value.data().begin(),
                               param->value.data().end());
    state.shapes.emplace_back(param->value.rows(), param->value.cols());
  }
  return state;
}

MlpPredictor MlpPredictor::from_state(const State& state) {
  MlpPredictor predictor(state.num_layers, state.num_ops, /*seed=*/0,
                         state.unit);
  const std::vector<nn::VarPtr> params = predictor.mlp_->parameters();
  if (params.size() != state.tensors.size()) {
    throw std::runtime_error("predictor state: wrong tensor count");
  }
  // shapes is parallel to tensors; a blob with fewer shape entries than
  // tensors would otherwise read state.shapes[i] out of bounds below.
  if (state.shapes.size() != state.tensors.size()) {
    throw std::runtime_error(
        "predictor state: shape/tensor count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->value.rows() != state.shapes[i].first ||
        params[i]->value.cols() != state.shapes[i].second ||
        params[i]->value.size() != state.tensors[i].size()) {
      throw std::runtime_error("predictor state: shape mismatch");
    }
    params[i]->value.data().assign(state.tensors[i].begin(),
                                   state.tensors[i].end());
  }
  predictor.target_mean_ = state.target_mean;
  predictor.target_std_ = state.target_std;
  predictor.trained_ = state.trained;
  return predictor;
}

PredictorReport MlpPredictor::evaluate(
    const MeasurementDataset& data) const {
  if (data.architectures.size() != data.targets.size()) {
    throw std::invalid_argument(
        "MlpPredictor::evaluate: " +
        std::to_string(data.architectures.size()) +
        " architectures for " + std::to_string(data.targets.size()) +
        " targets");
  }
  std::vector<double> predicted;
  predicted.reserve(data.size());
  for (const space::Architecture& arch : data.architectures) {
    predicted.push_back(predict(arch));
  }
  return evaluate_predictions(predicted, data.targets);
}

}  // namespace lightnas::predictors
