#include "predictors/lut_predictor.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "nn/ops.hpp"

namespace lightnas::predictors {

LutPredictor::LutPredictor(const space::SearchSpace& space,
                           hw::HardwareSimulator& device)
    : num_layers_(space.num_layers()), num_ops_(space.num_ops()) {
  entries_.resize(num_layers_ * num_ops_, 0.0);
  for (std::size_t l = 0; l < num_layers_; ++l) {
    for (std::size_t k = 0; k < num_ops_; ++k) {
      entries_[l * num_ops_ + k] = device.measure_isolated_op_ms(
          space.layers()[l], space.ops().op(k));
    }
  }
}

double LutPredictor::entry(std::size_t layer, std::size_t op) const {
  assert(layer < num_layers_ && op < num_ops_);
  return entries_[layer * num_ops_ + op];
}

double LutPredictor::predict(const space::Architecture& arch) const {
  assert(arch.num_layers() == num_layers_);
  double total = 0.0;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    total += entry(l, arch.op_at(l));
  }
  return total;
}

double LutPredictor::predict_encoding(
    const std::vector<float>& encoding) const {
  assert(encoding.size() == entries_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < encoding.size(); ++i) {
    total += static_cast<double>(encoding[i]) * entries_[i];
  }
  return total;
}

nn::VarPtr LutPredictor::forward_var(const nn::VarPtr& encoding) const {
  assert(encoding->value.rows() == 1);
  assert(encoding->value.cols() == entries_.size());
  nn::Tensor weights(entries_.size(), 1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    weights[i] = static_cast<float>(entries_[i]);
  }
  return nn::ops::matmul(encoding, nn::make_const(std::move(weights)));
}

PredictorReport LutPredictor::evaluate(const MeasurementDataset& data) const {
  std::vector<double> predicted;
  predicted.reserve(data.size());
  std::vector<float> row(entries_.size());
  for (const space::Architecture& arch : data.architectures) {
    // Checked in every build: the row holds exactly num_layers_ layers.
    if (arch.num_layers() != num_layers_) {
      throw std::invalid_argument(
          "LutPredictor::evaluate: architecture has " +
          std::to_string(arch.num_layers()) + " layers, but the table has " +
          std::to_string(num_layers_));
    }
    arch.encode_one_hot_into(num_ops_, row.data());
    predicted.push_back(predict_encoding(row));
  }
  return evaluate_predictions(predicted, data.targets);
}

}  // namespace lightnas::predictors
