#include "nn/data.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace lightnas::nn {

Dataset Dataset::gather(const std::vector<std::size_t>& indices) const {
  Dataset out;
  out.features = Tensor::uninitialized(indices.size(), features.cols());
  out.labels.reserve(indices.size());
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const std::size_t src = indices[r];
    assert(src < size());
    for (std::size_t c = 0; c < features.cols(); ++c) {
      out.features.at(r, c) = features.at(src, c);
    }
    out.labels.push_back(labels[src]);
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(std::size_t n_first,
                                           lightnas::util::Rng& rng) const {
  assert(n_first <= size());
  const std::vector<std::size_t> order = rng.permutation(size());
  std::vector<std::size_t> first(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(
                                                     n_first));
  std::vector<std::size_t> second(
      order.begin() + static_cast<std::ptrdiff_t>(n_first), order.end());
  return {gather(first), gather(second)};
}

Batcher::Batcher(const Dataset& data, std::size_t batch_size,
                 lightnas::util::Rng& rng)
    : data_(data), batch_size_(batch_size), rng_(rng) {
  assert(batch_size > 0);
  assert(data.size() > 0);
  order_ = rng_.permutation(data_.size());
}

Dataset Batcher::next() {
  std::vector<std::size_t> indices;
  indices.reserve(batch_size_);
  for (std::size_t i = 0; i < batch_size_; ++i) {
    if (cursor_ >= order_.size()) {
      order_ = rng_.permutation(data_.size());
      cursor_ = 0;
    }
    indices.push_back(order_[cursor_++]);
  }
  return data_.gather(indices);
}

std::size_t Batcher::batches_per_epoch() const {
  return (data_.size() + batch_size_ - 1) / batch_size_;
}

void Batcher::restore_state(State state) {
  if (state.order.size() != data_.size() ||
      state.cursor > state.order.size()) {
    throw std::invalid_argument(
        "Batcher::restore_state: snapshot does not match dataset");
  }
  // next() gathers the rows the order names, so it must name each row
  // of the dataset exactly once.
  std::vector<bool> seen(state.order.size(), false);
  for (const std::size_t row : state.order) {
    if (row >= seen.size() || seen[row]) {
      throw std::invalid_argument(
          "Batcher::restore_state: order is not a permutation of the "
          "dataset's rows (row " + std::to_string(row) + ")");
    }
    seen[row] = true;
  }
  order_ = std::move(state.order);
  cursor_ = state.cursor;
}

SyntheticTask make_synthetic_task(const SyntheticTaskConfig& config) {
  assert(config.num_classes >= 2);
  assert(config.feature_dim >= 2);
  assert(config.num_centers >= config.num_classes);
  assert(config.label_noise >= 0.0 && config.label_noise < 1.0);
  lightnas::util::Rng rng(config.seed);

  // Random prototypes; classes are assigned round-robin so they are
  // exactly balanced across centers.
  std::vector<std::vector<float>> centers(
      config.num_centers, std::vector<float>(config.feature_dim));
  std::vector<std::size_t> center_class(config.num_centers);
  for (std::size_t j = 0; j < config.num_centers; ++j) {
    for (auto& v : centers[j]) v = static_cast<float>(rng.normal());
    center_class[j] = j % config.num_classes;
  }

  auto sample_split = [&](std::size_t n) {
    Dataset d;
    d.features = Tensor::randn(n, config.feature_dim, rng);
    d.labels.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      double best = 0.0;
      std::size_t best_center = 0;
      for (std::size_t j = 0; j < config.num_centers; ++j) {
        double dist_sq = 0.0;
        for (std::size_t c = 0; c < config.feature_dim; ++c) {
          const double diff = static_cast<double>(d.features.at(i, c)) -
                              static_cast<double>(centers[j][c]);
          dist_sq += diff * diff;
        }
        if (j == 0 || dist_sq < best) {
          best = dist_sq;
          best_center = j;
        }
      }
      std::size_t label = center_class[best_center];
      if (config.label_noise > 0.0 && rng.bernoulli(config.label_noise)) {
        label = static_cast<std::size_t>(
            rng.uniform_index(config.num_classes));
      }
      d.labels.push_back(label);
    }
    return d;
  };

  SyntheticTask task;
  task.train = sample_split(config.train_size);
  task.valid = sample_split(config.valid_size);
  return task;
}

}  // namespace lightnas::nn
