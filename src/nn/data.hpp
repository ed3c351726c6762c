#pragma once

#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {

/// In-memory labelled dataset: features (N x D) plus integer labels.
struct Dataset {
  Tensor features;                   // N x D
  std::vector<std::size_t> labels;   // size N

  std::size_t size() const { return labels.size(); }
  std::size_t feature_dim() const { return features.cols(); }

  /// Copy the given example indices into a contiguous batch.
  Dataset gather(const std::vector<std::size_t>& indices) const;

  /// Deterministic split into [0, n_first) and [n_first, N) after a
  /// seeded shuffle (the paper's 80/20 predictor split, Sec 3.2).
  std::pair<Dataset, Dataset> split(std::size_t n_first,
                                    lightnas::util::Rng& rng) const;
};

/// Shuffled mini-batch iterator over a Dataset.
class Batcher {
 public:
  /// Serializable iterator position (checkpoint support). Together with
  /// the state of the Rng the batcher draws from, this reproduces the
  /// exact batch sequence after a restore.
  struct State {
    std::vector<std::size_t> order;
    std::size_t cursor = 0;
  };

  Batcher(const Dataset& data, std::size_t batch_size,
          lightnas::util::Rng& rng);

  /// Fetch the next batch, reshuffling at each epoch boundary.
  Dataset next();

  std::size_t batches_per_epoch() const;

  State export_state() const { return {order_, cursor_}; }
  /// Restore a snapshot taken on a batcher over the same dataset.
  /// Throws std::invalid_argument unless the order is a permutation of
  /// the dataset's rows and the cursor is at most its length.
  void restore_state(State state);

 private:
  const Dataset& data_;
  std::size_t batch_size_;
  lightnas::util::Rng& rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

/// Configuration for the synthetic classification task used to train the
/// supernet surrogate (substitute for ImageNet-100; see DESIGN.md).
///
/// The task is a Voronoi-teacher problem: inputs are isotropic Gaussian
/// vectors; `num_centers` random prototypes are each assigned a class,
/// and an input's true label is the class of its nearest prototype. With
/// several prototypes per class the decision regions are unions of
/// Voronoi cells — strongly non-linear but smooth, so student capacity
/// (depth x width) monotonically buys accuracy over a wide range before
/// saturating. That is exactly the accuracy/latency tension the
/// constrained search trades against. A label-noise floor keeps
/// validation loss sensitive near the top. (A tanh "random teacher
/// network" was rejected: for Gaussian inputs at trainable gains its
/// argmax boundary is quasi-linear and a linear probe matches deep
/// students — no capacity signal.)
struct SyntheticTaskConfig {
  std::size_t num_classes = 10;
  std::size_t feature_dim = 16;
  std::size_t num_centers = 64;
  std::size_t train_size = 16384;
  std::size_t valid_size = 2048;
  /// Fraction of labels flipped uniformly at random.
  double label_noise = 0.05;
  std::uint64_t seed = 1234;
};

struct SyntheticTask {
  Dataset train;
  Dataset valid;
};

/// Generate the Voronoi-teacher classification task described above.
SyntheticTask make_synthetic_task(const SyntheticTaskConfig& config);

}  // namespace lightnas::nn
