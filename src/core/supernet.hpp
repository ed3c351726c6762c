#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/data.hpp"
#include "nn/modules.hpp"
#include "space/search_space.hpp"

namespace lightnas::core {

/// Configuration of the surrogate supernet.
struct SupernetConfig {
  /// Embedding width d of the backbone feature stream.
  std::size_t embed_dim = 32;
  /// Base hidden width; an MBConv(k, e) candidate gets a residual block
  /// of hidden width ~ base * e * (k+1)/4, so capacity grows with both
  /// kernel size and expansion ratio exactly as in the real space.
  std::size_t base_hidden = 8;
  /// Residual branch scale. 0 selects 1/sqrt(L) (variance-preserving at
  /// init); larger values speed up block learning at some stability cost.
  double branch_scale = 0.0;
  std::uint64_t seed = 99;
};

/// Mean loss and accuracy of one read-only evaluation.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Trainable weight-sharing supernet over the layer-wise search space.
///
/// This is the repo's substitute for the ImageNet-100 supernet (see
/// DESIGN.md): each (layer, MBConv-candidate) pair owns a residual MLP
/// block whose width scales with the candidate's kernel/expansion, and
/// SkipConnect is a true identity. The search dynamics the paper studies
/// — accuracy improves with capacity, the latency penalty pushes back —
/// are fully real here; only the task is synthetic.
///
/// Both execution modes of the literature are provided:
///  - `forward_single_path`: LightNAS's memory-light mode (Sec 3.3),
///    evaluating exactly one candidate per layer, with optional GDAS-style
///    gate scalars so gradients reach the architecture distribution.
///  - `forward_multi_path`: the FBNet/DARTS mode (Eq 1), evaluating every
///    candidate in every layer weighted by soft path probabilities; used
///    by the baselines and by the memory-cost comparisons.
class SurrogateSupernet {
 public:
  SurrogateSupernet(const space::SearchSpace& space,
                    std::size_t feature_dim, std::size_t num_classes,
                    const SupernetConfig& config);

  const space::SearchSpace& space() const { return *space_; }

  /// Hidden width assigned to an operator candidate (0 for Skip).
  /// Capacity additionally grows with the layer's stage: late stages
  /// (more channels in the real space) learn higher-level features and
  /// benefit more from capacity, mirroring the channel progression of
  /// the macro-architecture.
  std::size_t hidden_width(const space::Operator& op,
                           std::size_t stage = 3) const;

  /// Single-path forward. `op_choice` selects one op per layer (length
  /// L, fixed layers must carry their fixed op). `gates`, when non-empty,
  /// is one 1x1 Var per layer multiplied onto that layer's output
  /// (pass graph-connected gates valued 1.0 for GDAS-style credit
  /// assignment; empty for plain weight training).
  nn::VarPtr forward_single_path(
      const nn::Tensor& features,
      const std::vector<std::size_t>& op_choice,
      const std::vector<nn::VarPtr>& gates = {}) const;

  /// Graph-free single-path evaluation of `op_choice` on `data`: the
  /// mean softmax cross-entropy and the accuracy. Bit-identical to
  /// forward_single_path + ops::softmax_cross_entropy + ops::accuracy
  /// (same kernels in the same order), but it builds no autograd graph.
  /// The rows run through the path kEvalTileRows at a time into one
  /// n x classes logits tensor, which the loss and accuracy then read
  /// whole: every kernel on the path computes a row from that row alone,
  /// so the tile edge changes no bit, and only one tile's activations
  /// for one layer are alive at a time. A pool therefore keeps
  /// tile-sized activation buckets, whatever the validation set's size.
  /// It reads only the weight values, so concurrent calls are safe.
  /// Every read-only evaluation runs through here; forward_single_path
  /// is for steps that call backward.
  EvalResult evaluate(const nn::Dataset& data,
                      const std::vector<std::size_t>& op_choice) const;

  /// Rows per tile of evaluate.
  static constexpr std::size_t kEvalTileRows = 64;

  /// Multi-path forward per Eq (1)/(8)-soft: `path_weights` is an L x K
  /// Var of per-layer op weights (rows of a softmax). Every candidate in
  /// every layer is evaluated — K times the compute and activation
  /// memory of the single-path mode.
  nn::VarPtr forward_multi_path(const nn::Tensor& features,
                                const nn::VarPtr& path_weights) const;

  /// All supernet weights (stem, every candidate block, classifier).
  std::vector<nn::VarPtr> weight_parameters() const;

  /// Activation-memory footprint (floats) of one forward pass at the
  /// given batch size — single-path vs multi-path. Quantifies the
  /// "memory bottleneck" argument of Sec 3.3 / Table 1.
  std::size_t activations_single_path(std::size_t batch) const;
  std::size_t activations_multi_path(std::size_t batch) const;

  std::size_t num_classes() const { return classifier_->out_features(); }
  std::size_t feature_dim() const { return stem_->in_features(); }

 private:
  const space::SearchSpace* space_;
  std::size_t embed_dim_;
  std::size_t base_hidden_;
  std::unique_ptr<nn::Linear> stem_;
  /// blocks_[l][k]: candidate block, nullptr for SkipConnect.
  std::vector<std::vector<std::unique_ptr<nn::ResidualBlock>>> blocks_;
  std::unique_ptr<nn::Linear> classifier_;
};

}  // namespace lightnas::core
