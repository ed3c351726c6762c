#include "core/supernet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace lightnas::core {

SurrogateSupernet::SurrogateSupernet(const space::SearchSpace& space,
                                     std::size_t feature_dim,
                                     std::size_t num_classes,
                                     const SupernetConfig& config)
    : space_(&space),
      embed_dim_(config.embed_dim),
      base_hidden_(config.base_hidden) {
  util::Rng rng(config.seed);
  stem_ = std::make_unique<nn::Linear>(feature_dim, embed_dim_, rng,
                                       "supernet.stem");

  blocks_.resize(space.num_layers());
  for (std::size_t l = 0; l < space.num_layers(); ++l) {
    blocks_[l].resize(space.num_ops());
    for (std::size_t k = 0; k < space.num_ops(); ++k) {
      const space::Operator& op = space.ops().op(k);
      if (op.kind == space::OpKind::kSkip) continue;  // identity: no weights
      const double branch_scale =
          config.branch_scale > 0.0
              ? config.branch_scale
              : 1.0 / std::sqrt(static_cast<double>(space.num_layers()));
      blocks_[l][k] = std::make_unique<nn::ResidualBlock>(
          embed_dim_, hidden_width(op, space.layers()[l].stage), rng,
          "supernet.l" + std::to_string(l) + ".k" + std::to_string(k),
          branch_scale);
    }
  }
  classifier_ = std::make_unique<nn::Linear>(embed_dim_, num_classes, rng,
                                             "supernet.classifier");
}

std::size_t SurrogateSupernet::hidden_width(const space::Operator& op,
                                            std::size_t stage) const {
  if (op.kind == space::OpKind::kSkip) return 0;
  const double stage_factor = 0.6 + 0.1 * static_cast<double>(stage);
  const double width = static_cast<double>(base_hidden_) *
                       static_cast<double>(op.expansion) *
                       (static_cast<double>(op.kernel) + 1.0) / 4.0 *
                       stage_factor;
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(width)));
}

nn::VarPtr SurrogateSupernet::forward_single_path(
    const nn::Tensor& features, const std::vector<std::size_t>& op_choice,
    const std::vector<nn::VarPtr>& gates) const {
  assert(op_choice.size() == space_->num_layers());
  assert(gates.empty() || gates.size() == space_->num_layers());

  nn::VarPtr x = nn::ops::relu(stem_->forward(nn::make_const(features)));
  for (std::size_t l = 0; l < op_choice.size(); ++l) {
    const std::size_t k = op_choice[l];
    assert(k < space_->num_ops());
    const nn::ResidualBlock* block = blocks_[l][k].get();
    const bool gated = !gates.empty() && gates[l] != nullptr;
    // GDAS-style gating of the *whole* operator output, SkipConnect
    // included (out = g * o_k(x), Eq 8): every candidate receives the
    // same credit form <grad, o_k(x)>, so the op-independent trunk
    // component biases all operators symmetrically and the softmax
    // competition is decided by the op-specific residue. Gating only
    // block ops (and not skip) was tried and collapses the search to
    // SkipConnect: blocks then absorb all of the common-mode gradient.
    nn::VarPtr y = (block != nullptr) ? block->forward(x) : x;
    if (gated) y = nn::ops::mul_scalar(y, gates[l]);
    x = std::move(y);
  }
  return classifier_->forward(x);
}

EvalResult SurrogateSupernet::evaluate(
    const nn::Dataset& data, const std::vector<std::size_t>& op_choice) const {
  assert(op_choice.size() == space_->num_layers());
  const std::size_t n = data.features.rows();
  const std::size_t dim = data.features.cols();
  const std::size_t classes = num_classes();
  nn::Tensor logits = nn::Tensor::uninitialized(n, classes);
  nn::Tensor tile;
  for (std::size_t r0 = 0; r0 < n; r0 += kEvalTileRows) {
    const std::size_t rows = std::min(kEvalTileRows, n - r0);
    if (tile.rows() != rows) tile = nn::Tensor::uninitialized(rows, dim);
    const float* src = data.features.data().data() + r0 * dim;
    std::copy(src, src + rows * dim, tile.data().data());
    nn::Tensor x = stem_->forward_inference(tile, /*fuse_relu=*/true);
    for (std::size_t l = 0; l < op_choice.size(); ++l) {
      assert(op_choice[l] < space_->num_ops());
      const nn::ResidualBlock* block = blocks_[l][op_choice[l]].get();
      if (block != nullptr) x = block->forward_inference(x);
    }
    const nn::Tensor tile_logits = classifier_->forward_inference(x);
    std::copy(tile_logits.data().begin(), tile_logits.data().end(),
              logits.data().data() + r0 * classes);
  }
  nn::Tensor probs;
  EvalResult result;
  result.loss = static_cast<double>(
      nn::ops::softmax_cross_entropy_forward(logits, data.labels, probs));
  result.accuracy = nn::ops::accuracy(logits, data.labels);
  return result;
}

nn::VarPtr SurrogateSupernet::forward_multi_path(
    const nn::Tensor& features, const nn::VarPtr& path_weights) const {
  assert(path_weights->value.rows() == space_->num_layers());
  assert(path_weights->value.cols() == space_->num_ops());

  nn::VarPtr x = nn::ops::relu(stem_->forward(nn::make_const(features)));
  for (std::size_t l = 0; l < space_->num_layers(); ++l) {
    nn::VarPtr mix;
    if (!space_->layers()[l].searchable) {
      // Fixed layers run their fixed candidate unweighted.
      const nn::ResidualBlock* block = blocks_[l][0].get();
      x = (block != nullptr) ? block->forward(x) : x;
      continue;
    }
    for (std::size_t k = 0; k < space_->num_ops(); ++k) {
      const nn::ResidualBlock* block = blocks_[l][k].get();
      nn::VarPtr candidate = (block != nullptr) ? block->forward(x) : x;
      nn::VarPtr weighted = nn::ops::mul_scalar(
          candidate, nn::ops::select(path_weights, l, k));
      mix = mix ? nn::ops::add(mix, weighted) : weighted;
    }
    x = std::move(mix);
  }
  return classifier_->forward(x);
}

std::vector<nn::VarPtr> SurrogateSupernet::weight_parameters() const {
  std::vector<nn::VarPtr> params = stem_->parameters();
  for (const auto& layer : blocks_) {
    for (const auto& block : layer) {
      if (!block) continue;
      for (const nn::VarPtr& p : block->parameters()) params.push_back(p);
    }
  }
  for (const nn::VarPtr& p : classifier_->parameters()) params.push_back(p);
  return params;
}

std::size_t SurrogateSupernet::activations_single_path(
    std::size_t batch) const {
  // Per layer: one hidden activation (width of the active block, bounded
  // by the widest candidate) plus the embed-width output.
  std::size_t widest = 0;
  for (std::size_t k = 0; k < space_->num_ops(); ++k) {
    widest = std::max(widest, hidden_width(space_->ops().op(k)));
  }
  return batch * space_->num_layers() * (widest + embed_dim_);
}

std::size_t SurrogateSupernet::activations_multi_path(
    std::size_t batch) const {
  std::size_t per_layer = 0;
  for (std::size_t k = 0; k < space_->num_ops(); ++k) {
    per_layer += hidden_width(space_->ops().op(k)) + embed_dim_;
  }
  return batch * space_->num_layers() * per_layer;
}

}  // namespace lightnas::core
