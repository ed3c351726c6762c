#include "nn/modules.hpp"

#include <cassert>
#include <cmath>

#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {

std::size_t Module::num_parameters() const {
  std::size_t total = 0;
  for (const VarPtr& p : parameters()) total += p->value.size();
  return total;
}

void Module::zero_grad() const {
  for (const VarPtr& p : parameters()) p->zero_grad();
}

Linear::Linear(std::size_t in_features, std::size_t out_features,
               lightnas::util::Rng& rng, std::string name)
    : in_(in_features), out_(out_features) {
  assert(in_features > 0 && out_features > 0);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = make_leaf(Tensor::randn(in_, out_, rng, stddev), name + ".W");
  bias_ = make_leaf(Tensor::zeros(1, out_), name + ".b");
}

VarPtr Linear::forward(const VarPtr& x) const {
  assert(x->value.cols() == in_);
  return ops::add_bias(ops::matmul(x, weight_), bias_);
}

Tensor Linear::forward_inference(const Tensor& x, bool fuse_relu) const {
  assert(x.cols() == in_);
  Tensor out = matmul(x, weight_->value);
  if (fuse_relu) {
    out.add_row_relu_inplace(bias_->value);
  } else {
    out.add_row_inplace(bias_->value);
  }
  return out;
}

std::vector<VarPtr> Linear::parameters() const {
  return {weight_, bias_};
}

Mlp::Mlp(const std::vector<std::size_t>& layer_sizes,
         lightnas::util::Rng& rng, std::string name) {
  assert(layer_sizes.size() >= 2);
  layers_.reserve(layer_sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1], rng,
                         name + ".fc" + std::to_string(i));
  }
}

VarPtr Mlp::forward(const VarPtr& x) const {
  VarPtr h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) h = ops::relu(h);
  }
  return h;
}

Tensor Mlp::forward_inference(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // Hidden layers take the fused bias+ReLU kernel (one memory pass);
    // the output layer stays linear.
    h = layers_[i].forward_inference(h, /*fuse_relu=*/i + 1 <
                                            layers_.size());
  }
  return h;
}

std::vector<VarPtr> Mlp::parameters() const {
  std::vector<VarPtr> params;
  for (const Linear& layer : layers_) {
    for (const VarPtr& p : layer.parameters()) params.push_back(p);
  }
  return params;
}

ResidualBlock::ResidualBlock(std::size_t dim, std::size_t hidden,
                             lightnas::util::Rng& rng, std::string name,
                             double branch_scale)
    : hidden_(hidden),
      branch_scale_(branch_scale),
      fc1_(dim, hidden, rng, name + ".fc1"),
      fc2_(hidden, dim, rng, name + ".fc2") {}

VarPtr ResidualBlock::forward(const VarPtr& x) const {
  VarPtr branch = fc2_.forward(ops::relu(fc1_.forward(x)));
  if (branch_scale_ != 1.0) branch = ops::scale(branch, branch_scale_);
  return ops::add(x, branch);
}

VarPtr ResidualBlock::forward_gated(const VarPtr& x,
                                    const VarPtr& gate) const {
  VarPtr branch = fc2_.forward(ops::relu(fc1_.forward(x)));
  if (branch_scale_ != 1.0) branch = ops::scale(branch, branch_scale_);
  return ops::add(x, ops::mul_scalar(branch, gate));
}

Tensor ResidualBlock::forward_inference(const Tensor& x) const {
  Tensor branch =
      fc2_.forward_inference(fc1_.forward_inference(x, /*fuse_relu=*/true));
  if (branch_scale_ != 1.0) {
    branch.scale_inplace(static_cast<float>(branch_scale_));
  }
  // IEEE addition commutes, so adding x into the branch's buffer gives
  // forward's x + branch without a copy of x.
  branch.add_inplace(x);
  return branch;
}

std::vector<VarPtr> ResidualBlock::parameters() const {
  std::vector<VarPtr> params = fc1_.parameters();
  for (const VarPtr& p : fc2_.parameters()) params.push_back(p);
  return params;
}

}  // namespace lightnas::nn
