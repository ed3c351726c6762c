#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/autograd.hpp"

namespace lightnas::util {
class Rng;
}

namespace lightnas::nn {

/// Base class for trainable components. Parameters are persistent leaf
/// Vars; every forward pass builds a fresh graph referencing them, so
/// gradients accumulate into the same storage the optimizer updates.
class Module {
 public:
  virtual ~Module() = default;
  virtual std::vector<VarPtr> parameters() const = 0;

  /// Total scalar parameter count.
  std::size_t num_parameters() const;
  /// Clear accumulated gradients on all parameters.
  void zero_grad() const;
};

/// Fully connected layer: y = x W + b, with Kaiming-uniform-flavoured
/// initialization (stddev sqrt(2 / fan_in)).
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         lightnas::util::Rng& rng, std::string name = "linear");

  VarPtr forward(const VarPtr& x) const;
  /// Graph-free batched forward (B x in -> B x out). Bit-identical to
  /// `forward` — same matmul kernel, same accumulation order — without
  /// allocating autograd nodes; safe to call concurrently from many
  /// threads (touches only the immutable parameter values). With
  /// `fuse_relu` the bias add and ReLU run as one fused kernel (same
  /// math, one memory pass).
  Tensor forward_inference(const Tensor& x, bool fuse_relu = false) const;
  std::vector<VarPtr> parameters() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  const VarPtr& weight() const { return weight_; }
  const VarPtr& bias() const { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  VarPtr weight_;
  VarPtr bias_;
};

/// Multi-layer perceptron with ReLU between hidden layers and a linear
/// output. `layer_sizes` = {in, h1, ..., out}. This is exactly the shape
/// of the paper's latency predictor (Sec 3.2): {L*K, 128, 64, 1}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<std::size_t>& layer_sizes, lightnas::util::Rng& rng,
      std::string name = "mlp");

  VarPtr forward(const VarPtr& x) const;
  /// Graph-free batched forward over B rows at once: one matmul per
  /// layer instead of B sequential 1-row graph builds. This is the
  /// serving layer's hot path; see Linear::forward_inference for the
  /// bit-identity and thread-safety contract.
  Tensor forward_inference(const Tensor& x) const;
  std::vector<VarPtr> parameters() const override;

  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
};

/// Residual bottleneck surrogate block: x + s * W2 relu(W1 x). The
/// hidden width plays the role of an MBConv block's expansion capacity
/// in the supernet simulation (see DESIGN.md, supernet substitution).
/// `branch_scale` keeps activation variance bounded in deep stacks
/// (without it, 22 chained residual blocks double the variance per layer
/// and overflow); use ~1/sqrt(depth).
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::size_t dim, std::size_t hidden,
                lightnas::util::Rng& rng, std::string name = "resblock",
                double branch_scale = 1.0);

  VarPtr forward(const VarPtr& x) const;

  /// Forward with a 1x1 gate Var multiplied onto the *branch only*:
  /// x + gate * s * W2 relu(W1 x). With a straight-through gate valued
  /// 1.0 the output is unchanged, while d(out)/d(gate) = branch(x) — an
  /// operator-specific credit signal. (Gating the whole output instead
  /// would make the gate gradient <grad, x + branch>, dominated by the
  /// op-independent trunk term, which destroys single-path credit
  /// assignment.)
  VarPtr forward_gated(const VarPtr& x, const VarPtr& gate) const;

  /// Graph-free forward: x + s * fc2(relu(fc1 x)) on plain tensors, with
  /// fc1's bias and ReLU fused. Bit-identical to `forward`; see
  /// Linear::forward_inference for the contract.
  Tensor forward_inference(const Tensor& x) const;

  std::vector<VarPtr> parameters() const override;

  std::size_t hidden() const { return hidden_; }

 private:
  std::size_t hidden_;
  double branch_scale_;
  Linear fc1_;
  Linear fc2_;
};

}  // namespace lightnas::nn
