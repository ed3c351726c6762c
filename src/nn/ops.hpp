#pragma once

#include <cstddef>
#include <vector>

#include "nn/autograd.hpp"

namespace lightnas::nn::ops {

/// Matrix product: (m x k) * (k x n) -> (m x n).
VarPtr matmul(const VarPtr& a, const VarPtr& b);

/// Elementwise sum of same-shape tensors.
VarPtr add(const VarPtr& a, const VarPtr& b);

/// Elementwise difference of same-shape tensors.
VarPtr sub(const VarPtr& a, const VarPtr& b);

/// Elementwise (Hadamard) product of same-shape tensors.
VarPtr mul(const VarPtr& a, const VarPtr& b);

/// Broadcast a 1 x n bias row over every row of x (m x n).
VarPtr add_bias(const VarPtr& x, const VarPtr& bias);

/// Multiply every element by a compile-time constant.
VarPtr scale(const VarPtr& x, double factor);

/// Add a constant to every element (gradient passes through).
VarPtr add_scalar(const VarPtr& x, double constant);

/// Multiply a tensor by a 1x1 Var (gradient flows to both operands).
VarPtr mul_scalar(const VarPtr& x, const VarPtr& scalar);

/// Rectified linear unit.
VarPtr relu(const VarPtr& x);

/// Logistic sigmoid.
VarPtr sigmoid(const VarPtr& x);

/// Hyperbolic tangent.
VarPtr tanh_op(const VarPtr& x);

/// Row-wise softmax (numerically stabilized).
VarPtr row_softmax(const VarPtr& x);

/// Sum of all elements -> 1x1.
VarPtr sum_all(const VarPtr& x);

/// Mean of all elements -> 1x1.
VarPtr mean_all(const VarPtr& x);

/// Extract element (r, c) as a 1x1 Var.
VarPtr select(const VarPtr& x, std::size_t r, std::size_t c);

/// View with a different shape (same element count).
VarPtr reshape(const VarPtr& x, std::size_t rows, std::size_t cols);

/// Value copy with gradient flow severed (stop-gradient).
VarPtr detach(const VarPtr& x);

/// Vertically stack blocks with equal column counts (gradient splits
/// back to each block by row range).
VarPtr vstack(const std::vector<VarPtr>& blocks);

/// Contiguous row range [start, start + count) as a view-copy.
VarPtr slice_rows(const VarPtr& x, std::size_t start, std::size_t count);

/// Row-wise hard one-hot of the argmax with a straight-through estimator:
/// forward emits the binarized matrix P-bar of Eq (9); backward passes the
/// incoming gradient through unchanged (dP-bar/dP-hat ~ identity, Eq 12).
VarPtr binarize_rows_ste(const VarPtr& x);

/// Mean softmax cross-entropy between logits (B x C) and integer labels.
/// Fused for numerical stability; returns a 1x1 loss.
VarPtr softmax_cross_entropy(const VarPtr& logits,
                             const std::vector<std::size_t>& labels);

/// The forward half of softmax_cross_entropy on plain tensors: returns
/// the mean loss and writes the row-wise softmax to `probs`. The op and
/// graph-free evaluation both run this one loop, so their losses are
/// bit-identical.
float softmax_cross_entropy_forward(const Tensor& logits,
                                    const std::vector<std::size_t>& labels,
                                    Tensor& probs);

/// Mean squared error between pred and target (same shape) -> 1x1.
VarPtr mse_loss(const VarPtr& pred, const VarPtr& target);

/// Classification accuracy of logits vs labels (no gradient; diagnostics).
double accuracy(const Tensor& logits, const std::vector<std::size_t>& labels);

}  // namespace lightnas::nn::ops
