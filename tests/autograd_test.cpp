#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/gradcheck.hpp"
#include "nn/modules.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {
namespace {

using ops::add;
using ops::add_bias;
using ops::add_scalar;
using ops::binarize_rows_ste;
using ops::detach;
using ops::matmul;
using ops::mean_all;
using ops::mse_loss;
using ops::mul;
using ops::mul_scalar;
using ops::relu;
using ops::reshape;
using ops::row_softmax;
using ops::scale;
using ops::select;
using ops::sigmoid;
using ops::slice_rows;
using ops::softmax_cross_entropy;
using ops::sub;
using ops::sum_all;
using ops::tanh_op;
using ops::vstack;

VarPtr random_leaf(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_leaf(Tensor::randn(r, c, rng));
}

TEST(Autograd, EnsureGradTracksValueReshapeAndResize) {
  VarPtr v = make_leaf(Tensor::zeros(2, 3));
  v->ensure_grad();
  v->grad.fill(7.0f);

  // Same element count, different shape: grad must follow the value's
  // shape (and restart at zero), not keep serving the stale 2x3 buffer.
  v->value = Tensor::zeros(3, 2);
  v->ensure_grad();
  EXPECT_EQ(v->grad.rows(), 3u);
  EXPECT_EQ(v->grad.cols(), 2u);
  EXPECT_FLOAT_EQ(v->grad.abs_max(), 0.0f);

  // Different element count: grad must be re-allocated to match.
  v->grad.fill(7.0f);
  v->value = Tensor::zeros(4, 5);
  v->ensure_grad();
  EXPECT_EQ(v->grad.rows(), 4u);
  EXPECT_EQ(v->grad.cols(), 5u);
  EXPECT_EQ(v->grad.size(), 20u);
  EXPECT_FLOAT_EQ(v->grad.abs_max(), 0.0f);

  // Unchanged shape: ensure_grad must NOT clear accumulated gradients.
  v->grad.fill(2.0f);
  v->ensure_grad();
  EXPECT_FLOAT_EQ(v->grad.abs_max(), 2.0f);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  VarPtr x = random_leaf(1, 1, 1);
  VarPtr y = scale(x, 2.0);
  backward(y);
  EXPECT_FLOAT_EQ(x->grad.item(), 2.0f);
}

TEST(Autograd, GradientsAccumulateAcrossBackward) {
  VarPtr x = random_leaf(1, 1, 2);
  backward(scale(x, 1.0));
  backward(scale(x, 1.0));
  EXPECT_FLOAT_EQ(x->grad.item(), 2.0f);
  x->zero_grad();
  EXPECT_FLOAT_EQ(x->grad.item(), 0.0f);
}

TEST(Autograd, DiamondGraphAccumulates) {
  VarPtr x = random_leaf(1, 1, 3);
  // y = x*2 + x*3 => dy/dx = 5
  VarPtr y = add(scale(x, 2.0), scale(x, 3.0));
  backward(y);
  EXPECT_FLOAT_EQ(x->grad.item(), 5.0f);
}

TEST(Autograd, GraphSizeCountsNodes) {
  VarPtr x = random_leaf(2, 2, 4);
  VarPtr y = relu(scale(x, 1.0));
  EXPECT_EQ(graph_size(sum_all(y)), 4u);  // x, scale, relu, sum
}

TEST(Autograd, DetachStopsGradient) {
  VarPtr x = random_leaf(1, 1, 5);
  VarPtr y = mul(detach(x), x);  // d/dx = detach(x) only
  backward(y);
  EXPECT_FLOAT_EQ(x->grad.item(), x->value.item());
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  // Gradients flow only into Vars that track them: the constant input
  // of a matmul and a node computed from constants alone get none, and
  // the parameter's gradient is the same as when the input is a leaf.
  util::Rng rng(8);
  Tensor input = Tensor::randn(4, 6, rng);
  const VarPtr w = random_leaf(6, 3, 9);
  const VarPtr x = make_const(input);
  const VarPtr h = relu(x);  // constants only: requires no gradient
  const VarPtr shift = random_leaf(4, 6, 10);
  backward(add(sum_all(matmul(h, w)), sum_all(add(h, shift))));
  EXPECT_FLOAT_EQ(x->grad.abs_max(), 0.0f);
  EXPECT_FLOAT_EQ(h->grad.abs_max(), 0.0f);
  EXPECT_GT(shift->grad.abs_max(), 0.0f);
  const Tensor w_grad = w->grad;

  w->zero_grad();
  const VarPtr x_leaf = make_leaf(input);
  backward(sum_all(matmul(relu(x_leaf), w)));
  EXPECT_GT(x_leaf->grad.abs_max(), 0.0f);
  EXPECT_EQ(w->grad.data(), w_grad.data());

  // Two-operand ops skip only the operand that tracks nothing.
  const VarPtr target = make_const(Tensor::randn(4, 3, rng));
  const VarPtr pred = matmul(make_const(input), w);
  w->zero_grad();
  backward(mse_loss(pred, target));
  EXPECT_FLOAT_EQ(target->grad.abs_max(), 0.0f);
  EXPECT_GT(w->grad.abs_max(), 0.0f);
}

TEST(Autograd, ConstantInputGradientIsNeverFormed) {
  // A predictor-training step: a one-hot input batch is a constant, so
  // backward forms no gradient for it (nor for the constant target),
  // and the leaf gradients equal those of the same step with the input
  // as a leaf.
  Tensor onehot = Tensor::zeros(8, 12);
  for (std::size_t r = 0; r < onehot.rows(); ++r) {
    onehot.at(r, (r * 5) % onehot.cols()) = 1.0f;
  }
  const VarPtr w = random_leaf(12, 3, 15);
  const VarPtr b = random_leaf(1, 3, 16);
  const VarPtr target = make_const(Tensor::full(8, 3, 0.25f));
  const auto step = [&](const VarPtr& x) {
    w->zero_grad();
    b->zero_grad();
    backward(mse_loss(relu(add_bias(matmul(x, w), b)), target));
    return std::vector<Tensor>{w->grad, b->grad};
  };

  const VarPtr x = make_const(onehot);
  const std::vector<Tensor> got = step(x);
  EXPECT_TRUE(x->grad.empty());
  EXPECT_TRUE(target->grad.empty());

  const VarPtr x_leaf = make_leaf(onehot);
  const std::vector<Tensor> want = step(x_leaf);
  EXPECT_FALSE(x_leaf->grad.empty());
  EXPECT_TRUE(target->grad.empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_GT(want[i].abs_max(), 0.0f);
    EXPECT_EQ(got[i].data(), want[i].data());
  }
}

TEST(Autograd, BackwardListsExactlyTheLeavesItWrote) {
  const VarPtr a = random_leaf(2, 2, 11);  // used twice
  const VarPtr c = random_leaf(2, 2, 12);  // only behind a detach
  const VarPtr d = random_leaf(2, 2, 13);
  const VarPtr unused = random_leaf(2, 2, 14);  // not on the root's path
  unused->ensure_grad();
  unused->grad.fill(3.0f);
  const VarPtr k = make_const(Tensor::ones(2, 2));

  // Post-order tape: a, k, mul, scale, detach, d, mul, add, add, sum.
  const VarPtr root = sum_all(
      add(mul(a, k), add(scale(a, 2.0), mul(detach(mul(c, c)), d))));
  const std::vector<Var*>& leaves = backward(root);
  EXPECT_EQ(leaves, (std::vector<Var*>{a.get(), d.get()}));
  EXPECT_EQ(unused->grad.data(), Tensor::full(2, 2, 3.0f).data());
  EXPECT_EQ(c->grad.size(), 0u);  // never reached, never allocated

  // The list belongs to the latest backward on this thread.
  const std::vector<Var*>& next = backward(sum_all(unused));
  EXPECT_EQ(next, (std::vector<Var*>{unused.get()}));
  EXPECT_TRUE(backward(sum_all(relu(k))).empty());
}

// ---- finite-difference checks for every op -----------------------------

TEST(GradCheck, MatmulBothOperands) {
  VarPtr a = random_leaf(3, 4, 10);
  VarPtr b = random_leaf(4, 2, 11);
  auto loss = [&] { return sum_all(matmul(a, b)); };
  EXPECT_TRUE(gradcheck(loss, a).passed);
  EXPECT_TRUE(gradcheck(loss, b).passed);
}

TEST(GradCheck, AddSubMul) {
  VarPtr a = random_leaf(2, 3, 12);
  VarPtr b = random_leaf(2, 3, 13);
  EXPECT_TRUE(gradcheck([&] { return sum_all(add(a, b)); }, a).passed);
  EXPECT_TRUE(gradcheck([&] { return sum_all(sub(a, b)); }, b).passed);
  EXPECT_TRUE(gradcheck([&] { return sum_all(mul(a, b)); }, a).passed);
  EXPECT_TRUE(gradcheck([&] { return sum_all(mul(a, b)); }, b).passed);
}

TEST(GradCheck, AddBias) {
  VarPtr x = random_leaf(3, 4, 14);
  VarPtr bias = random_leaf(1, 4, 15);
  auto loss = [&] { return mean_all(add_bias(x, bias)); };
  EXPECT_TRUE(gradcheck(loss, x).passed);
  EXPECT_TRUE(gradcheck(loss, bias).passed);
}

TEST(GradCheck, ScaleAndAddScalar) {
  VarPtr x = random_leaf(2, 2, 16);
  EXPECT_TRUE(gradcheck([&] { return sum_all(scale(x, -1.7)); }, x).passed);
  EXPECT_TRUE(
      gradcheck([&] { return sum_all(add_scalar(x, 3.0)); }, x).passed);
}

TEST(GradCheck, MulScalarBothInputs) {
  VarPtr x = random_leaf(2, 3, 17);
  VarPtr s = random_leaf(1, 1, 18);
  auto loss = [&] { return sum_all(mul_scalar(x, s)); };
  EXPECT_TRUE(gradcheck(loss, x).passed);
  EXPECT_TRUE(gradcheck(loss, s).passed);
}

TEST(GradCheck, Activations) {
  VarPtr x = random_leaf(3, 3, 19);
  // Shift away from the ReLU kink so finite differences are clean.
  for (auto& v : x->value.data()) {
    if (std::abs(v) < 0.05f) v += 0.1f;
  }
  EXPECT_TRUE(gradcheck([&] { return sum_all(relu(x)); }, x).passed);
  EXPECT_TRUE(gradcheck([&] { return sum_all(sigmoid(x)); }, x).passed);
  EXPECT_TRUE(gradcheck([&] { return sum_all(tanh_op(x)); }, x).passed);
}

TEST(GradCheck, RowSoftmax) {
  VarPtr x = random_leaf(2, 5, 20);
  VarPtr weights = make_const(Tensor::from_rows(
      {{0.3f, -1.0f, 2.0f, 0.1f, 0.7f}, {1.0f, 0.2f, -0.5f, 0.9f, 0.0f}}));
  auto loss = [&] { return sum_all(mul(row_softmax(x), weights)); };
  EXPECT_TRUE(gradcheck(loss, x).passed);
}

TEST(GradCheck, SelectReshapeSlice) {
  VarPtr x = random_leaf(3, 4, 21);
  EXPECT_TRUE(gradcheck([&] { return select(x, 1, 2); }, x).passed);
  EXPECT_TRUE(
      gradcheck([&] { return sum_all(scale(reshape(x, 2, 6), 2.0)); }, x)
          .passed);
  EXPECT_TRUE(
      gradcheck([&] { return sum_all(slice_rows(x, 1, 2)); }, x).passed);
}

TEST(GradCheck, VstackSplitsGradient) {
  VarPtr a = random_leaf(1, 3, 22);
  VarPtr b = random_leaf(2, 3, 23);
  auto loss = [&] {
    return sum_all(scale(vstack({a, b}), 3.0));
  };
  EXPECT_TRUE(gradcheck(loss, a).passed);
  EXPECT_TRUE(gradcheck(loss, b).passed);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  VarPtr logits = random_leaf(4, 3, 24);
  const std::vector<std::size_t> labels{0, 2, 1, 2};
  auto loss = [&] { return softmax_cross_entropy(logits, labels); };
  EXPECT_TRUE(gradcheck(loss, logits).passed);
}

TEST(GradCheck, MseLoss) {
  VarPtr pred = random_leaf(3, 2, 25);
  VarPtr target = random_leaf(3, 2, 26);
  EXPECT_TRUE(gradcheck([&] { return mse_loss(pred, target); }, pred).passed);
  EXPECT_TRUE(
      gradcheck([&] { return mse_loss(pred, target); }, target).passed);
}

TEST(GradCheck, MlpEndToEnd) {
  util::Rng rng(27);
  const Mlp mlp({4, 8, 3}, rng);
  VarPtr x = random_leaf(5, 4, 28);
  const std::vector<std::size_t> labels{0, 1, 2, 0, 1};
  auto loss = [&] {
    return softmax_cross_entropy(mlp.forward(x), labels);
  };
  EXPECT_TRUE(gradcheck(loss, x).passed);
  // Also check one weight matrix.
  EXPECT_TRUE(gradcheck(loss, mlp.layers()[0].weight()).passed);
}

// ---- op value semantics -------------------------------------------------

TEST(Ops, ReluClampsNegatives) {
  VarPtr x = make_leaf(Tensor::from_rows({{-1.0f, 2.0f}}));
  EXPECT_FLOAT_EQ(relu(x)->value.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(relu(x)->value.at(0, 1), 2.0f);
}

TEST(Ops, RowSoftmaxRowsSumToOne) {
  VarPtr x = random_leaf(3, 7, 29);
  const VarPtr s = row_softmax(x);
  for (std::size_t r = 0; r < 3; ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) total += s->value.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Ops, BinarizeRowsProducesOneHot) {
  VarPtr x = make_leaf(
      Tensor::from_rows({{0.2f, 0.5f, 0.3f}, {0.9f, 0.05f, 0.05f}}));
  const VarPtr b = binarize_rows_ste(x);
  EXPECT_FLOAT_EQ(b->value.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(b->value.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(b->value.at(1, 0), 1.0f);
  // Straight-through: gradient passes unchanged.
  backward(sum_all(scale(b, 2.0)));
  for (std::size_t i = 0; i < x->grad.size(); ++i) {
    EXPECT_FLOAT_EQ(x->grad[i], 2.0f);
  }
}

TEST(Ops, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over 4 classes => loss = log(4).
  VarPtr logits = make_leaf(Tensor::zeros(2, 4));
  const VarPtr loss = softmax_cross_entropy(logits, {1, 3});
  EXPECT_NEAR(loss->value.item(), std::log(4.0f), 1e-5f);
}

TEST(Ops, AccuracyCountsArgmaxHits) {
  const Tensor logits =
      Tensor::from_rows({{0.9f, 0.1f}, {0.2f, 0.8f}, {0.6f, 0.4f}});
  EXPECT_DOUBLE_EQ(ops::accuracy(logits, {0, 1, 1}), 2.0 / 3.0);
}

TEST(Modules, LinearShapesAndParamCount) {
  util::Rng rng(31);
  const Linear fc(6, 4, rng);
  EXPECT_EQ(fc.num_parameters(), 6u * 4u + 4u);
  VarPtr x = random_leaf(2, 6, 32);
  EXPECT_EQ(fc.forward(x)->value.cols(), 4u);
}

TEST(Modules, ResidualBlockPreservesShapeAndGates) {
  util::Rng rng(33);
  const ResidualBlock block(5, 9, rng, "b", 0.5);
  VarPtr x = random_leaf(3, 5, 34);
  const VarPtr y = block.forward(x);
  EXPECT_TRUE(y->value.same_shape(x->value));

  // A gate valued exactly 1 must not change the output.
  VarPtr gate = make_leaf(Tensor::scalar(1.0f));
  const VarPtr gated = block.forward_gated(x, gate);
  for (std::size_t i = 0; i < y->value.size(); ++i) {
    EXPECT_NEAR(gated->value[i], y->value[i], 1e-6f);
  }
  // And its gradient is the branch contribution, generally non-zero.
  backward(sum_all(gated));
  EXPECT_NE(gate->grad.item(), 0.0f);
}

TEST(Modules, ZeroGradClearsAllParameters) {
  util::Rng rng(35);
  const Mlp mlp({3, 5, 2}, rng);
  VarPtr x = random_leaf(2, 3, 36);
  backward(mean_all(mlp.forward(x)));
  mlp.zero_grad();
  for (const VarPtr& p : mlp.parameters()) {
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      EXPECT_FLOAT_EQ(p->grad[i], 0.0f);
    }
  }
}

}  // namespace
}  // namespace lightnas::nn
