#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/optim.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {
namespace {

VarPtr leaf_with_grad(float value, float grad) {
  VarPtr v = make_leaf(Tensor::scalar(value));
  v->ensure_grad();
  v->grad.fill(grad);
  return v;
}

TEST(CosineSchedule, EndpointsAndMonotoneDecay) {
  const CosineSchedule sched(1.0, 100);
  EXPECT_NEAR(sched.lr_at(0), 1.0, 1e-9);
  EXPECT_NEAR(sched.lr_at(50), 0.5, 0.01);
  EXPECT_NEAR(sched.lr_at(100), 0.0, 1e-9);
  for (std::size_t s = 1; s < 100; ++s) {
    EXPECT_LE(sched.lr_at(s), sched.lr_at(s - 1) + 1e-12);
  }
}

TEST(CosineSchedule, WarmupRampsLinearly) {
  const CosineSchedule sched(0.5, 100, 10, 0.1);
  EXPECT_NEAR(sched.lr_at(0), 0.1 + 0.4 * 0.1, 1e-9);
  EXPECT_NEAR(sched.lr_at(9), 0.5, 1e-9);
  EXPECT_GT(sched.lr_at(10), sched.lr_at(60));
}

TEST(Sgd, PlainStepMatchesHandComputed) {
  VarPtr p = leaf_with_grad(1.0f, 0.5f);
  Sgd opt({p}, 0.1);
  opt.step();
  EXPECT_NEAR(p->value.item(), 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  VarPtr p = leaf_with_grad(0.0f, 1.0f);
  Sgd opt({p}, 0.1, 0.9);
  opt.step();  // v=1, p=-0.1
  p->grad.fill(1.0f);
  opt.step();  // v=1.9, p=-0.29
  EXPECT_NEAR(p->value.item(), -0.29f, 1e-5f);
}

TEST(Sgd, WeightDecayShrinksParams) {
  VarPtr p = leaf_with_grad(2.0f, 0.0f);
  Sgd opt({p}, 0.1, 0.0, 0.5);
  opt.step();  // g = 0 + 0.5*2 = 1 -> p = 2 - 0.1 = 1.9
  EXPECT_NEAR(p->value.item(), 1.9f, 1e-6f);
}

TEST(Sgd, ZeroGradClears) {
  VarPtr p = leaf_with_grad(1.0f, 3.0f);
  Sgd opt({p}, 0.1);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p->grad.item(), 0.0f);
}

TEST(Sgd, ClipNormBoundsUpdate) {
  VarPtr p = leaf_with_grad(0.0f, 100.0f);
  Sgd opt({p}, 1.0, 0.0, 0.0, /*clip_norm=*/1.0);
  opt.step();
  EXPECT_NEAR(p->value.item(), -1.0f, 1e-5f);
}

TEST(ClipGradNorm, ReturnsPreClipNormAndScales) {
  VarPtr a = leaf_with_grad(0.0f, 3.0f);
  VarPtr b = leaf_with_grad(0.0f, 4.0f);
  const double norm = clip_grad_norm({a, b}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(a->grad.item(), 0.6f, 1e-5f);
  EXPECT_NEAR(b->grad.item(), 0.8f, 1e-5f);
}

TEST(ClipGradNorm, NoOpBelowThreshold) {
  VarPtr a = leaf_with_grad(0.0f, 0.3f);
  clip_grad_norm({a}, 1.0);
  EXPECT_FLOAT_EQ(a->grad.item(), 0.3f);
}

TEST(Sgd, SparseStepIsBitIdenticalToDense) {
  // step_on's contract: when every parameter outside `active` holds an
  // exactly-zero gradient, the sparse walk (which never reads those
  // gradients) must reproduce the dense walk bit for bit — weights AND
  // velocity — including the clipped-norm rescale.
  util::Rng rng(77);
  const std::vector<std::uint32_t> active = {1, 3, 4};
  const auto build = [&](std::uint64_t seed) {
    util::Rng r(seed);
    std::vector<VarPtr> params;
    for (int i = 0; i < 6; ++i) {
      Tensor t = Tensor::uninitialized(3, 5);
      for (std::size_t j = 0; j < t.size(); ++j) {
        t[j] = static_cast<float>(r.normal(0.0, 1.0));
      }
      params.push_back(make_leaf(std::move(t)));
    }
    return params;
  };
  std::vector<VarPtr> dense_params = build(11);
  std::vector<VarPtr> sparse_params = build(11);
  Sgd dense(dense_params, 0.05, 0.9, 3e-5, /*clip_norm=*/0.1);
  Sgd sparse(sparse_params, 0.05, 0.9, 3e-5, /*clip_norm=*/0.1);
  for (int step = 0; step < 25; ++step) {
    for (const std::uint32_t i : active) {
      Tensor g = Tensor::uninitialized(3, 5);
      for (std::size_t j = 0; j < g.size(); ++j) {
        g[j] = static_cast<float>(rng.normal(0.0, 2.0));
      }
      dense_params[i]->ensure_grad();
      sparse_params[i]->ensure_grad();
      dense_params[i]->grad = g;
      sparse_params[i]->grad = g;
    }
    dense.step();
    sparse.step_on(active);
    for (const std::uint32_t i : active) {
      dense_params[i]->zero_grad();
      sparse_params[i]->zero_grad();
    }
  }
  const Sgd::State dense_state = dense.export_state();
  const Sgd::State sparse_state = sparse.export_state();
  for (std::size_t i = 0; i < dense_params.size(); ++i) {
    const Tensor& dw = dense_params[i]->value;
    const Tensor& sw = sparse_params[i]->value;
    ASSERT_EQ(0, std::memcmp(dw.data().data(), sw.data().data(),
                             dw.size() * sizeof(float)))
        << "weights diverged at param " << i;
    const Tensor& dv = dense_state.velocity[i];
    const Tensor& sv = sparse_state.velocity[i];
    ASSERT_EQ(0, std::memcmp(dv.data().data(), sv.data().data(),
                             dv.size() * sizeof(float)))
        << "velocity diverged at param " << i;
  }
}

TEST(ClipGradNorm, SubsetMatchesDenseWhenOthersAreZero) {
  VarPtr a = leaf_with_grad(0.0f, 3.0f);
  VarPtr zero = leaf_with_grad(0.0f, 0.0f);
  VarPtr b = leaf_with_grad(0.0f, 4.0f);
  VarPtr a2 = leaf_with_grad(0.0f, 3.0f);
  VarPtr zero2 = leaf_with_grad(0.0f, 0.0f);
  VarPtr b2 = leaf_with_grad(0.0f, 4.0f);
  const double dense = clip_grad_norm({a, zero, b}, 1.0);
  const double sparse = clip_grad_norm_on({a2, zero2, b2}, {0, 2}, 1.0);
  EXPECT_EQ(dense, sparse);
  EXPECT_FLOAT_EQ(a->grad.item(), a2->grad.item());
  EXPECT_FLOAT_EQ(b->grad.item(), b2->grad.item());
  EXPECT_FLOAT_EQ(zero2->grad.item(), 0.0f);
}

TEST(ClipGradNorm, SubsetRejectsOutOfRangeAndUnsortedActive) {
  VarPtr a = leaf_with_grad(0.0f, 3.0f);
  VarPtr b = leaf_with_grad(0.0f, 4.0f);
  EXPECT_THROW(clip_grad_norm_on({a, b}, {5}, 1.0), std::invalid_argument);
  EXPECT_THROW(clip_grad_norm_on({a, b}, {1, 0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(clip_grad_norm_on({a, b}, {1, 1}, 1.0),
               std::invalid_argument);
  // Nothing was clipped by the rejected calls.
  EXPECT_FLOAT_EQ(a->grad.item(), 3.0f);
  EXPECT_FLOAT_EQ(b->grad.item(), 4.0f);
  EXPECT_EQ(clip_grad_norm_on({a, b}, {}, 1.0), 0.0);
}

TEST(Sgd, SparseStepRejectsOutOfRangeAndUnsortedActive) {
  std::vector<VarPtr> params;
  for (int i = 0; i < 4; ++i) params.push_back(leaf_with_grad(1.0f, 0.5f));
  Sgd opt(params, 0.1, 0.9, 1e-2, 5.0);
  EXPECT_THROW(opt.step_on({4}), std::invalid_argument);
  // {3, 1} would walk past index 1 and apply the no-grad update to a
  // parameter that has a gradient.
  EXPECT_THROW(opt.step_on({3, 1}), std::invalid_argument);
  EXPECT_THROW(opt.step_on({1, 1}), std::invalid_argument);
  for (const VarPtr& p : params) {
    EXPECT_FLOAT_EQ(p->value.item(), 1.0f);  // no update was applied
  }
  EXPECT_NO_THROW(opt.step_on({0, 1, 2, 3}));
}

TEST(Adam, FirstStepMagnitudeIsLr) {
  // With bias correction the first Adam step is ~lr * sign(g).
  VarPtr p = leaf_with_grad(0.0f, 0.123f);
  Adam opt({p}, 0.01);
  opt.step();
  EXPECT_NEAR(p->value.item(), -0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (x - 3)^2 by supplying its gradient manually.
  VarPtr x = make_leaf(Tensor::scalar(0.0f));
  Adam opt({x}, 0.1);
  for (int i = 0; i < 500; ++i) {
    x->ensure_grad();
    x->grad.fill(2.0f * (x->value.item() - 3.0f));
    opt.step();
    x->zero_grad();
  }
  EXPECT_NEAR(x->value.item(), 3.0f, 0.05f);
}

TEST(Adam, WeightDecayPullsTowardZero) {
  VarPtr p = make_leaf(Tensor::scalar(5.0f));
  Adam opt({p}, 0.1, 0.9, 0.999, 1e-8, 0.5);
  for (int i = 0; i < 200; ++i) {
    p->zero_grad();
    opt.step();
  }
  EXPECT_LT(std::abs(p->value.item()), 1.0f);
}

TEST(Adam, VectorTierIsBitIdenticalToScalar) {
  // The AVX2 step runs four elements per vector and leaves the n % 4
  // tail to the scalar loop; both must round every element the same.
  // Sizes 1..13 cover all-tail, exact and mixed parameters; extreme
  // gradients, zeros, -0 and weight decay cover the op chain's corners.
  if (!simd::avx2_compiled() ||
      !simd::cpu_supports(simd::IsaLevel::kAvx2)) {
    GTEST_SKIP() << "no AVX2 tier on this host/build";
  }
  for (const double wd : {0.0, 1e-3}) {
    const auto run = [wd](simd::IsaLevel isa) {
      const simd::ScopedIsa forced(isa);
      util::Rng rng(5);
      std::vector<VarPtr> params;
      for (std::size_t n = 1; n <= 13; ++n) {
        Tensor t = Tensor::uninitialized(1, n);
        for (std::size_t j = 0; j < n; ++j) {
          t[j] = static_cast<float>(rng.normal(0.0, 1.0));
        }
        params.push_back(make_leaf(std::move(t)));
      }
      Adam opt(params, 1e-2, 0.9, 0.999, 1e-8, wd);
      const float specials[] = {0.0f, -0.0f, 1e-30f, -3e38f, 1e-45f};
      for (int step = 0; step < 30; ++step) {
        for (const VarPtr& p : params) {
          p->ensure_grad();
          for (std::size_t j = 0; j < p->grad.size(); ++j) {
            p->grad[j] = (step + j) % 7 == 0
                             ? specials[(step + j) % 5]
                             : static_cast<float>(rng.normal(0.0, 3.0));
          }
        }
        opt.step();
      }
      std::vector<Tensor> out;
      for (const VarPtr& p : params) out.push_back(p->value);
      const Adam::State state = opt.export_state();
      out.insert(out.end(), state.m.begin(), state.m.end());
      out.insert(out.end(), state.v.begin(), state.v.end());
      return out;
    };
    const std::vector<Tensor> scalar = run(simd::IsaLevel::kScalar);
    const std::vector<Tensor> vec = run(simd::IsaLevel::kAvx2);
    ASSERT_EQ(scalar.size(), vec.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(0, std::memcmp(scalar[i].data().data(), vec[i].data().data(),
                               scalar[i].size() * sizeof(float)))
          << "tensor " << i << " diverged (weight decay " << wd << ")";
    }
  }
}

TEST(LambdaAscent, RisesWhenOverTarget) {
  LambdaAscent lambda(0.1);
  lambda.step(0.5);  // LAT/T - 1 = +0.5
  EXPECT_NEAR(lambda.value(), 0.05, 1e-12);
}

TEST(LambdaAscent, GoesNegativeWhenUnderTarget) {
  // Unclamped by default: the equality constraint LAT = T requires a
  // negative multiplier when the architecture is too fast (Sec 3.4).
  LambdaAscent lambda(0.1);
  lambda.step(-0.5);
  EXPECT_NEAR(lambda.value(), -0.05, 1e-12);
}

TEST(LambdaAscent, ClampVariantStaysNonNegative) {
  LambdaAscent lambda(0.1, 0.0, /*clamp_at_zero=*/true);
  lambda.step(-1.0);
  EXPECT_DOUBLE_EQ(lambda.value(), 0.0);
  lambda.step(1.0);
  EXPECT_GT(lambda.value(), 0.0);
}

TEST(LambdaAscent, FixedPointAtTarget) {
  LambdaAscent lambda(0.1, 0.7);
  lambda.step(0.0);  // LAT == T
  EXPECT_DOUBLE_EQ(lambda.value(), 0.7);
}

}  // namespace
}  // namespace lightnas::nn
