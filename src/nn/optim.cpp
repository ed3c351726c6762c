#include "nn/optim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "nn/simd.hpp"

namespace lightnas::nn {

CosineSchedule::CosineSchedule(double base_lr, std::size_t total_steps,
                               std::size_t warmup_steps,
                               double warmup_start_lr)
    : base_lr_(base_lr),
      total_steps_(total_steps),
      warmup_steps_(warmup_steps),
      warmup_start_lr_(warmup_start_lr) {
  assert(total_steps > 0);
  assert(warmup_steps < total_steps);
}

double CosineSchedule::lr_at(std::size_t step) const {
  if (step >= total_steps_) return 0.0;
  if (step < warmup_steps_) {
    const double frac = static_cast<double>(step + 1) /
                        static_cast<double>(warmup_steps_);
    return warmup_start_lr_ + (base_lr_ - warmup_start_lr_) * frac;
  }
  const double progress =
      static_cast<double>(step - warmup_steps_) /
      static_cast<double>(total_steps_ - warmup_steps_);
  return 0.5 * base_lr_ * (1.0 + std::cos(std::numbers::pi * progress));
}

double clip_grad_norm(const std::vector<VarPtr>& params, double max_norm) {
  double norm_sq = 0.0;
  for (const VarPtr& p : params) {
    p->ensure_grad();
    for (std::size_t j = 0; j < p->grad.size(); ++j) {
      norm_sq += static_cast<double>(p->grad[j]) *
                 static_cast<double>(p->grad[j]);
    }
  }
  const double norm = std::sqrt(norm_sq);
  if (max_norm > 0.0 && norm > max_norm) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (const VarPtr& p : params) p->grad.scale_inplace(scale);
  }
  return norm;
}

namespace {

/// `active` must be strictly increasing and index into `params`: an
/// out-of-range entry would read past the parameter list, and an
/// unsorted one makes step_on's merge walk miss a parameter that has a
/// gradient.
void check_active(const std::vector<VarPtr>& params,
                  const std::vector<std::uint32_t>& active,
                  const char* who) {
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (active[k] >= params.size()) {
      throw std::invalid_argument(
          std::string(who) + ": active index " + std::to_string(active[k]) +
          " out of range for " + std::to_string(params.size()) +
          " parameters");
    }
    if (k > 0 && active[k] <= active[k - 1]) {
      throw std::invalid_argument(std::string(who) +
                                  ": active indices must be strictly "
                                  "increasing");
    }
  }
}

}  // namespace

double clip_grad_norm_on(const std::vector<VarPtr>& params,
                         const std::vector<std::uint32_t>& active,
                         double max_norm) {
  check_active(params, active, "clip_grad_norm_on");
  // Same accumulation order as the dense walk with the zero terms
  // skipped: +0.0 never changes the accumulator, so the norm (and the
  // clip decision) is bit-equal as long as inactive grads really are
  // zero.
  double norm_sq = 0.0;
  for (const std::uint32_t i : active) {
    Var& p = *params[i];
    p.ensure_grad();
    for (std::size_t j = 0; j < p.grad.size(); ++j) {
      norm_sq += static_cast<double>(p.grad[j]) *
                 static_cast<double>(p.grad[j]);
    }
  }
  const double norm = std::sqrt(norm_sq);
  if (max_norm > 0.0 && norm > max_norm) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (const std::uint32_t i : active) params[i]->grad.scale_inplace(scale);
  }
  return norm;
}

Sgd::Sgd(std::vector<VarPtr> params, double lr, double momentum,
         double weight_decay, double clip_norm)
    : params_(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay),
      clip_norm_(clip_norm) {
  velocity_.reserve(params_.size());
  for (const VarPtr& p : params_) {
    velocity_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
  }
}

namespace {

// The SGD update, fused into one pass per parameter: no pooled scratch
// copy of the gradient, one read/modify/write of velocity and value.
// Each branch runs, per element, the exact op chain the unfused
// formulation ran (g' = g + wd*w rounded once; v' = mom*v + g' in two
// roundings; w' = w + (-lr)*v'), so trajectories are deterministic and
// shared by every caller. The `nograd` variants are the same chains
// with the gradient pinned to +0.0f — used by step_on for parameters
// whose gradient is identically zero, where skipping the read is
// exact. This file is compiled with -ffp-contract=off (see
// src/nn/CMakeLists.txt) so the grad and nograd loops cannot be
// FMA-contracted differently; the step()/step_on() bit-identity
// contract depends on that.

void sgd_update(float* w, float* v, const float* g, std::size_t n,
                bool use_wd, float wd, bool use_mom, float mom, float nlr) {
  if (use_mom) {
    if (use_wd) {
      for (std::size_t j = 0; j < n; ++j) {
        const float gj = g[j] + wd * w[j];
        const float vj = mom * v[j] + gj;
        v[j] = vj;
        w[j] += nlr * vj;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const float vj = mom * v[j] + g[j];
        v[j] = vj;
        w[j] += nlr * vj;
      }
    }
  } else {
    if (use_wd) {
      for (std::size_t j = 0; j < n; ++j) {
        const float gj = g[j] + wd * w[j];
        w[j] += nlr * gj;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        w[j] += nlr * g[j];
      }
    }
  }
}

void sgd_update_nograd(float* w, float* v, std::size_t n, bool use_wd,
                       float wd, bool use_mom, float mom, float nlr) {
  if (use_mom) {
    if (use_wd) {
      for (std::size_t j = 0; j < n; ++j) {
        const float gj = 0.0f + wd * w[j];
        const float vj = mom * v[j] + gj;
        v[j] = vj;
        w[j] += nlr * vj;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const float vj = mom * v[j] + 0.0f;
        v[j] = vj;
        w[j] += nlr * vj;
      }
    }
  } else if (use_wd) {
    for (std::size_t j = 0; j < n; ++j) {
      const float gj = 0.0f + wd * w[j];
      w[j] += nlr * gj;
    }
  }
  // use_mom == use_wd == false: w += (-lr)*0.0f leaves every element
  // bit-unchanged (+0 stays +0, -0 stays -0) — nothing to do.
}

}  // namespace

void Sgd::step() {
  if (clip_norm_ > 0.0) clip_grad_norm(params_, clip_norm_);
  const bool use_wd = weight_decay_ != 0.0;
  const bool use_mom = momentum_ != 0.0;
  const auto wd = static_cast<float>(weight_decay_);
  const auto mom = static_cast<float>(momentum_);
  const auto nlr = static_cast<float>(-lr_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Var& p = *params_[i];
    p.ensure_grad();
    sgd_update(p.value.data().data(), velocity_[i].data().data(),
               p.grad.data().data(), p.value.size(), use_wd, wd, use_mom,
               mom, nlr);
  }
}

void Sgd::step_on(const std::vector<std::uint32_t>& active) {
  check_active(params_, active, "Sgd::step_on");
  if (clip_norm_ > 0.0) clip_grad_norm_on(params_, active, clip_norm_);
  const bool use_wd = weight_decay_ != 0.0;
  const bool use_mom = momentum_ != 0.0;
  const auto wd = static_cast<float>(weight_decay_);
  const auto mom = static_cast<float>(momentum_);
  const auto nlr = static_cast<float>(-lr_);
  std::size_t next_active = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Var& p = *params_[i];
    if (next_active < active.size() && active[next_active] == i) {
      ++next_active;
      p.ensure_grad();
      sgd_update(p.value.data().data(), velocity_[i].data().data(),
                 p.grad.data().data(), p.value.size(), use_wd, wd, use_mom,
                 mom, nlr);
    } else {
      sgd_update_nograd(p.value.data().data(), velocity_[i].data().data(),
                        p.value.size(), use_wd, wd, use_mom, mom, nlr);
    }
  }
}

void Sgd::zero_grad() {
  for (const VarPtr& p : params_) p->zero_grad();
}

namespace {

void check_state_shapes(const std::vector<VarPtr>& params,
                        const std::vector<Tensor>& tensors,
                        const char* who) {
  if (tensors.size() != params.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": state has wrong parameter count");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!tensors[i].same_shape(params[i]->value)) {
      throw std::invalid_argument(std::string(who) +
                                  ": state tensor shape mismatch");
    }
  }
}

}  // namespace

void Sgd::restore_state(const State& state) {
  check_state_shapes(params_, state.velocity, "Sgd::restore_state");
  velocity_ = state.velocity;
}

Adam::Adam(std::vector<VarPtr> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const VarPtr& p : params_) {
    m_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
  }
}

namespace {

/// Elements [begin, n) of one Adam step — the reference chain that
/// simd::adam_update_avx2 reproduces four lanes at a time.
void adam_update(float* w, float* m, float* v, const float* g,
                 std::size_t begin, std::size_t n,
                 const simd::AdamStep& s) {
  for (std::size_t j = begin; j < n; ++j) {
    double gj = g[j];
    if (s.weight_decay != 0.0) {
      gj += s.weight_decay * static_cast<double>(w[j]);
    }
    m[j] = static_cast<float>(s.beta1 * m[j] + (1.0 - s.beta1) * gj);
    v[j] = static_cast<float>(s.beta2 * v[j] + (1.0 - s.beta2) * gj * gj);
    const double mhat = m[j] / s.bc1;
    const double vhat = v[j] / s.bc2;
    w[j] -= static_cast<float>(s.lr * mhat / (std::sqrt(vhat) + s.eps));
  }
}

}  // namespace

void Adam::step() {
  ++t_;
  const simd::AdamStep s{beta1_,
                         beta2_,
                         lr_,
                         eps_,
                         weight_decay_,
                         1.0 - std::pow(beta1_, static_cast<double>(t_)),
                         1.0 - std::pow(beta2_, static_cast<double>(t_))};
  const bool vec = simd::active_isa() != simd::IsaLevel::kScalar;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Var& p = *params_[i];
    p.ensure_grad();
    float* w = p.value.data().data();
    float* m = m_[i].data().data();
    float* v = v_[i].data().data();
    const float* g = p.grad.data().data();
    const std::size_t n = p.value.size();
    const std::size_t done = vec ? simd::adam_update_avx2(w, m, v, g, n, s)
                                 : 0;
    adam_update(w, m, v, g, done, n, s);
  }
}

void Adam::zero_grad() {
  for (const VarPtr& p : params_) p->zero_grad();
}

void Adam::restore_state(const State& state) {
  check_state_shapes(params_, state.m, "Adam::restore_state");
  check_state_shapes(params_, state.v, "Adam::restore_state");
  m_ = state.m;
  v_ = state.v;
  t_ = state.t;
}

LambdaAscent::LambdaAscent(double lr, double initial, bool clamp_at_zero,
                           double unwind_gain)
    : lr_(lr),
      lambda_(initial),
      clamp_at_zero_(clamp_at_zero),
      unwind_gain_(unwind_gain) {
  assert(lr > 0.0);
  assert(unwind_gain >= 1.0);
}

void LambdaAscent::set_lr(double lr) {
  if (!(lr > 0.0)) {
    throw std::invalid_argument("LambdaAscent::set_lr: lr must be > 0");
  }
  lr_ = lr;
}

void LambdaAscent::step(double violation) {
  double rate = lr_;
  // Anti-windup: once the constraint has been crossed (violation and the
  // accumulated multiplier disagree in sign), unwind faster than the
  // buildup so the closed loop does not overshoot the target.
  if (lambda_ * violation < 0.0) rate *= unwind_gain_;
  lambda_ += rate * violation;
  if (clamp_at_zero_) lambda_ = std::max(0.0, lambda_);
}

}  // namespace lightnas::nn
