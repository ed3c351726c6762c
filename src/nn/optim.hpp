#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/autograd.hpp"

namespace lightnas::nn {

/// Cosine learning-rate schedule with optional linear warmup — the
/// schedule the paper uses for both supernet search and final training
/// (Sec 4.1: warm up 0.1 -> 0.5 over 5 epochs, cosine decay to zero).
class CosineSchedule {
 public:
  CosineSchedule(double base_lr, std::size_t total_steps,
                 std::size_t warmup_steps = 0, double warmup_start_lr = 0.0);

  double lr_at(std::size_t step) const;

 private:
  double base_lr_;
  std::size_t total_steps_;
  std::size_t warmup_steps_;
  double warmup_start_lr_;
};

/// Rescale gradients in-place so their global L2 norm is at most
/// `max_norm`; returns the pre-clip norm. No-op when max_norm <= 0.
double clip_grad_norm(const std::vector<VarPtr>& params, double max_norm);

/// clip_grad_norm restricted to the ascending-index subset `active` of
/// `params`. Bit-identical to the dense call whenever every parameter
/// outside `active` holds an exactly-zero (or never-allocated)
/// gradient: zero terms contribute +0.0 to the norm accumulator, and
/// rescaling a zero gradient is a no-op. The caller owns that
/// precondition (see Sgd::step_on). Throws std::invalid_argument
/// unless `active` is strictly increasing and below params.size().
double clip_grad_norm_on(const std::vector<VarPtr>& params,
                         const std::vector<std::uint32_t>& active,
                         double max_norm);

/// SGD with momentum and decoupled weight decay (the paper's optimizer
/// for supernet weights w: lr 0.1 cosine, momentum 0.9, wd 3e-5).
/// `clip_norm` > 0 enables global-norm gradient clipping before the
/// update (deep residual stacks occasionally spike).
class Sgd {
 public:
  /// Serializable optimizer state (checkpoint support): one velocity
  /// tensor per parameter, in parameter order.
  struct State {
    std::vector<Tensor> velocity;
  };

  Sgd(std::vector<VarPtr> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0, double clip_norm = 0.0);

  void step();

  /// Sparse variant of step() for supernet-style training where one
  /// step's backward reaches only a small subset of the parameters:
  /// `active` lists, in ascending order, the indices of parameters
  /// whose gradients may be nonzero; every other parameter MUST hold an
  /// all-zero (or never-allocated) gradient. Weight decay and momentum
  /// still apply to every parameter each step — only the gradient
  /// reads (clip norm + update) are skipped, which is exact because a
  /// zero gradient contributes +0.0 to the norm and +0.0 to the
  /// velocity. Bit-identical to step(); optim.cpp is compiled with
  /// -ffp-contract=off so both element loops round identically.
  /// Throws std::invalid_argument unless `active` is strictly
  /// increasing and below the parameter count.
  void step_on(const std::vector<std::uint32_t>& active);

  void zero_grad();
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

  State export_state() const { return {velocity_}; }
  /// Restore a snapshot taken on an optimizer over identically-shaped
  /// parameters; throws std::invalid_argument on shape mismatch.
  void restore_state(const State& state);

 private:
  std::vector<VarPtr> params_;
  std::vector<Tensor> velocity_;
  double lr_;
  double momentum_;
  double weight_decay_;
  double clip_norm_;
};

/// Adam (the paper's optimizer for architecture parameters alpha:
/// lr 1e-3, wd 1e-3).
class Adam {
 public:
  /// Serializable optimizer state (checkpoint support).
  struct State {
    std::vector<Tensor> m;
    std::vector<Tensor> v;
    std::size_t t = 0;
  };

  Adam(std::vector<VarPtr> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  void step();
  void zero_grad();
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

  State export_state() const { return {m_, v_, t_}; }
  /// Restore a snapshot taken on an optimizer over identically-shaped
  /// parameters; throws std::invalid_argument on shape mismatch.
  void restore_state(const State& state);

 private:
  std::vector<VarPtr> params_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  std::size_t t_ = 0;
};

/// Scalar gradient-*ascent* controller for the trade-off coefficient
/// lambda (Eq 11): lambda <- lambda + eta * (LAT/T - 1).
///
/// Lambda is deliberately UNclamped by default: the paper enforces the
/// *equality* LAT(alpha) = T, so when the architecture is faster than the
/// target, lambda turns negative and rewards latency until the search
/// climbs back up to T (Sec 3.4's "likewise, if LAT < T ..." argument).
/// Set `clamp_at_zero` for the KKT-style inequality variant LAT <= T
/// (used by the ablation benches).
class LambdaAscent {
 public:
  /// `unwind_gain` is an anti-windup factor: when the violation opposes
  /// the accumulated lambda (the constraint has been crossed), the
  /// update is scaled by this factor so the integrator unwinds faster
  /// than it wound up. 1.0 recovers the plain integrator; ~3 removes
  /// most of the overshoot of the lambda/alpha double-integrator loop.
  explicit LambdaAscent(double lr, double initial = 0.0,
                        bool clamp_at_zero = false,
                        double unwind_gain = 3.0);

  /// Update from the normalized constraint violation (LAT/T - 1).
  void step(double violation);

  double value() const { return lambda_; }
  double lr() const { return lr_; }
  /// The watchdog cools the ascent rate down after a rollback.
  void set_lr(double lr);
  void reset(double value = 0.0) { lambda_ = value; }

 private:
  double lr_;
  double lambda_;
  bool clamp_at_zero_;
  double unwind_gain_;
};

}  // namespace lightnas::nn
