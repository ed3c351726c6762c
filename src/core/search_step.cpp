#include "core/search_step.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "nn/ops.hpp"
#include "nn/parallel.hpp"
#include "util/check.hpp"

namespace lightnas::core {

namespace {

/// GDAS-style hard gate: value exactly 1, gradient d(gate)/d(p_soft) = 1,
/// so the path's output gradient is credited to its soft probability.
nn::VarPtr hard_gate(const nn::VarPtr& soft_prob) {
  return nn::ops::add_scalar(
      nn::ops::sub(soft_prob, nn::ops::detach(soft_prob)), 1.0);
}

std::size_t infer_num_classes(const nn::SyntheticTask& task) {
  return task.train.labels.empty()
             ? 10
             : 1 + *std::max_element(task.train.labels.begin(),
                                     task.train.labels.end());
}

/// Worst relative constraint gap; +inf when a cost is missing or
/// non-finite.
double constraint_gap(const std::vector<double>& costs,
                      const std::vector<Constraint>& constraints) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    if (c >= costs.size()) return kInf;
    const double gap =
        std::abs(costs[c] - constraints[c].target) / constraints[c].target;
    if (!std::isfinite(gap)) return kInf;
    worst = std::max(worst, gap);
  }
  return worst;
}

bool tensor_finite(const nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- topology

SearchTopology::SearchTopology(const space::SearchSpace& space)
    : space_(&space),
      num_layers_(space.num_layers()),
      num_ops_(space.num_ops()) {
  for (std::size_t l = 0; l < num_layers_; ++l) {
    if (space.layers()[l].searchable) searchable_layers_.push_back(l);
  }
}

PathSample SearchTopology::sample_path(const nn::VarPtr& alpha, double tau,
                                       util::Rng& rng) const {
  PathSample sample;
  sample.p_hat = nn::ops::row_softmax(nn::ops::scale(
      nn::ops::add(alpha, nn::make_const(gumbel_noise(
                              num_searchable(), num_ops_, rng))),
      1.0 / tau));
  sample.op_choice.assign(num_layers_, 0);
  for (std::size_t s = 0; s < num_searchable(); ++s) {
    sample.op_choice[searchable_layers_[s]] =
        sample.p_hat->value.argmax_row(s);
  }
  return sample;
}

space::Architecture SearchTopology::derive(const nn::Tensor& alpha) const {
  std::vector<std::size_t> ops(num_layers_, 0);
  for (std::size_t s = 0; s < num_searchable(); ++s) {
    ops[searchable_layers_[s]] = alpha.argmax_row(s);
  }
  return space::Architecture(ops);
}

nn::VarPtr SearchTopology::assemble_encoding(
    const nn::VarPtr& binarized) const {
  std::vector<nn::VarPtr> rows;
  rows.reserve(num_layers_);
  std::size_t s = 0;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    if (space_->layers()[l].searchable) {
      rows.push_back(nn::ops::slice_rows(binarized, s++, 1));
    } else {
      nn::Tensor one_hot = nn::Tensor::zeros(1, num_ops_);
      one_hot.at(0, 0) = 1.0f;
      rows.push_back(nn::make_const(std::move(one_hot)));
    }
  }
  return nn::ops::reshape(nn::ops::vstack(rows), 1, num_layers_ * num_ops_);
}

// ------------------------------------------------------- shared-w trainer

SharedWTrainer::SharedWTrainer(const SearchTopology& topology,
                               const nn::SyntheticTask& task,
                               const SupernetConfig& supernet,
                               const LightNasConfig& config,
                               std::size_t total_w_steps)
    : supernet_(topology.space(), task.train.feature_dim(),
                infer_num_classes(task),
                [&] {
                  SupernetConfig seeded = supernet;
                  seeded.seed ^= config.seed;
                  return seeded;
                }()),
      weight_params_(supernet_.weight_parameters()),
      w_optimizer_(weight_params_, config.w_lr, config.w_momentum,
                   config.w_weight_decay, /*clip_norm=*/5.0),
      w_schedule_(config.w_lr, total_w_steps) {
  param_index_.reserve(weight_params_.size());
  for (std::uint32_t i = 0; i < weight_params_.size(); ++i) {
    param_index_.emplace(weight_params_[i].get(), i);
  }
}

double SharedWTrainer::step(const nn::Dataset& batch,
                            const std::vector<std::size_t>& op_choice) {
  const nn::VarPtr logits =
      supernet_.forward_single_path(batch.features, op_choice);
  const nn::VarPtr loss = nn::ops::softmax_cross_entropy(logits, batch.labels);
  // Weight grads are +0 between steps (alpha_step zeroes what it
  // leaks), so the leaves this backward wrote are the only nonzero
  // grads: step_on over them is bit-identical to the dense step.
  const std::vector<nn::Var*>& leaves = nn::backward(loss);
  active_.clear();
  for (const nn::Var* leaf : leaves) {
    const auto it = param_index_.find(leaf);
    LIGHTNAS_CHECK(it != param_index_.end(),
                   "SharedWTrainer::step: backward wrote a leaf that is "
                   "not a supernet weight");
    active_.push_back(it->second);
  }
  std::sort(active_.begin(), active_.end());
  w_optimizer_.set_lr(w_schedule_.lr_at(step_counter_++));
  w_optimizer_.step_on(active_);
  for (const std::uint32_t i : active_) weight_params_[i]->zero_grad();
  return static_cast<double>(loss->value.item());
}

SharedWTrainer::State SharedWTrainer::export_state() const {
  State state;
  state.weights.reserve(weight_params_.size());
  for (const nn::VarPtr& p : weight_params_) {
    state.weights.push_back(p->value);
  }
  state.velocity = w_optimizer_.export_state().velocity;
  state.step_counter = step_counter_;
  return state;
}

void SharedWTrainer::restore_state(const State& state) {
  if (state.weights.size() != weight_params_.size()) {
    throw std::invalid_argument(
        "SharedWTrainer: supernet parameter count mismatch");
  }
  for (std::size_t i = 0; i < weight_params_.size(); ++i) {
    if (!state.weights[i].same_shape(weight_params_[i]->value)) {
      throw std::invalid_argument(
          "SharedWTrainer: supernet tensor shape mismatch");
    }
    weight_params_[i]->value = state.weights[i];
  }
  w_optimizer_.restore_state({state.velocity});
  step_counter_ = state.step_counter;
}

// ------------------------------------------------------ alpha-lambda head

AlphaLambdaHead::AlphaLambdaHead(const SearchTopology& topology,
                                 const std::vector<Constraint>& constraints,
                                 const LightNasConfig& config)
    : topology_(&topology),
      constraints_(&constraints),
      alpha_lr_(config.alpha_lr),
      lambda_lr_(config.lambda_lr),
      penalty_mu_(config.penalty_mu),
      alpha_(nn::make_leaf(
          nn::Tensor::zeros(topology.num_searchable(), topology.num_ops()),
          "alpha")),
      alpha_optimizer_({alpha_}, config.alpha_lr, 0.9, 0.999, 1e-8,
                       config.alpha_weight_decay),
      lambdas_(constraints.size(),
               nn::LambdaAscent(config.lambda_lr, config.lambda_init)) {}

PathSample AlphaLambdaHead::sample(double tau, util::Rng& rng) const {
  return topology_->sample_path(alpha_, tau, rng);
}

double AlphaLambdaHead::alpha_step(
    const SurrogateSupernet& supernet,
    const std::vector<nn::VarPtr>& weight_params, const nn::Dataset& batch,
    double tau, util::Rng& rng) {
  const std::vector<std::size_t>& searchable =
      topology_->searchable_layers();
  const std::vector<Constraint>& constraints = *constraints_;

  // Sampled path + GDAS gates so d(CE)/d(alpha) exists (Eq 12).
  const PathSample sample = topology_->sample_path(alpha_, tau, rng);
  const nn::VarPtr& p_hat = sample.p_hat;
  std::vector<nn::VarPtr> gates(topology_->num_layers(), nullptr);
  for (std::size_t s = 0; s < searchable.size(); ++s) {
    gates[searchable[s]] = hard_gate(
        nn::ops::select(p_hat, s, sample.op_choice[searchable[s]]));
  }

  const nn::VarPtr logits =
      supernet.forward_single_path(batch.features, sample.op_choice, gates);
  nn::VarPtr loss = nn::ops::softmax_cross_entropy(logits, batch.labels);

  // Differentiable cost of the binarized architecture (Eq 9 + 12), one
  // penalty term per constraint.
  double sampled_cost = 0.0;
  const nn::VarPtr p_bar = nn::ops::binarize_rows_ste(p_hat);
  const nn::VarPtr encoding = topology_->assemble_encoding(p_bar);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    const nn::VarPtr cost = constraints[c].predictor->forward_var(encoding);
    const nn::VarPtr violation = nn::ops::add_scalar(
        nn::ops::scale(cost, 1.0 / constraints[c].target), -1.0);
    loss = nn::ops::add(loss, nn::ops::scale(violation, lambdas_[c].value()));
    if (penalty_mu_ != 0.0) {
      loss = nn::ops::add(
          loss, nn::ops::scale(nn::ops::mul(violation, violation),
                               penalty_mu_));
    }
    if (c == 0) sampled_cost = static_cast<double>(cost->value.item());
  }

  alpha_optimizer_.zero_grad();
  // The supernet weights also receive gradients here; the caller-supplied
  // weight_params are cleared without being applied (bi-level: alpha-only
  // update).
  nn::backward(loss);
  alpha_optimizer_.step();
  for (const nn::VarPtr& param : weight_params) {
    param->zero_grad();
  }

  // Gradient ascent on each lambda (Eq 11): dL/dlambda_c =
  // COST_c(alpha)/T_c - 1, where the architecture encoded by alpha is the
  // argmax one of Eq (4) — NOT the Gumbel-sampled path, whose cost is a
  // noisy draw centred on the distribution rather than on the encoding.
  const space::Architecture derived_arch = derive();
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    lambdas_[c].step(constraints[c].predictor->predict(derived_arch) /
                         constraints[c].target -
                     1.0);
  }
  return sampled_cost;
}

space::Architecture AlphaLambdaHead::derive() const {
  return topology_->derive(alpha_->value);
}

std::vector<double> AlphaLambdaHead::lambda_values() const {
  std::vector<double> values;
  values.reserve(lambdas_.size());
  for (const nn::LambdaAscent& l : lambdas_) values.push_back(l.value());
  return values;
}

void AlphaLambdaHead::set_cooldown_scale(double scale) {
  alpha_optimizer_.set_lr(alpha_lr_ * scale);
  for (nn::LambdaAscent& l : lambdas_) {
    l.set_lr(lambda_lr_ * scale);
  }
}

AlphaLambdaHead::State AlphaLambdaHead::export_state() const {
  State state;
  state.alpha = alpha_->value;
  nn::Adam::State adam = alpha_optimizer_.export_state();
  state.adam_m = std::move(adam.m);
  state.adam_v = std::move(adam.v);
  state.adam_t = adam.t;
  state.lambdas = lambda_values();
  return state;
}

void AlphaLambdaHead::restore_state(const State& state) {
  if (!state.alpha.same_shape(alpha_->value)) {
    throw std::invalid_argument(
        "AlphaLambdaHead: alpha shape does not match the search space");
  }
  if (state.lambdas.size() != lambdas_.size()) {
    throw std::invalid_argument("AlphaLambdaHead: lambda count mismatch");
  }
  alpha_->value = state.alpha;
  alpha_optimizer_.restore_state({state.adam_m, state.adam_v, state.adam_t});
  for (std::size_t c = 0; c < lambdas_.size(); ++c) {
    lambdas_[c].reset(state.lambdas[c]);
  }
}

// -------------------------------------------------------------- epoch head

void EpochHead::record_healthy(SearchEpochStats stats, double tau_final) {
  trace.push_back(std::move(stats));
  best_accuracy = std::max(best_accuracy, trace.back().valid_accuracy);
  tau_floor *= 0.8;
  if (tau_floor < tau_final) tau_floor = 0.0;
}

void EpochHead::cool_down(double factor, double tau_now) {
  cooldown_scale *= factor;
  head->set_cooldown_scale(cooldown_scale);
  tau_floor = std::max(tau_floor, tau_now);
}

void EpochHead::restore(double scale, double floor, std::size_t updates,
                        std::vector<SearchEpochStats> snapshot_trace) {
  cooldown_scale = scale;
  tau_floor = floor;
  head->set_cooldown_scale(cooldown_scale);
  alpha_updates = updates;
  trace = std::move(snapshot_trace);
  best_accuracy = 0.0;
  for (const SearchEpochStats& stats : trace) {
    best_accuracy = std::max(best_accuracy, stats.valid_accuracy);
  }
}

// ------------------------------------------------------------ epoch runner

std::vector<SearchEpochStats> EpochRunner::run(
    std::size_t epoch, const std::vector<EpochHead*>& heads) {
  const auto tau = [&](const EpochHead& head) {
    return std::max(tau_schedule.at(epoch), head.tau_floor);
  };

  // ---- w-phase: ONE shared-weight update per step ----------------------
  // Round-robin over the heads keeps the shared weights trained in every
  // target's preferred region of the space, at one search's w budget.
  for (std::size_t step = 0; step < config.w_steps_per_epoch; ++step) {
    const nn::Dataset batch = train_batches.next();
    const EpochHead& source = *heads[step % heads.size()];
    trainer.step(batch,
                 source.head->sample(tau(source), *source.path_rng).op_choice);
  }

  // ---- alpha-phase: each head on its own validation batches ------------
  // Every alpha backward traverses the shared supernet's gradient
  // buffers, so heads step serially, in order, on the calling thread.
  std::vector<double> sampled_cost_sum(heads.size(), 0.0);
  const std::size_t alpha_steps =
      epoch >= config.warmup_epochs ? config.alpha_steps_per_epoch : 0;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    EpochHead& head = *heads[i];
    for (std::size_t step = 0; step < alpha_steps; ++step) {
      sampled_cost_sum[i] += head.head->alpha_step(
          trainer.supernet(), trainer.weight_parameters(),
          head.valid_batches->next(), tau(head), *head.path_rng);
      ++head.alpha_updates;
    }
  }

  // ---- evaluation: read-only, one output slot per head -----------------
  std::vector<SearchEpochStats> epoch_stats(heads.size());
  nn::ParallelContext::current().for_rows(
      heads.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const AlphaLambdaHead& head = *heads[i]->head;
          SearchEpochStats& stats = epoch_stats[i];
          stats.epoch = epoch;
          stats.tau = tau(*heads[i]);
          stats.derived = head.derive();
          stats.lambdas = head.lambda_values();
          for (const Constraint& constraint : head.constraints()) {
            stats.predicted_costs.push_back(
                constraint.predictor->predict(stats.derived));
          }
          stats.lambda = stats.lambdas.front();
          stats.predicted_cost = stats.predicted_costs.front();
          stats.sampled_cost_mean =
              alpha_steps > 0 ? sampled_cost_sum[i] /
                                    static_cast<double>(alpha_steps)
                              : stats.predicted_cost;
          const EvalResult eval =
              trainer.supernet().evaluate(valid, stats.derived.ops());
          stats.valid_loss = eval.loss;
          stats.valid_accuracy = eval.accuracy;
        }
      });
  return epoch_stats;
}

// ------------------------------------------------ watchdog and selection

std::string watchdog_verdict(const WatchdogConfig& watchdog,
                             const SearchEpochStats& stats,
                             const nn::Tensor& alpha, double best_accuracy) {
  if (!watchdog.enabled) return {};
  if (!std::isfinite(stats.valid_loss)) return "non-finite validation loss";
  if (!tensor_finite(alpha)) return "non-finite alpha";
  for (std::size_t c = 0; c < stats.lambdas.size(); ++c) {
    if (!std::isfinite(stats.lambdas[c]) ||
        std::abs(stats.lambdas[c]) > watchdog.lambda_limit) {
      return "runaway lambda (constraint " + std::to_string(c) +
             ", value " + std::to_string(stats.lambdas[c]) + ")";
    }
    if (!std::isfinite(stats.predicted_costs[c])) {
      return "non-finite predicted cost (constraint " + std::to_string(c) +
             ")";
    }
  }
  if (best_accuracy >= watchdog.min_reference_accuracy &&
      stats.valid_accuracy <
          watchdog.accuracy_collapse_frac * best_accuracy) {
    return "accuracy collapse (" + std::to_string(stats.valid_accuracy) +
           " vs best " + std::to_string(best_accuracy) + ")";
  }
  return {};
}

std::size_t select_snapshot(const std::vector<SearchEpochStats>& trace,
                            const std::vector<Constraint>& constraints,
                            bool aborted) {
  const std::size_t last = trace.size() - 1;
  std::size_t best = last;
  double best_gap = aborted ? std::numeric_limits<double>::infinity()
                            : constraint_gap(trace[last].predicted_costs,
                                             constraints);
  for (std::size_t i = trace.size() - std::max<std::size_t>(
                                          1, trace.size() / 4);
       i < trace.size(); ++i) {
    const double gap = constraint_gap(trace[i].predicted_costs, constraints);
    if (gap < best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return best;
}

}  // namespace lightnas::core
