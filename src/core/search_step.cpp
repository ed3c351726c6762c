#include "core/search_step.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/ops.hpp"

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
  return space::Architecture(std::move(ops));
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
      w_schedule_(config.w_lr, total_w_steps),
      plans_(config.plan) {
  plan_inputs_.resize(1);
  plan_labels_.resize(1);
  param_index_.reserve(weight_params_.size());
  for (std::uint32_t i = 0; i < weight_params_.size(); ++i) {
    param_index_.emplace(weight_params_[i].get(), i);
  }
}

void SharedWTrainer::rebuild_plan_active(
    const nn::plan::ExecutionPlan* plan) {
  // Runs once per plan switch (never in the planned steady state, so
  // the vector growth here stays off the zero-alloc hot path).
  active_plan_ = plan;
  plan_active_valid_ = true;
  plan_active_.clear();
  for (const nn::plan::ProgramSlot& slot : plan->program().slots) {
    if (slot.kind != nn::plan::SlotKind::kParam) continue;
    const auto it = param_index_.find(slot.param.get());
    if (it == param_index_.end()) {
      // A parameter this trainer does not own (should not happen for
      // w-step plans) — no manifest, use the dense optimizer sweep.
      plan_active_valid_ = false;
      return;
    }
    plan_active_.push_back(it->second);
  }
  std::sort(plan_active_.begin(), plan_active_.end());
  plan_active_.erase(
      std::unique(plan_active_.begin(), plan_active_.end()),
      plan_active_.end());
}

double SharedWTrainer::step(const nn::Dataset& batch,
                            const std::vector<std::size_t>& op_choice) {
  // Zero exactly what the previous step's backward wrote: a planned
  // step accumulates gradients only into its plan's parameter set, so
  // the next step needs to clear just those. Dynamic steps have no
  // such manifest and fall back to the dense sweep.
  if (wrote_all_) {
    w_optimizer_.zero_grad();
  } else {
    for (const std::uint32_t i : plan_active_) {
      weight_params_[i]->zero_grad();
    }
  }
  wrote_all_ = true;
  if (!plans_.settings().enabled) {
    return dynamic_step(batch, op_choice, /*record=*/false);
  }

  // Structural key of this step: the sampled path plus the batch shape.
  // Digits are appended in place so the steady state reuses the string's
  // capacity (no allocation on the hot path).
  plan_key_.clear();
  const auto append_num = [this](std::size_t v) {
    char digits[20];
    std::size_t len = 0;
    do {
      digits[len++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (len > 0) plan_key_.push_back(digits[--len]);
  };
  for (const std::size_t op : op_choice) {
    append_num(op);
    plan_key_.push_back(',');
  }
  plan_key_.push_back(':');
  append_num(batch.features.rows());
  plan_key_.push_back('x');
  append_num(batch.features.cols());

  const nn::ParallelContext& ctx = nn::ParallelContext::current();
  if (nn::plan::ExecutionPlan* plan = plans_.lookup(plan_key_, ctx)) {
    plan_inputs_[0] = &batch.features;
    plan_labels_[0] = &batch.labels;
    if (plan->execute(plan_inputs_, plan_labels_, ctx)) {
      w_optimizer_.set_lr(w_schedule_.lr_at(step_counter_++));
      if (plan != active_plan_) rebuild_plan_active(plan);
      if (plan_active_valid_) {
        // The plan's parameter table is an exact manifest of which
        // gradients this step produced — every other parameter's grad
        // is still zero, so the optimizer can skip reading it.
        w_optimizer_.step_on(plan_active_);
        wrote_all_ = false;
      } else {
        w_optimizer_.step();
      }
      return static_cast<double>(plan->root_data()[0]);
    }
  }
  return dynamic_step(batch, op_choice, plans_.should_record(plan_key_));
}

double SharedWTrainer::dynamic_step(
    const nn::Dataset& batch, const std::vector<std::size_t>& op_choice,
    bool record) {
  // Any compile below may free an evicted plan and a later compile may
  // reuse its address — drop the pointer-identity cache so the next
  // planned step rebuilds its parameter manifest.
  active_plan_ = nullptr;
  plan_active_valid_ = false;
  std::unique_ptr<nn::plan::Program> program;
  nn::VarPtr loss;
  if (record) {
    // Trace this step's forward; the capture happens before backward()
    // recycles the graph. A poisoned capture marks the key uncompilable.
    nn::plan::Recording recording;
    const nn::VarPtr logits =
        supernet_.forward_single_path(batch.features, op_choice);
    loss = nn::ops::softmax_cross_entropy(logits, batch.labels);
    program = recording.capture(loss);
  } else {
    const nn::VarPtr logits =
        supernet_.forward_single_path(batch.features, op_choice);
    loss = nn::ops::softmax_cross_entropy(logits, batch.labels);
  }
  nn::backward(loss);
  w_optimizer_.set_lr(w_schedule_.lr_at(step_counter_++));
  w_optimizer_.step();
  if (record) {
    plans_.store(plan_key_,
                 program != nullptr
                     ? nn::plan::ExecutionPlan::compile(
                           *program, nn::plan::CompileOptions{},
                           nn::ParallelContext::current())
                     : nullptr);
  }
  return static_cast<double>(loss->value.item());
}

void SharedWTrainer::clear_weight_grads() {
  for (const nn::VarPtr& param : weight_params_) {
    param->zero_grad();
  }
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
  // Whatever gradients are in flight belong to the pre-restore
  // trajectory — make the next step sweep all of them.
  wrote_all_ = true;
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
  const std::size_t num_layers = topology_->num_layers();
  const std::vector<std::size_t>& searchable =
      topology_->searchable_layers();
  const std::vector<Constraint>& constraints = *constraints_;

  const nn::VarPtr p_hat = nn::ops::row_softmax(nn::ops::scale(
      nn::ops::add(alpha_, nn::make_const(gumbel_noise(
                               searchable.size(), topology_->num_ops(),
                               rng))),
      1.0 / tau));

  // Sampled path + GDAS gates so d(CE)/d(alpha) exists (Eq 12).
  std::vector<std::size_t> op_choice(num_layers, 0);
  std::vector<nn::VarPtr> gates(num_layers, nullptr);
  for (std::size_t s = 0; s < searchable.size(); ++s) {
    const std::size_t j = p_hat->value.argmax_row(s);
    op_choice[searchable[s]] = j;
    gates[searchable[s]] = hard_gate(nn::ops::select(p_hat, s, j));
  }

  const nn::VarPtr logits =
      supernet.forward_single_path(batch.features, op_choice, gates);
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

}  // namespace lightnas::core
