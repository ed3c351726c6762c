#include "baselines/fbnet.hpp"

#include <algorithm>
#include <cassert>

#include "core/gumbel.hpp"
#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace lightnas::baselines {

FbNetSearch::FbNetSearch(const space::SearchSpace& space,
                         const predictors::HardwarePredictor& predictor,
                         const nn::SyntheticTask& task,
                         const core::SupernetConfig& supernet,
                         const FbNetConfig& config)
    : space_(&space),
      predictor_(&predictor),
      task_(&task),
      supernet_config_(supernet),
      config_(config) {
  assert(config.lambda >= 0.0);
  assert(config.warmup_epochs < config.epochs);
}

core::SearchResult FbNetSearch::search() {
  const std::size_t num_layers = space_->num_layers();
  const std::size_t num_ops = space_->num_ops();

  std::vector<std::size_t> searchable_layers;
  for (std::size_t l = 0; l < num_layers; ++l) {
    if (space_->layers()[l].searchable) searchable_layers.push_back(l);
  }
  const std::size_t num_searchable = searchable_layers.size();

  util::Rng rng(config_.seed * 0x2545f4914f6cdd1dULL + 99);
  core::SupernetConfig supernet_config = supernet_config_;
  supernet_config.seed ^= config_.seed;
  const std::size_t num_classes =
      1 + *std::max_element(task_->train.labels.begin(),
                            task_->train.labels.end());
  core::SurrogateSupernet supernet(*space_, task_->train.feature_dim(),
                                   num_classes, supernet_config);

  nn::VarPtr alpha =
      nn::make_leaf(nn::Tensor::zeros(num_searchable, num_ops), "alpha");

  nn::Sgd w_optimizer(supernet.weight_parameters(), config_.w_lr,
                      config_.w_momentum, config_.w_weight_decay,
                      /*clip_norm=*/5.0);
  const nn::CosineSchedule w_schedule(
      config_.w_lr, config_.epochs * config_.w_steps_per_epoch);
  nn::Adam alpha_optimizer({alpha}, config_.alpha_lr, 0.9, 0.999, 1e-8,
                           config_.alpha_weight_decay);
  const core::TemperatureSchedule tau_schedule(
      config_.tau_initial, config_.tau_final, config_.epochs);

  util::Rng data_rng = rng.fork();
  nn::Batcher train_batches(task_->train, config_.batch_size, data_rng);
  util::Rng valid_rng = rng.fork();
  nn::Batcher valid_batches(task_->valid, config_.batch_size, valid_rng);

  // Soft Gumbel path weights for the full layer stack; fixed layers get
  // a constant placeholder row (forward_multi_path executes their fixed
  // op unweighted).
  auto soft_weights = [&](double tau) {
    const nn::VarPtr p_hat = nn::ops::row_softmax(nn::ops::scale(
        nn::ops::add(alpha, nn::make_const(core::gumbel_noise(
                                num_searchable, num_ops, rng))),
        1.0 / tau));
    std::vector<nn::VarPtr> rows;
    rows.reserve(num_layers);
    std::size_t s = 0;
    for (std::size_t l = 0; l < num_layers; ++l) {
      if (space_->layers()[l].searchable) {
        rows.push_back(nn::ops::slice_rows(p_hat, s++, 1));
      } else {
        nn::Tensor one_hot = nn::Tensor::zeros(1, num_ops);
        one_hot.at(0, 0) = 1.0f;
        rows.push_back(nn::make_const(std::move(one_hot)));
      }
    }
    return nn::ops::vstack(rows);
  };

  auto derive = [&]() {
    std::vector<std::size_t> ops(num_layers, 0);
    for (std::size_t s = 0; s < num_searchable; ++s) {
      ops[searchable_layers[s]] = alpha->value.argmax_row(s);
    }
    return space::Architecture(ops);
  };

  core::SearchResult result;
  std::size_t w_step_counter = 0;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const double tau = tau_schedule.at(epoch);
    double sampled_cost_sum = 0.0;
    std::size_t sampled_cost_count = 0;

    // ---- w phase: multi-path soft-weighted forward ---------------------
    for (std::size_t step = 0; step < config_.w_steps_per_epoch; ++step) {
      const nn::Dataset batch = train_batches.next();
      const nn::VarPtr weights = soft_weights(tau);
      w_optimizer.zero_grad();
      alpha->zero_grad();
      const nn::VarPtr logits =
          supernet.forward_multi_path(batch.features, weights);
      const nn::VarPtr loss =
          nn::ops::softmax_cross_entropy(logits, batch.labels);
      nn::backward(loss);
      w_optimizer.set_lr(w_schedule.lr_at(w_step_counter++));
      w_optimizer.step();
      alpha->zero_grad();  // w phase must not leak into alpha
      ++result.weight_updates;
    }

    // ---- alpha phase: CE + fixed-lambda soft latency penalty (Eq 3) ----
    if (epoch >= config_.warmup_epochs) {
      for (std::size_t step = 0; step < config_.alpha_steps_per_epoch;
           ++step) {
        const nn::Dataset batch = valid_batches.next();
        const nn::VarPtr weights = soft_weights(tau);

        const nn::VarPtr logits =
            supernet.forward_multi_path(batch.features, weights);
        const nn::VarPtr ce =
            nn::ops::softmax_cross_entropy(logits, batch.labels);

        // Expected cost under the soft path distribution. With the LUT
        // predictor (linear in the encoding) this is exactly FBNet's
        // sum_{l,k} P_hat[l,k] * LUT[l,k].
        const nn::VarPtr encoding =
            nn::ops::reshape(weights, 1, num_layers * num_ops);
        const nn::VarPtr expected_cost = predictor_->forward_var(encoding);
        const nn::VarPtr loss = nn::ops::add(
            ce, nn::ops::scale(expected_cost, config_.lambda));

        alpha_optimizer.zero_grad();
        nn::backward(loss);
        alpha_optimizer.step();
        for (const nn::VarPtr& param : supernet.weight_parameters()) {
          param->zero_grad();
        }
        ++result.alpha_updates;

        sampled_cost_sum += static_cast<double>(expected_cost->value.item());
        ++sampled_cost_count;
      }
    }

    // ---- telemetry ------------------------------------------------------
    core::SearchEpochStats stats;
    stats.epoch = epoch;
    stats.tau = tau;
    stats.lambda = config_.lambda;
    stats.derived = derive();
    stats.predicted_cost = predictor_->predict(stats.derived);
    stats.sampled_cost_mean =
        sampled_cost_count > 0
            ? sampled_cost_sum / static_cast<double>(sampled_cost_count)
            : stats.predicted_cost;
    const core::EvalResult eval =
        supernet.evaluate(task_->valid, stats.derived.ops());
    stats.valid_loss = eval.loss;
    stats.valid_accuracy = eval.accuracy;
    result.trace.push_back(std::move(stats));
  }

  result.architecture = derive();
  result.final_predicted_cost = predictor_->predict(result.architecture);
  result.final_lambda = config_.lambda;
  return result;
}

}  // namespace lightnas::baselines
