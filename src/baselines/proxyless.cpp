#include "baselines/proxyless.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace lightnas::baselines {

ProxylessSearch::ProxylessSearch(const space::SearchSpace& space,
                                 const predictors::HardwarePredictor& predictor,
                                 const nn::SyntheticTask& task,
                                 const core::SupernetConfig& supernet,
                                 const ProxylessConfig& config)
    : space_(&space),
      predictor_(&predictor),
      task_(&task),
      supernet_config_(supernet),
      config_(config) {
  assert(config.lambda >= 0.0);
  assert(config.warmup_epochs < config.epochs);
}

core::SearchResult ProxylessSearch::search() {
  const std::size_t num_layers = space_->num_layers();
  const std::size_t num_ops = space_->num_ops();

  std::vector<std::size_t> searchable_layers;
  for (std::size_t l = 0; l < num_layers; ++l) {
    if (space_->layers()[l].searchable) searchable_layers.push_back(l);
  }
  const std::size_t num_searchable = searchable_layers.size();

  util::Rng rng(config_.seed * 0x9ddfea08eb382d69ULL + 31);
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

  util::Rng data_rng = rng.fork();
  nn::Batcher train_batches(task_->train, config_.batch_size, data_rng);
  util::Rng valid_rng = rng.fork();
  nn::Batcher valid_batches(task_->valid, config_.batch_size, valid_rng);

  // Per-row softmax probabilities of alpha (values only).
  auto row_probs = [&](std::size_t s) {
    std::vector<double> probs(num_ops);
    double mx = alpha->value.at(s, 0);
    for (std::size_t k = 1; k < num_ops; ++k) {
      mx = std::max(mx, static_cast<double>(alpha->value.at(s, k)));
    }
    double total = 0.0;
    for (std::size_t k = 0; k < num_ops; ++k) {
      probs[k] = std::exp(alpha->value.at(s, k) - mx);
      total += probs[k];
    }
    for (double& p : probs) p /= total;
    return probs;
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
    double sampled_cost_sum = 0.0;
    std::size_t sampled_cost_count = 0;

    // ---- w phase: single sampled path (ProxylessNAS trains w this way)
    for (std::size_t step = 0; step < config_.w_steps_per_epoch; ++step) {
      const nn::Dataset batch = train_batches.next();
      std::vector<std::size_t> op_choice(num_layers, 0);
      for (std::size_t s = 0; s < num_searchable; ++s) {
        op_choice[searchable_layers[s]] = rng.categorical(row_probs(s));
      }
      w_optimizer.zero_grad();
      const nn::VarPtr logits =
          supernet.forward_single_path(batch.features, op_choice);
      const nn::VarPtr loss =
          nn::ops::softmax_cross_entropy(logits, batch.labels);
      nn::backward(loss);
      w_optimizer.set_lr(w_schedule.lr_at(w_step_counter++));
      w_optimizer.step();
      ++result.weight_updates;
    }

    // ---- alpha phase: two sampled candidates per layer ----------------
    if (epoch >= config_.warmup_epochs) {
      for (std::size_t step = 0; step < config_.alpha_steps_per_epoch;
           ++step) {
        const nn::Dataset batch = valid_batches.next();

        // Sample two distinct candidates per searchable layer and build
        // a masked softmax over exactly that pair: a differentiable
        // renormalization of their probabilities.
        nn::Tensor mask(num_searchable, num_ops, -1e9f);
        for (std::size_t s = 0; s < num_searchable; ++s) {
          const std::vector<double> probs = row_probs(s);
          const std::size_t first = rng.categorical(probs);
          std::vector<double> rest = probs;
          rest[first] = 0.0;
          const std::size_t second = rng.categorical(rest);
          mask.at(s, first) = 0.0f;
          mask.at(s, second) = 0.0f;
        }
        const nn::VarPtr pair_weights = nn::ops::row_softmax(
            nn::ops::add(alpha, nn::make_const(std::move(mask))));

        // Assemble full-layer weights (fixed layers: constant one-hot).
        std::vector<nn::VarPtr> rows;
        rows.reserve(num_layers);
        std::size_t s = 0;
        for (std::size_t l = 0; l < num_layers; ++l) {
          if (space_->layers()[l].searchable) {
            rows.push_back(nn::ops::slice_rows(pair_weights, s++, 1));
          } else {
            nn::Tensor one_hot = nn::Tensor::zeros(1, num_ops);
            one_hot.at(0, 0) = 1.0f;
            rows.push_back(nn::make_const(std::move(one_hot)));
          }
        }
        const nn::VarPtr weights = nn::ops::vstack(rows);

        const nn::VarPtr logits =
            supernet.forward_multi_path(batch.features, weights);
        const nn::VarPtr ce =
            nn::ops::softmax_cross_entropy(logits, batch.labels);
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
    stats.tau = 0.0;  // Proxyless does not anneal a temperature
    stats.lambda = config_.lambda;
    stats.derived = derive();
    stats.predicted_cost = predictor_->predict(stats.derived);
    stats.lambdas = {config_.lambda};
    stats.predicted_costs = {stats.predicted_cost};
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
  result.final_costs = {result.final_predicted_cost};
  result.final_lambdas = {config_.lambda};
  return result;
}

}  // namespace lightnas::baselines
