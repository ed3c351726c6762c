#include "eval/standalone.hpp"

#include <algorithm>
#include <cassert>

#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace lightnas::eval {

StandaloneResult train_standalone(const space::SearchSpace& space,
                                  const space::Architecture& arch,
                                  const nn::SyntheticTask& task,
                                  const core::SupernetConfig& blocks,
                                  const StandaloneConfig& config) {
  assert(arch.num_layers() == space.num_layers());

  core::SupernetConfig block_config = blocks;
  block_config.seed ^= config.seed * 0x1000193ULL;
  const std::size_t num_classes =
      1 + *std::max_element(task.train.labels.begin(),
                            task.train.labels.end());
  // The supernet container doubles as the stand-alone network: we simply
  // always execute the same (fixed) path. Unused candidate blocks stay
  // untouched (their gradients are never populated).
  core::SurrogateSupernet net(space, task.train.feature_dim(), num_classes,
                              block_config);

  nn::Sgd optimizer(net.weight_parameters(), config.lr, config.momentum,
                    config.weight_decay, /*clip_norm=*/5.0);
  const std::size_t total_steps = config.epochs * config.steps_per_epoch;
  const auto warmup_steps = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(total_steps));
  const nn::CosineSchedule schedule(config.lr, total_steps, warmup_steps,
                                    config.lr * 0.2);

  util::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 5);
  nn::Batcher batches(task.train, config.batch_size, rng);

  const std::vector<std::size_t> path = arch.ops();
  StandaloneResult result;
  std::size_t step_counter = 0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (std::size_t step = 0; step < config.steps_per_epoch; ++step) {
      const nn::Dataset batch = batches.next();
      optimizer.zero_grad();
      const nn::VarPtr logits =
          net.forward_single_path(batch.features, path);
      const nn::VarPtr loss =
          nn::ops::softmax_cross_entropy(logits, batch.labels);
      nn::backward(loss);
      optimizer.set_lr(schedule.lr_at(step_counter++));
      optimizer.step();
      epoch_loss += static_cast<double>(loss->value.item());
    }
    result.train_loss =
        epoch_loss / static_cast<double>(config.steps_per_epoch);
  }

  const core::EvalResult eval = net.evaluate(task.valid, path);
  result.valid_loss = eval.loss;
  result.valid_accuracy = eval.accuracy;
  return result;
}

}  // namespace lightnas::eval
