#include "baselines/rl_search.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace lightnas::baselines {

RlSearchResult rl_search(const space::SearchSpace& space,
                         const predictors::CostOracle& cost,
                         const ScoreFn& score,
                         const RlSearchConfig& config) {
  assert(config.iterations > 0 && config.batch > 0);
  util::Rng rng(config.seed * 0xbb67ae8584caa73bULL + 11);

  const std::size_t num_layers = space.num_layers();
  const std::size_t num_ops = space.num_ops();

  // Factorized policy: independent per-layer logits.
  std::vector<std::vector<double>> logits(
      num_layers, std::vector<double>(num_ops, 0.0));

  auto sample_arch = [&](std::vector<std::vector<double>>& probs_out) {
    std::vector<std::size_t> ops(num_layers, 0);
    probs_out.assign(num_layers, {});
    for (std::size_t l = 0; l < num_layers; ++l) {
      if (!space.layers()[l].searchable) continue;
      std::vector<double> probs(num_ops);
      double mx = logits[l][0];
      for (double v : logits[l]) mx = std::max(mx, v);
      double total = 0.0;
      for (std::size_t k = 0; k < num_ops; ++k) {
        probs[k] = std::exp(logits[l][k] - mx);
        total += probs[k];
      }
      for (double& p : probs) p /= total;
      ops[l] = rng.categorical(probs);
      probs_out[l] = std::move(probs);
    }
    return space::Architecture(ops);
  };

  auto reward_of = [&](const space::Architecture& arch, double s) {
    const double lat = cost.predict(arch);
    // MnasNet hard-constraint reward: full score when under target,
    // sharply discounted when over.
    if (lat <= config.target) return s;
    return s * std::pow(lat / config.target, config.latency_exponent);
  };

  RlSearchResult result;
  double baseline = 0.0;
  bool baseline_initialized = false;

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    double reward_sum = 0.0;
    for (std::size_t b = 0; b < config.batch; ++b) {
      std::vector<std::vector<double>> probs;
      const space::Architecture arch = sample_arch(probs);
      const double s = score(arch);
      ++result.num_evaluated;
      const double reward = reward_of(arch, s);
      reward_sum += reward;

      if (!result.best_score || reward > result.best_score) {
        const double lat = cost.predict(arch);
        if (lat <= config.target) {
          result.best = arch;
          result.best_score = reward;
        }
      }

      if (!baseline_initialized) {
        baseline = reward;
        baseline_initialized = true;
      }
      const double advantage = reward - baseline;

      // REINFORCE: d log pi / d logit[l][k] = 1{k == a_l} - probs[l][k].
      for (std::size_t l = 0; l < num_layers; ++l) {
        if (!space.layers()[l].searchable) continue;
        for (std::size_t k = 0; k < num_ops; ++k) {
          const double indicator = (arch.op_at(l) == k) ? 1.0 : 0.0;
          logits[l][k] += config.policy_lr * advantage *
                          (indicator - probs[l][k]);
        }
      }
      baseline = config.baseline_momentum * baseline +
                 (1.0 - config.baseline_momentum) * reward;
    }
    result.mean_reward_per_iteration.push_back(
        reward_sum / static_cast<double>(config.batch));
  }

  // If no feasible architecture was ever sampled, fall back to the
  // policy's greedy arch (callers should check predicted cost).
  if (result.best.num_layers() == 0) {
    std::vector<std::size_t> ops(num_layers, 0);
    for (std::size_t l = 0; l < num_layers; ++l) {
      if (!space.layers()[l].searchable) continue;
      std::size_t best_k = 0;
      for (std::size_t k = 1; k < num_ops; ++k) {
        if (logits[l][k] > logits[l][best_k]) best_k = k;
      }
      ops[l] = best_k;
    }
    result.best = space::Architecture(ops);
    result.best_score = score(result.best);
  }
  return result;
}

}  // namespace lightnas::baselines
