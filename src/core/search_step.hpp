#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/gumbel.hpp"
#include "core/lightnas.hpp"
#include "core/supernet.hpp"
#include "nn/autograd.hpp"
#include "nn/data.hpp"
#include "nn/optim.hpp"
#include "nn/tensor.hpp"
#include "space/architecture.hpp"
#include "space/search_space.hpp"
#include "util/rng.hpp"

namespace lightnas::core {

/// Reusable building blocks of the differentiable search loop, factored
/// out of the monolithic LightNas::search() so the single-target engine
/// and the multi-target campaign orchestrator (src/campaign) share one
/// implementation of the paper's update rules:
///
///  - SearchTopology: searchable-layer bookkeeping, Gumbel-Softmax path
///    sampling (Eq 7), encoding assembly for the differentiable cost
///    (Eq 9/12) and argmax derivation (Eq 4);
///  - SharedWTrainer: the supernet-weight half of the bi-level loop —
///    one SGD+cosine step on a sampled single path;
///  - AlphaLambdaHead: the per-target half — architecture parameters
///    alpha, their Adam state, and one learned multiplier per
///    constraint, stepped against any supernet sharing the topology.
///
/// Every method preserves the exact op order (and therefore the exact
/// floating-point trajectory) of the pre-refactor loop; the engine
/// tests' bit-identity contracts hold across this factoring.

/// One Gumbel-Softmax draw: the relaxed distribution p_hat plus the
/// argmax path it selects (fixed layers carry op 0 by construction).
struct PathSample {
  nn::VarPtr p_hat;
  std::vector<std::size_t> op_choice;
};

/// Searchable-layer bookkeeping for one search space: maps searchable
/// layers onto alpha rows and back.
class SearchTopology {
 public:
  explicit SearchTopology(const space::SearchSpace& space);

  const space::SearchSpace& space() const { return *space_; }
  std::size_t num_layers() const { return num_layers_; }
  std::size_t num_ops() const { return num_ops_; }
  std::size_t num_searchable() const { return searchable_layers_.size(); }
  const std::vector<std::size_t>& searchable_layers() const {
    return searchable_layers_;
  }

  /// Sample one path through the Gumbel-Softmax of Eq (7). The noise is
  /// applied on the logits alpha as in the cited Gumbel-Softmax paper —
  /// softmax((log P + G)/tau) == softmax((alpha + G)/tau) since the
  /// per-row log-normalizer cancels inside the softmax.
  PathSample sample_path(const nn::VarPtr& alpha, double tau,
                         util::Rng& rng) const;

  /// Derive the stand-alone architecture: strongest operator per layer
  /// (Sec 2.1), fixed layers keep their fixed op.
  space::Architecture derive(const nn::Tensor& alpha) const;

  /// Assemble the full L x K encoding Var from the searchable block,
  /// splicing in constant one-hot rows for fixed layers (their operator
  /// index is 0 by construction of the space).
  nn::VarPtr assemble_encoding(const nn::VarPtr& binarized) const;

 private:
  const space::SearchSpace* space_;
  std::size_t num_layers_;
  std::size_t num_ops_;
  std::vector<std::size_t> searchable_layers_;
};

/// The shared supernet and its weight-update machinery: SGD + momentum +
/// cosine decay over sampled single paths. In the single-target engine
/// there is one of these per run; in a campaign one instance is shared
/// by every target's head — the "shared w" of the amortized search.
class SharedWTrainer {
 public:
  /// Serializable trainer state (checkpoint support).
  struct State {
    std::vector<nn::Tensor> weights;
    std::vector<nn::Tensor> velocity;
    std::size_t step_counter = 0;
  };

  /// `total_w_steps` sizes the cosine schedule (epochs x steps/epoch of
  /// the run this trainer drives). The supernet seed is
  /// `supernet.seed ^ config.seed`, matching the original engine.
  SharedWTrainer(const SearchTopology& topology,
                 const nn::SyntheticTask& task,
                 const SupernetConfig& supernet,
                 const LightNasConfig& config, std::size_t total_w_steps);

  /// One shared-w update: cross-entropy on the sampled single path,
  /// backward, cosine-scheduled SGD step over exactly the weights the
  /// backward wrote. Expects every weight gradient to be +0 on entry
  /// (construction, step and alpha_step all leave them so) and leaves
  /// them +0 on return. Returns the training loss.
  double step(const nn::Dataset& batch,
              const std::vector<std::size_t>& op_choice);

  const SurrogateSupernet& supernet() const { return supernet_; }
  const std::vector<nn::VarPtr>& weight_parameters() const {
    return weight_params_;
  }
  std::size_t step_counter() const { return step_counter_; }

  State export_state() const;
  /// Restore a snapshot taken on a trainer over the same supernet
  /// shape; throws std::invalid_argument on mismatch.
  void restore_state(const State& state);

 private:
  SurrogateSupernet supernet_;
  std::vector<nn::VarPtr> weight_params_;
  nn::Sgd w_optimizer_;
  nn::CosineSchedule w_schedule_;
  std::size_t step_counter_ = 0;

  /// Sparse-step bookkeeping: backward's leaf list, mapped through
  /// `param_index_` and sorted, is the exact set of weights a step
  /// touched. `active_` keeps its capacity across steps.
  std::unordered_map<const nn::Var*, std::uint32_t> param_index_;
  std::vector<std::uint32_t> active_;
};

/// Per-target architecture head: the alpha matrix, its Adam optimizer,
/// and one learned multiplier per constraint. Heads are independent of
/// each other and of the supernet they are stepped against — the
/// campaign orchestrator runs K of them over one SharedWTrainer.
class AlphaLambdaHead {
 public:
  /// Serializable head state (checkpoint support).
  struct State {
    nn::Tensor alpha;
    std::vector<nn::Tensor> adam_m, adam_v;
    std::size_t adam_t = 0;
    std::vector<double> lambdas;
  };

  /// The head keeps a reference to `constraints`; the caller owns them
  /// and must keep them alive for the head's lifetime.
  AlphaLambdaHead(const SearchTopology& topology,
                  const std::vector<Constraint>& constraints,
                  const LightNasConfig& config);

  /// Gumbel-Softmax draw on this head's alpha.
  PathSample sample(double tau, util::Rng& rng) const;

  /// One alpha + lambda update (the validation-phase body of Eq 11):
  /// sampled path with GDAS gates, CE + per-constraint penalty terms,
  /// Adam step on alpha, gradient ascent on each lambda against the
  /// derived architecture's predicted cost. Gradients leaked into the
  /// supernet weights are cleared (bi-level: alpha-only update).
  /// Returns the sampled first-constraint cost (epoch telemetry).
  double alpha_step(const SurrogateSupernet& supernet,
                    const std::vector<nn::VarPtr>& weight_params,
                    const nn::Dataset& batch, double tau, util::Rng& rng);

  space::Architecture derive() const;

  const nn::VarPtr& alpha() const { return alpha_; }
  const std::vector<Constraint>& constraints() const { return *constraints_; }
  std::vector<double> lambda_values() const;

  /// Watchdog cooldown: scales the alpha and lambda step sizes relative
  /// to their configured base values.
  void set_cooldown_scale(double scale);

  State export_state() const;
  /// Restore a snapshot taken on a head over the same topology and
  /// constraint count; throws std::invalid_argument on mismatch.
  void restore_state(const State& state);

 private:
  const SearchTopology* topology_;
  const std::vector<Constraint>* constraints_;
  double alpha_lr_;
  double lambda_lr_;
  double penalty_mu_;
  nn::VarPtr alpha_;
  nn::Adam alpha_optimizer_;
  std::vector<nn::LambdaAscent> lambdas_;
};

}  // namespace lightnas::core
