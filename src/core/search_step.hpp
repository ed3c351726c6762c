#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
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

/// The differentiable search loop of Eq (11), written once: the
/// single-target engine (LightNas::search) runs it over one head, the
/// campaign orchestrator (src/campaign) over one head per target.
///
///  - SearchTopology: searchable-layer bookkeeping, Gumbel-Softmax path
///    sampling (Eq 7), encoding assembly for the differentiable cost
///    (Eq 9/12) and argmax derivation (Eq 4);
///  - SharedWTrainer: the supernet-weight half — one SGD+cosine step on
///    a sampled single path;
///  - AlphaLambdaHead: the per-target half — alpha, its Adam state and
///    one learned multiplier per constraint;
///  - EpochRunner / EpochHead: one epoch over a list of heads, and each
///    head's healthy-epoch and rollback-cooldown updates;
///  - watchdog_verdict / select_snapshot: the divergence check and the
///    last-quarter result selection.
///
/// Each caller keeps its RNG stream layout, rollback policy (the search
/// rewinds everything, a campaign one head) and checkpoint format.

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

/// One head's place in the epoch loop: the head and the streams it
/// draws from (all owned by the caller), and its run record.
struct EpochHead {
  EpochHead(AlphaLambdaHead& h, util::Rng& path, nn::Batcher& valid)
      : head(&h), path_rng(&path), valid_batches(&valid) {}

  AlphaLambdaHead* head;
  util::Rng* path_rng;  ///< w-phase paths and alpha-step noise
  nn::Batcher* valid_batches;

  /// Watchdog cooldown: rollbacks shrink the alpha/lambda step sizes by
  /// `cooldown_scale` and can hold tau above its schedule for a few
  /// epochs (`tau_floor` decays back towards zero on healthy epochs).
  double cooldown_scale = 1.0;
  double tau_floor = 0.0;
  double best_accuracy = 0.0;  ///< over `trace`: the collapse reference
  std::size_t alpha_updates = 0;
  std::vector<SearchEpochStats> trace;  ///< one entry per healthy epoch

  /// A healthy epoch: append to the trace, raise the best accuracy and
  /// decay the tau floor (to zero below `tau_final`).
  void record_healthy(SearchEpochStats stats, double tau_final);
  /// After a rollback: shrink the step sizes by `factor` and hold tau at
  /// least at `tau_now`, the unhealthy epoch's scheduled value.
  void cool_down(double factor, double tau_now);
  /// Reinstate a snapshot's record (resume or full rollback).
  void restore(double scale, double floor, std::size_t updates,
               std::vector<SearchEpochStats> snapshot_trace);
};

/// One epoch of Eq (11) over heads that share one supernet; every
/// member is the caller's.
struct EpochRunner {
  const LightNasConfig& config;
  const TemperatureSchedule& tau_schedule;
  SharedWTrainer& trainer;
  nn::Batcher& train_batches;
  const nn::Dataset& valid;

  /// Runs `epoch`: w-steps on paths sampled from the heads round-robin,
  /// then (after warmup) each head's alpha steps on its own validation
  /// batches, then each head's evaluation on the current
  /// ParallelContext's lanes (read-only, one slot per head, so
  /// bit-identical for any lane count). Returns stats in `heads` order.
  std::vector<SearchEpochStats> run(std::size_t epoch,
                                    const std::vector<EpochHead*>& heads);
};

/// The divergence watchdog on one head's epoch: empty when healthy (or
/// disabled), else the reason. In order: validation loss, alpha, per
/// constraint the multiplier and the predicted cost, then accuracy
/// collapse relative to `best_accuracy`.
std::string watchdog_verdict(const WatchdogConfig& watchdog,
                             const SearchEpochStats& stats,
                             const nn::Tensor& alpha, double best_accuracy);

/// The `select_best_from_trace` guard over a non-empty trace: the index
/// of the snapshot in the last quarter (at least the last entry) whose
/// worst relative gap |COST_c - T_c| / T_c is smallest. A tie with the
/// last snapshot keeps it, other ties go to the earliest; after an abort
/// the last snapshot has no precedence. A snapshot with a missing or
/// non-finite cost never wins.
std::size_t select_snapshot(const std::vector<SearchEpochStats>& trace,
                            const std::vector<Constraint>& constraints,
                            bool aborted);

}  // namespace lightnas::core
