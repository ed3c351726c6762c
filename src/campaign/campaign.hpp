#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/lightnas.hpp"
#include "core/supernet.hpp"
#include "nn/data.hpp"
#include "predictors/predictor.hpp"
#include "space/architecture.hpp"
#include "space/search_space.hpp"
#include "util/pareto.hpp"
#include "util/rng.hpp"

namespace lightnas::campaign {

/// Multi-target search campaign: amortize "you only search once" across
/// K constraint targets.
///
/// The paper's engine (core::LightNas) finds one architecture for one
/// target T at the cost of a full supernet training run. A deployment
/// fleet needs architectures for many targets, and running K independent
/// searches repeats the expensive part — supernet weight training — K
/// times, even though w is target-agnostic (the target only enters
/// through the lambda penalty on alpha). The orchestrator exploits that
/// separation: ONE shared supernet/weight-trainer serves K per-target
/// (alpha, lambda) heads. Each w-step trains the shared weights on a
/// path sampled from one head (round-robin over the active jobs, so
/// every target's preferred region of the space stays trained); each
/// alpha-step touches only that job's head. Total cost is
/// ~1x weight training + K x head training instead of K x both.

/// Lifecycle of one target's job inside a campaign.
enum class JobState {
  /// Created, not yet stepped (campaign not started or resumed early).
  kPending,
  /// Actively stepping its head each epoch.
  kRunning,
  /// Reached its target within tolerance for `convergence_patience`
  /// consecutive epochs (or ended within tolerance); stops consuming
  /// alpha steps when `preempt_converged` is set.
  kConverged,
  /// The per-job watchdog exhausted its rollback budget; the job is
  /// frozen at its last healthy head state (a job that diverged before
  /// any healthy epoch has none and reports its live head).
  kDiverged,
  /// Removed from the schedule before converging: either the campaign
  /// was interrupted / ran out of epochs, or a converged job was
  /// preempted mid-streak. Its best-from-trace result is still reported.
  kPreempted,
};

const char* to_string(JobState state);

struct CampaignConfig {
  /// One job per entry, in the cost unit of the predictor (ms / mJ).
  std::vector<double> targets;

  /// Shared search hyper-parameters (epochs, step counts, learning
  /// rates, watchdog, parallel context...). `search.target` is ignored —
  /// `targets` drives the jobs.
  core::LightNasConfig search;

  /// Relative tolerance of the per-target report: a job lands when
  /// |COST - T| / T <= tolerance. The repo's integration envelope for a
  /// single search is ~8-15%, so 10% is the production default.
  double tolerance = 0.10;

  /// Consecutive within-tolerance epochs (after warmup) before a job is
  /// declared converged.
  std::size_t convergence_patience = 3;

  /// Stop stepping converged jobs (their heads freeze; the shared
  /// weights keep training for the rest). The main cost lever: late in
  /// a campaign most jobs are done and their alpha steps are pure waste.
  bool preempt_converged = true;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

/// Final report for one target.
struct JobResult {
  std::size_t job_id = 0;
  double target = 0.0;
  JobState state = JobState::kPending;
  space::Architecture architecture;
  /// Predicted cost of `architecture` and the relative gap |COST-T|/T.
  double predicted_cost = 0.0;
  double gap = 0.0;
  bool within_tolerance = false;
  /// Validation accuracy of the trace snapshot `architecture` came from.
  double valid_accuracy = 0.0;
  double final_lambda = 0.0;
  /// True when this job's (cost, accuracy) point survived the dominance
  /// filter.
  bool on_front = false;
  /// Epoch at which the convergence streak completed (meaningful for
  /// kConverged only).
  std::size_t converged_epoch = 0;
  std::size_t alpha_updates = 0;
  std::size_t rollbacks = 0;
  std::vector<core::WatchdogEvent> events;
  std::vector<core::SearchEpochStats> trace;
};

struct CampaignResult {
  std::vector<JobResult> jobs;
  /// Non-dominated (cost, accuracy) subset of the jobs' results,
  /// ascending cost; tags carry the source job's target.
  std::vector<util::ParetoPoint> front;
  /// Shared weight updates across the whole campaign (the amortized
  /// part) and the sum of per-job alpha updates.
  std::size_t weight_updates = 0;
  std::size_t alpha_updates = 0;
  std::size_t completed_epochs = 0;
  bool interrupted = false;
  bool resumed = false;
  std::size_t resumed_from_epoch = 0;

  /// Total optimizer updates — the deterministic cost metric the
  /// campaign_pareto gate compares against K independent searches.
  std::size_t total_updates() const { return weight_updates + alpha_updates; }
  /// Count of jobs in the given state.
  std::size_t count(JobState state) const;
};

/// Serializable snapshot of one job inside a campaign checkpoint.
struct JobCheckpoint {
  JobState state = JobState::kPending;
  // Head state (mirrors core::AlphaLambdaHead::State).
  nn::Tensor alpha;
  std::vector<nn::Tensor> adam_m, adam_v;
  std::size_t adam_t = 0;
  std::vector<double> lambdas;
  // Job-local RNG / data-order state.
  util::RngState path_rng, valid_rng;
  nn::Batcher::State valid_batcher;
  // Watchdog / cooldown state.
  double cooldown_scale = 1.0;
  double tau_floor = 0.0;
  std::size_t rollbacks = 0;
  std::vector<core::WatchdogEvent> events;
  // Convergence bookkeeping.
  std::size_t tolerance_streak = 0;
  std::size_t converged_epoch = 0;
  std::size_t alpha_updates = 0;
  std::vector<core::SearchEpochStats> trace;
};

/// Complete serializable snapshot of a running campaign: restoring it
/// and continuing reproduces the uninterrupted campaign bit-for-bit
/// (same floats, same RNG streams, same batch order, same schedule
/// decisions). Snapshots are taken at epoch boundaries only, which is
/// also each job's watchdog rollback point — so a resumed campaign
/// reconstructs every job's in-memory rollback state exactly.
struct CampaignCheckpoint {
  // --- fingerprint ------------------------------------------------------
  std::uint64_t seed = 0;
  std::size_t total_epochs = 0;
  std::vector<double> targets;

  // --- position ---------------------------------------------------------
  std::size_t next_epoch = 0;

  // --- shared trainer state --------------------------------------------
  std::vector<nn::Tensor> supernet_weights;
  std::vector<nn::Tensor> w_velocity;
  std::size_t w_step_counter = 0;
  std::size_t weight_updates = 0;

  // --- shared RNG / data-order state -----------------------------------
  util::RngState rng, data_rng;
  nn::Batcher::State train_batcher;

  // --- per-job state ----------------------------------------------------
  std::vector<JobCheckpoint> jobs;
};

/// Runtime hooks, mirroring core::SearchHooks: the orchestrator stays
/// free of file I/O; the caller decides where checkpoints go.
struct CampaignHooks {
  std::function<void(const CampaignCheckpoint&)> on_checkpoint;
  std::size_t checkpoint_every = 1;
  /// Polled after each completed epoch; returning true interrupts the
  /// campaign (still-running jobs finalize as kPreempted).
  std::function<bool(std::size_t completed_epochs)> should_stop;
  const CampaignCheckpoint* resume = nullptr;
};

/// The campaign orchestrator. One instance = one campaign over one
/// search space / predictor / task; `run()` may be called repeatedly
/// (each call is an independent, deterministic campaign).
class CampaignOrchestrator {
 public:
  /// All jobs constrain the same predictor (one target each) — the
  /// paper's single-constraint setting, K times.
  CampaignOrchestrator(const space::SearchSpace& space,
                       const predictors::HardwarePredictor& predictor,
                       const nn::SyntheticTask& task,
                       const core::SupernetConfig& supernet,
                       const CampaignConfig& config);

  CampaignResult run();
  CampaignResult run(const CampaignHooks& hooks);

  const CampaignConfig& config() const { return config_; }
  std::size_t num_jobs() const { return config_.targets.size(); }

 private:
  const space::SearchSpace* space_;
  const predictors::HardwarePredictor* predictor_;
  const nn::SyntheticTask* task_;
  core::SupernetConfig supernet_config_;
  CampaignConfig config_;
  /// Per-job single-entry constraint vectors; heads keep references
  /// into these, so the storage is stable for the orchestrator's life.
  std::vector<std::vector<core::Constraint>> job_constraints_;
};

}  // namespace lightnas::campaign
