#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/gumbel.hpp"
#include "core/supernet.hpp"
#include "nn/data.hpp"
#include "nn/parallel.hpp"
#include "nn/tensor.hpp"
#include "predictors/predictor.hpp"
#include "space/architecture.hpp"
#include "space/search_space.hpp"
#include "util/rng.hpp"

namespace lightnas::core {

/// Divergence-watchdog policy. Differentiable searches fail late and
/// loudly — non-finite losses, a runaway multiplier, or the accuracy
/// collapse of the DARTS failure mode — and a single long "search once"
/// run cannot afford to lose its budget to one bad epoch. The watchdog
/// rolls the run back to the last healthy epoch snapshot and retries
/// with cooled-down step sizes, up to a bounded budget.
struct WatchdogConfig {
  bool enabled = true;
  /// |lambda| beyond this is treated as integrator runaway. Healthy runs
  /// settle at single-digit magnitudes (Fig. 7), so the default is far
  /// outside normal operation.
  double lambda_limit = 75.0;
  /// Trigger when validation accuracy falls below this fraction of the
  /// best accuracy seen so far ...
  double accuracy_collapse_frac = 0.25;
  /// ... but only once the best accuracy is itself meaningful.
  double min_reference_accuracy = 0.30;
  /// Rollback retry budget for the whole run; when exhausted the search
  /// stops early and returns the best snapshot from the trace.
  std::size_t max_rollbacks = 3;
  /// Each rollback multiplies the alpha / lambda step sizes by this.
  double cooldown_factor = 0.5;
};

/// Hyper-parameters of one LightNAS run (Sec 4.1 "Architecture Search
/// Settings", scaled to the surrogate substrate; the paper's values are
/// noted inline).
struct LightNasConfig {
  /// The performance constraint T of Eq (10), in the predictor's unit
  /// (ms for latency, mJ for energy).
  double target = 24.0;

  std::size_t epochs = 65;          // paper: 90
  std::size_t warmup_epochs = 20;   // paper: 10 (w only, alpha frozen).
                                    // Weight-shared blocks must be trained
                                    // past the point where they beat the
                                    // identity path before alpha updates
                                    // begin, or the search collapses to
                                    // SkipConnect (the classic DARTS
                                    // failure mode).
  std::size_t w_steps_per_epoch = 48;
  std::size_t alpha_steps_per_epoch = 20;
  std::size_t batch_size = 48;      // paper: 128

  // Supernet weights w: SGD + momentum + cosine decay (paper: 0.1; our
  // surrogate blocks need a hotter schedule to mature under weight
  // sharing — see the warmup calibration test).
  double w_lr = 0.15;
  double w_momentum = 0.9;
  double w_weight_decay = 3e-5;

  // Architecture parameters alpha: Adam (paper: 1e-3 / wd 1e-3).
  double alpha_lr = 1e-3;
  double alpha_weight_decay = 1e-3;

  // Trade-off coefficient lambda: gradient ascent, initialized at zero
  // (Sec 3.4). The rate is scale-matched to the surrogate's loss
  // magnitudes; the paper uses 5e-4 against ImageNet-100 CE losses.
  double lambda_lr = 0.035;
  double lambda_init = 0.0;

  /// Augmented-Lagrangian damping: adds mu * (COST/T - 1)^2 to the alpha
  /// objective. The lambda-ascent/alpha-descent pair is a double
  /// integrator and oscillates around T; the quadratic term damps the
  /// oscillation without changing the fixed point (COST = T). Setting 0
  /// recovers Eq (10) exactly.
  double penalty_mu = 4.0;

  /// When true, the returned architecture is the derived snapshot from
  /// the last quarter of epochs whose *predicted* cost is closest to T
  /// (predictor-only, no extra measurements) instead of the very last
  /// epoch — a cheap guard against landing on an oscillation peak.
  bool select_best_from_trace = true;

  // Gumbel-Softmax temperature (Sec 3.3): 5 decaying towards zero.
  double tau_initial = 5.0;
  double tau_final = 0.1;

  std::uint64_t seed = 0;
  bool log_progress = false;

  /// Lanes for a campaign's per-job phases (today the epoch-end
  /// evaluation, one job per lane via for_rows); null is serial. A
  /// single-target search does not read it: its one head evaluates on
  /// the calling thread, and tensor kernels always run serially there.
  /// Campaign results and checkpoints are bit-identical for every lane
  /// count, so a checkpoint resumes exactly under any --threads setting.
  const nn::ParallelContext* parallel = nullptr;

  /// Recycle tensor buffers through a nn::TensorPool for the duration
  /// of the run (inheriting a caller-installed pool when one is
  /// active). Steady-state steps then take every tensor buffer from the
  /// pool; autograd nodes are plain heap objects. Pooling only changes
  /// where buffers live, never their contents: trajectories are
  /// bit-identical on vs off. To run unpooled, wrap the call in a
  /// nn::PooledScope(nn::PoolMode::kDisabled); this field is kept only
  /// for bench_e2e's search replica, which still reads it.
  bool pool_tensors = true;

  WatchdogConfig watchdog;

  /// Throws std::invalid_argument with a descriptive message when any
  /// field is out of range. Called by the LightNas constructor.
  void validate() const;
};

/// One hardware constraint: drive `predictor`'s estimate of the derived
/// architecture to `target`. The engine accepts several simultaneously
/// (e.g. latency AND energy), each with its own learned multiplier —
/// the natural extension of Eq (10) the paper's Sec 3.5 gestures at.
struct Constraint {
  const predictors::HardwarePredictor* predictor = nullptr;
  double target = 0.0;
};

/// Per-epoch search telemetry; Figure 7 is drawn from these.
struct SearchEpochStats {
  std::size_t epoch = 0;
  double tau = 0.0;
  /// Multiplier / predicted cost of the FIRST constraint (convenience
  /// mirrors for the common single-constraint case).
  double lambda = 0.0;
  double predicted_cost = 0.0;
  /// Per-constraint values, in constructor order.
  std::vector<double> lambdas;
  std::vector<double> predicted_costs;
  /// Mean predicted cost (first constraint) over the epoch's samples.
  double sampled_cost_mean = 0.0;
  double valid_loss = 0.0;
  double valid_accuracy = 0.0;
  space::Architecture derived;
};

/// One watchdog intervention, kept in the run-health record.
struct WatchdogEvent {
  std::size_t epoch = 0;
  std::string reason;
  /// True when the run was rolled back; false when the retry budget was
  /// already spent and the search aborted instead.
  bool rolled_back = false;
};

/// Run-health telemetry: what a production operator needs to judge
/// whether a finished run is trustworthy. The measurement counters
/// describe the campaign that produced the predictor (the search itself
/// performs no measurements) and are filled in by the pipeline driver.
struct RunHealth {
  std::size_t rollbacks = 0;
  std::vector<WatchdogEvent> events;
  /// Watchdog retry budget exhausted; result is best-so-far.
  bool aborted_early = false;
  /// Stopped by SearchHooks::should_stop (e.g. a simulated kill).
  bool interrupted = false;
  bool resumed = false;
  std::size_t resumed_from_epoch = 0;
  std::size_t completed_epochs = 0;
  /// Campaign-side counters (see predictors::CampaignReport).
  std::size_t measurement_retries = 0;
  std::size_t measurements_rejected = 0;
  /// Allocation telemetry of this run's TensorPool (all zero when
  /// pooling was disabled): buffer recycling counters accumulated
  /// between search() entry and exit. In a healthy steady state the
  /// miss counters stop growing after the first epochs.
  std::uint64_t pool_buffer_hits = 0;
  std::uint64_t pool_buffer_misses = 0;
  std::uint64_t pool_bytes_recycled = 0;

  std::string summary() const;
};

struct SearchResult {
  space::Architecture architecture;
  std::vector<SearchEpochStats> trace;
  double final_predicted_cost = 0.0;
  double final_lambda = 0.0;
  std::vector<double> final_costs;
  std::vector<double> final_lambdas;
  std::size_t weight_updates = 0;
  std::size_t alpha_updates = 0;
  RunHealth health;
};

/// Complete serializable snapshot of a running search: restoring it and
/// continuing reproduces the uninterrupted run bit-for-bit (same floats,
/// same RNG streams, same batch order). The same structure backs both
/// the on-disk checkpoint (io::save_checkpoint) and the watchdog's
/// in-memory rollback snapshots, so the restore path is exercised on
/// every run, not only after a crash.
struct SearchCheckpoint {
  // --- fingerprint of the run this snapshot belongs to ----------------
  std::uint64_t seed = 0;
  std::size_t total_epochs = 0;
  std::vector<double> targets;  ///< one per constraint

  // --- position ---------------------------------------------------------
  std::size_t next_epoch = 0;
  std::size_t w_step_counter = 0;

  // --- learnable state -------------------------------------------------
  nn::Tensor alpha;
  std::vector<nn::Tensor> supernet_weights;
  std::vector<nn::Tensor> w_velocity;            ///< SGD momentum buffers
  std::vector<nn::Tensor> adam_m, adam_v;        ///< Adam moments (alpha)
  std::size_t adam_t = 0;
  std::vector<double> lambdas;

  // --- watchdog / cooldown state ---------------------------------------
  double cooldown_scale = 1.0;
  double tau_floor = 0.0;

  // --- RNG and data-order state ----------------------------------------
  util::RngState rng, data_rng, valid_rng;
  nn::Batcher::State train_batcher, valid_batcher;

  // --- accumulated outputs ---------------------------------------------
  std::vector<SearchEpochStats> trace;
  std::size_t weight_updates = 0;
  std::size_t alpha_updates = 0;
  RunHealth health;
};

/// Runtime hooks for fault tolerance. The engine stays free of file I/O:
/// the caller (CLI / bench) decides where checkpoints go.
struct SearchHooks {
  /// Invoked after every `checkpoint_every`-th completed epoch (and the
  /// final one) with a full snapshot.
  std::function<void(const SearchCheckpoint&)> on_checkpoint;
  std::size_t checkpoint_every = 1;
  /// Polled after each completed epoch; returning true stops the run
  /// (health.interrupted is set) — the test harness's simulated kill.
  std::function<bool(std::size_t completed_epochs)> should_stop;
  /// Resume from this snapshot instead of starting fresh. The snapshot's
  /// fingerprint must match the engine's configuration.
  const SearchCheckpoint* resume = nullptr;
};

/// The LightNAS engine (Sec 3): single-path differentiable search with a
/// learned constraint multiplier.
///
/// One `search()` call runs the full bi-level loop of Eq (11):
///  - w minimizes the training loss on sampled single paths;
///  - alpha minimizes  L_valid + lambda * (COST(alpha)/T - 1)  through the
///    Gumbel-Softmax relaxation (Eq 7), binarization with a straight-
///    through estimator (Eq 9/12), and the differentiable predictor;
///  - lambda rises/falls by gradient ascent on the same objective, which
///    drives COST(alpha) -> T without any manual sweep — the paper's
///    "you only search once" property.
class LightNas {
 public:
  /// Single-constraint form (the paper's setting): the constraint target
  /// is `config.target`.
  LightNas(const space::SearchSpace& space,
           const predictors::HardwarePredictor& predictor,
           const nn::SyntheticTask& task, const SupernetConfig& supernet,
           const LightNasConfig& config);

  /// Multi-constraint form: each constraint carries its own target and
  /// gets an independent lambda; `config.target` is ignored.
  LightNas(const space::SearchSpace& space,
           std::vector<Constraint> constraints,
           const nn::SyntheticTask& task, const SupernetConfig& supernet,
           const LightNasConfig& config);

  SearchResult search();
  /// Fault-tolerant entry point: checkpoint emission, simulated
  /// interruption, and resume all flow through the hooks.
  SearchResult search(const SearchHooks& hooks);

  const LightNasConfig& config() const { return config_; }
  std::size_t num_constraints() const { return constraints_.size(); }

 private:
  const space::SearchSpace* space_;
  std::vector<Constraint> constraints_;
  const nn::SyntheticTask* task_;
  SupernetConfig supernet_config_;
  LightNasConfig config_;
};

}  // namespace lightnas::core
