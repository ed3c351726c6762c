#include "campaign/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/gumbel.hpp"
#include "core/search_step.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"
#include "util/log.hpp"

namespace lightnas::campaign {

namespace {

[[noreturn]] void config_error(const std::string& message) {
  throw std::invalid_argument("CampaignConfig: " + message);
}

bool tensor_finite(const nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

/// One target's live state inside a running campaign. Heap-allocated:
/// the Batcher holds a reference to this job's valid_rng, so addresses
/// must be stable.
struct Job {
  Job(std::size_t id_, double target_, const core::SearchTopology& topology,
      const std::vector<core::Constraint>& constraints,
      const core::LightNasConfig& search, const nn::Dataset& valid_data,
      util::Rng path_rng_, util::Rng valid_rng_)
      : id(id_),
        target(target_),
        head(topology, constraints, search),
        path_rng(path_rng_),
        valid_rng(valid_rng_),
        valid_batches(valid_data, search.batch_size, valid_rng) {}

  std::size_t id;
  double target;
  JobState state = JobState::kPending;
  core::AlphaLambdaHead head;
  util::Rng path_rng;
  util::Rng valid_rng;
  nn::Batcher valid_batches;

  // Watchdog / cooldown state (per job: one target may diverge while
  // the rest of the campaign stays healthy).
  double cooldown_scale = 1.0;
  double tau_floor = 0.0;
  std::size_t rollbacks = 0;
  std::vector<core::WatchdogEvent> events;
  /// Head state at the end of the last healthy epoch — the rollback
  /// point. Campaign rollbacks are HEAD-ONLY: the shared weights have
  /// moved on (other jobs trained them), so only this job's (alpha,
  /// Adam, lambda) rewinds; the epoch is not re-run.
  std::optional<core::AlphaLambdaHead::State> last_good;
  double best_accuracy = 0.0;

  // Convergence bookkeeping.
  std::size_t tolerance_streak = 0;
  std::size_t converged_epoch = 0;
  std::size_t alpha_updates = 0;
  std::vector<core::SearchEpochStats> trace;

  // Epoch-scratch: sampled-cost telemetry accumulated by alpha steps.
  double sampled_cost_sum = 0.0;
  std::size_t sampled_cost_count = 0;

  bool steps(bool preempt_converged) const {
    if (state == JobState::kPending || state == JobState::kRunning) {
      return true;
    }
    return state == JobState::kConverged && !preempt_converged;
  }
};

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kRunning:
      return "running";
    case JobState::kConverged:
      return "converged";
    case JobState::kDiverged:
      return "diverged";
    case JobState::kPreempted:
      return "preempted";
  }
  return "unknown";
}

void CampaignConfig::validate() const {
  search.validate();
  if (targets.empty()) config_error("need at least one target");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!(targets[i] > 0.0) || !std::isfinite(targets[i])) {
      config_error("target " + std::to_string(i) + " (" +
                   std::to_string(targets[i]) +
                   ") must be a positive finite number");
    }
  }
  if (!(tolerance > 0.0) || !std::isfinite(tolerance)) {
    config_error("tolerance must be a positive finite number");
  }
  if (convergence_patience == 0) {
    config_error("convergence_patience must be > 0");
  }
}

std::size_t CampaignResult::count(JobState state) const {
  std::size_t n = 0;
  for (const JobResult& job : jobs) {
    if (job.state == state) ++n;
  }
  return n;
}

CampaignOrchestrator::CampaignOrchestrator(
    const space::SearchSpace& space,
    const predictors::HardwarePredictor& predictor,
    const nn::SyntheticTask& task, const core::SupernetConfig& supernet,
    const CampaignConfig& config)
    : space_(&space),
      predictor_(&predictor),
      task_(&task),
      supernet_config_(supernet),
      config_(config) {
  config_.validate();
  job_constraints_.reserve(config_.targets.size());
  for (double target : config_.targets) {
    job_constraints_.push_back({core::Constraint{predictor_, target}});
  }
}

CampaignResult CampaignOrchestrator::run() { return run(CampaignHooks{}); }

CampaignResult CampaignOrchestrator::run(const CampaignHooks& hooks) {
  const core::LightNasConfig& search = config_.search;
  // The epoch-end evaluation spreads jobs over the scope's lanes, and
  // buffers recycle through the pool. Neither changes any value.
  const nn::ParallelScope parallel_scope(search.parallel);
  nn::PooledScope pool_scope(search.pool_tensors ? nn::PoolMode::kInherit
                                                 : nn::PoolMode::kDisabled);

  const core::SearchTopology topology(*space_);
  // Distinct stream constant from the single-target engine (…+ 17): a
  // campaign with K=1 is intentionally not RNG-aliased to a solo search.
  util::Rng rng(search.seed * 0x9e3779b9ULL + 29);
  core::SharedWTrainer trainer(topology, *task_, supernet_config_, search,
                               search.epochs * search.w_steps_per_epoch);
  const core::TemperatureSchedule tau_schedule(
      search.tau_initial, search.tau_final, search.epochs);

  util::Rng data_rng = rng.fork();
  nn::Batcher train_batches(task_->train, search.batch_size, data_rng);

  // Per-job heads, RNG streams, and validation batchers. Fork order is
  // part of the campaign's deterministic fingerprint: shared data stream
  // first, then (path, valid) per job in target order.
  std::vector<std::unique_ptr<Job>> jobs;
  jobs.reserve(num_jobs());
  for (std::size_t j = 0; j < num_jobs(); ++j) {
    util::Rng path_rng = rng.fork();
    util::Rng valid_rng = rng.fork();
    jobs.push_back(std::make_unique<Job>(
        j, config_.targets[j], topology, job_constraints_[j], search,
        task_->valid, path_rng, valid_rng));
  }

  CampaignResult result;

  auto capture = [&](std::size_t next_epoch) {
    CampaignCheckpoint ck;
    ck.seed = search.seed;
    ck.total_epochs = search.epochs;
    ck.targets = config_.targets;
    ck.next_epoch = next_epoch;
    core::SharedWTrainer::State w_state = trainer.export_state();
    ck.supernet_weights = std::move(w_state.weights);
    ck.w_velocity = std::move(w_state.velocity);
    ck.w_step_counter = w_state.step_counter;
    ck.weight_updates = result.weight_updates;
    ck.rng = rng.state();
    ck.data_rng = data_rng.state();
    ck.train_batcher = train_batches.export_state();
    ck.jobs.reserve(jobs.size());
    for (const std::unique_ptr<Job>& job : jobs) {
      JobCheckpoint jck;
      jck.state = job->state;
      core::AlphaLambdaHead::State head = job->head.export_state();
      jck.alpha = std::move(head.alpha);
      jck.adam_m = std::move(head.adam_m);
      jck.adam_v = std::move(head.adam_v);
      jck.adam_t = head.adam_t;
      jck.lambdas = std::move(head.lambdas);
      jck.path_rng = job->path_rng.state();
      jck.valid_rng = job->valid_rng.state();
      jck.valid_batcher = job->valid_batches.export_state();
      jck.cooldown_scale = job->cooldown_scale;
      jck.tau_floor = job->tau_floor;
      jck.rollbacks = job->rollbacks;
      jck.events = job->events;
      jck.tolerance_streak = job->tolerance_streak;
      jck.converged_epoch = job->converged_epoch;
      jck.alpha_updates = job->alpha_updates;
      jck.trace = job->trace;
      ck.jobs.push_back(std::move(jck));
    }
    return ck;
  };

  auto restore = [&](const CampaignCheckpoint& ck) {
    if (ck.seed != search.seed || ck.total_epochs != search.epochs) {
      throw std::invalid_argument(
          "CampaignCheckpoint: run fingerprint (seed/epochs) does not "
          "match this campaign's configuration");
    }
    if (ck.targets != config_.targets) {
      throw std::invalid_argument(
          "CampaignCheckpoint: target list does not match this campaign's "
          "configuration");
    }
    if (ck.jobs.size() != jobs.size()) {
      throw std::invalid_argument("CampaignCheckpoint: job count mismatch");
    }
    trainer.restore_state(
        {ck.supernet_weights, ck.w_velocity, ck.w_step_counter});
    result.weight_updates = ck.weight_updates;
    rng.set_state(ck.rng);
    data_rng.set_state(ck.data_rng);
    train_batches.restore_state(ck.train_batcher);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Job& job = *jobs[j];
      const JobCheckpoint& jck = ck.jobs[j];
      job.state = jck.state;
      job.head.restore_state(
          {jck.alpha, jck.adam_m, jck.adam_v, jck.adam_t, jck.lambdas});
      job.cooldown_scale = jck.cooldown_scale;
      job.tau_floor = jck.tau_floor;
      job.head.set_cooldown_scale(job.cooldown_scale);
      job.path_rng.set_state(jck.path_rng);
      job.valid_rng.set_state(jck.valid_rng);
      job.valid_batches.restore_state(jck.valid_batcher);
      job.rollbacks = jck.rollbacks;
      job.events = jck.events;
      job.tolerance_streak = jck.tolerance_streak;
      job.converged_epoch = jck.converged_epoch;
      job.alpha_updates = jck.alpha_updates;
      job.trace = jck.trace;
      // Snapshots are taken at epoch boundaries, where the in-memory
      // rollback point coincides with the live head — reconstruct it.
      job.last_good = job.head.export_state();
      job.best_accuracy = 0.0;
      for (const core::SearchEpochStats& stats : job.trace) {
        job.best_accuracy = std::max(job.best_accuracy,
                                     stats.valid_accuracy);
      }
    }
  };

  std::size_t start_epoch = 0;
  if (hooks.resume != nullptr) {
    restore(*hooks.resume);
    start_epoch = hooks.resume->next_epoch;
    result.resumed = true;
    result.resumed_from_epoch = start_epoch;
  }

  const core::WatchdogConfig& watchdog = search.watchdog;

  for (std::size_t epoch = start_epoch; epoch < search.epochs; ++epoch) {
    // The schedule: every job still stepping this epoch, in id order.
    std::vector<Job*> active;
    for (const std::unique_ptr<Job>& job : jobs) {
      if (job->steps(config_.preempt_converged)) active.push_back(job.get());
    }
    if (active.empty()) break;
    for (Job* job : active) {
      if (job->state == JobState::kPending) job->state = JobState::kRunning;
      job->sampled_cost_sum = 0.0;
      job->sampled_cost_count = 0;
    }

    // ---- shared-w phase: ONE weight update per step ---------------------
    // The path is sampled from the active jobs round-robin, so the
    // shared weights stay trained in every target's preferred region of
    // the space, at the cost of a single search's w budget.
    for (std::size_t step = 0; step < search.w_steps_per_epoch; ++step) {
      const nn::Dataset batch = train_batches.next();
      Job& driver = *active[step % active.size()];
      const double tau =
          std::max(tau_schedule.at(epoch), driver.tau_floor);
      const core::PathSample sample =
          driver.head.sample(tau, driver.path_rng);
      trainer.step(batch, sample.op_choice);
      ++result.weight_updates;
    }

    // ---- per-target alpha/lambda phase ---------------------------------
    // Heads are independent, but every alpha backward traverses the
    // shared supernet's gradient buffers, so jobs step serially in id
    // order on the calling thread.
    if (epoch >= search.warmup_epochs) {
      for (Job* job_ptr : active) {
        Job& job = *job_ptr;
        const double tau = std::max(tau_schedule.at(epoch), job.tau_floor);
        for (std::size_t step = 0; step < search.alpha_steps_per_epoch;
             ++step) {
          const nn::Dataset batch = job.valid_batches.next();
          job.sampled_cost_sum += job.head.alpha_step(
              trainer.supernet(), trainer.weight_parameters(), batch, tau,
              job.path_rng);
          ++job.sampled_cost_count;
          ++job.alpha_updates;
        }
      }
    }

    // ---- epoch-end evaluation, multiplexed across jobs ------------------
    // Read-only over the shared weights and each job's own head, one
    // output slot per job — deterministic for any thread count, and the
    // only campaign phase where job-level parallelism is free.
    std::vector<core::SearchEpochStats> epoch_stats(active.size());
    nn::ParallelContext::current().for_rows(
        active.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            Job& job = *active[i];
            core::SearchEpochStats stats;
            stats.epoch = epoch;
            stats.tau = std::max(tau_schedule.at(epoch), job.tau_floor);
            stats.derived = job.head.derive();
            stats.lambdas = job.head.lambda_values();
            stats.predicted_costs = {predictor_->predict(stats.derived)};
            stats.lambda = stats.lambdas.front();
            stats.predicted_cost = stats.predicted_costs.front();
            stats.sampled_cost_mean =
                job.sampled_cost_count > 0
                    ? job.sampled_cost_sum /
                          static_cast<double>(job.sampled_cost_count)
                    : stats.predicted_cost;
            const core::EvalResult eval = trainer.supernet().evaluate(
                task_->valid, stats.derived.ops());
            stats.valid_loss = eval.loss;
            stats.valid_accuracy = eval.accuracy;
            epoch_stats[i] = std::move(stats);
          }
        });

    // ---- per-job watchdog + lifecycle (serial, id order) ----------------
    for (std::size_t i = 0; i < active.size(); ++i) {
      Job& job = *active[i];
      core::SearchEpochStats& stats = epoch_stats[i];

      std::string unhealthy;
      if (watchdog.enabled) {
        if (!std::isfinite(stats.valid_loss)) {
          unhealthy = "non-finite validation loss";
        } else if (!tensor_finite(job.head.alpha()->value)) {
          unhealthy = "non-finite alpha";
        } else if (!std::isfinite(stats.lambda) ||
                   std::abs(stats.lambda) > watchdog.lambda_limit) {
          unhealthy =
              "runaway lambda (value " + std::to_string(stats.lambda) + ")";
        } else if (!std::isfinite(stats.predicted_cost)) {
          unhealthy = "non-finite predicted cost";
        } else if (job.best_accuracy >= watchdog.min_reference_accuracy &&
                   stats.valid_accuracy <
                       watchdog.accuracy_collapse_frac *
                           job.best_accuracy) {
          unhealthy = "accuracy collapse (" +
                      std::to_string(stats.valid_accuracy) + " vs best " +
                      std::to_string(job.best_accuracy) + ")";
        }
      }

      if (!unhealthy.empty()) {
        core::WatchdogEvent event;
        event.epoch = epoch;
        event.reason = unhealthy;
        event.rolled_back =
            job.rollbacks < watchdog.max_rollbacks && job.last_good;
        if (search.log_progress) {
          util::log_info() << "campaign job " << job.id << " (target "
                           << job.target << "): watchdog: " << unhealthy
                           << " at epoch " << epoch
                           << (event.rolled_back ? " -> head rollback"
                                                 : " -> job diverged");
        }
        if (job.last_good) job.head.restore_state(*job.last_good);
        if (event.rolled_back) {
          // Head-only rollback: this job's (alpha, Adam, lambda) rewind
          // to the last healthy epoch and retry against the LIVE shared
          // weights (which other jobs have moved on); the unhealthy
          // epoch's stats are discarded from this job's trace.
          ++job.rollbacks;
          job.cooldown_scale *= watchdog.cooldown_factor;
          job.head.set_cooldown_scale(job.cooldown_scale);
          job.tau_floor =
              std::max(job.tau_floor, tau_schedule.at(epoch));
          job.tolerance_streak = 0;
          job.events.push_back(std::move(event));
        } else {
          job.events.push_back(std::move(event));
          job.state = JobState::kDiverged;
        }
        continue;
      }

      // Healthy epoch: record, decay the tau floor, track convergence.
      job.trace.push_back(std::move(stats));
      const core::SearchEpochStats& recorded = job.trace.back();
      job.best_accuracy =
          std::max(job.best_accuracy, recorded.valid_accuracy);
      job.tau_floor *= 0.8;
      if (job.tau_floor < search.tau_final) job.tau_floor = 0.0;
      if (epoch >= search.warmup_epochs) {
        const double gap =
            std::abs(recorded.predicted_cost - job.target) / job.target;
        if (gap <= config_.tolerance) {
          ++job.tolerance_streak;
        } else {
          job.tolerance_streak = 0;
        }
        if (job.state == JobState::kRunning &&
            job.tolerance_streak >= config_.convergence_patience) {
          job.state = JobState::kConverged;
          job.converged_epoch = epoch;
          if (search.log_progress) {
            util::log_info()
                << "campaign job " << job.id << " (target " << job.target
                << ") converged at epoch " << epoch << " (cost "
                << recorded.predicted_cost << ")";
          }
        }
      }
      job.last_good = job.head.export_state();
    }

    // Absolute epoch count (solo-search semantics): a resumed campaign
    // reports the same completed_epochs as the uninterrupted run.
    result.completed_epochs = epoch + 1;
    if (search.log_progress) {
      util::log_info() << "campaign epoch " << epoch << ": " << active.size()
                       << " active job(s), " << result.weight_updates
                       << " weight updates";
    }

    const std::size_t boundary = epoch + 1;
    if (hooks.on_checkpoint &&
        (boundary % std::max<std::size_t>(1, hooks.checkpoint_every) == 0 ||
         boundary == search.epochs)) {
      hooks.on_checkpoint(capture(boundary));
    }
    if (hooks.should_stop && boundary < search.epochs &&
        hooks.should_stop(result.completed_epochs)) {
      result.interrupted = true;
      break;
    }
  }

  // ---- finalization: per-job report + Pareto front ----------------------
  util::ParetoFront front;
  for (const std::unique_ptr<Job>& job_ptr : jobs) {
    Job& job = *job_ptr;
    JobResult report;
    report.job_id = job.id;
    report.target = job.target;
    report.alpha_updates = job.alpha_updates;
    report.rollbacks = job.rollbacks;
    report.events = job.events;
    report.trace = job.trace;
    report.converged_epoch = job.converged_epoch;
    result.alpha_updates += job.alpha_updates;

    if (job.trace.empty()) {
      // Never completed a healthy epoch (interrupted before the first
      // boundary, or diverged immediately): report the live head.
      report.state = JobState::kPreempted;
      report.architecture = job.head.derive();
      report.predicted_cost = predictor_->predict(report.architecture);
      report.gap =
          std::abs(report.predicted_cost - job.target) / job.target;
      report.within_tolerance = report.gap <= config_.tolerance;
      result.jobs.push_back(std::move(report));
      continue;
    }

    // Same guard as the single-target engine: pick the derived snapshot
    // from the last quarter of this job's trace whose predicted cost is
    // closest to the target, instead of trusting the very last epoch.
    const std::size_t window_start =
        job.trace.size() -
        std::max<std::size_t>(1, job.trace.size() / 4);
    std::size_t best_idx = job.trace.size() - 1;
    double best_gap =
        std::abs(job.trace[best_idx].predicted_cost - job.target) /
        job.target;
    for (std::size_t i = window_start; i < job.trace.size(); ++i) {
      const double gap =
          std::abs(job.trace[i].predicted_cost - job.target) / job.target;
      if (gap < best_gap) {
        best_gap = gap;
        best_idx = i;
      }
    }
    const core::SearchEpochStats& chosen = job.trace[best_idx];
    report.architecture = chosen.derived;
    report.predicted_cost = chosen.predicted_cost;
    report.valid_accuracy = chosen.valid_accuracy;
    report.final_lambda = chosen.lambda;
    report.gap = best_gap;
    report.within_tolerance = best_gap <= config_.tolerance;

    // Final state: converged/diverged stick; a job still running at the
    // end of the budget either landed in tolerance (converged, just
    // without the patience streak) or was preempted by budget
    // exhaustion.
    if (job.state == JobState::kConverged ||
        job.state == JobState::kDiverged) {
      report.state = job.state;
    } else if (report.within_tolerance) {
      report.state = JobState::kConverged;
      report.converged_epoch = chosen.epoch;
    } else {
      report.state = JobState::kPreempted;
    }

    front.insert({report.predicted_cost, report.valid_accuracy,
                  std::to_string(job.id)});
    result.jobs.push_back(std::move(report));
  }

  result.front = front.points();
  for (const util::ParetoPoint& point : result.front) {
    result.jobs[std::stoul(point.tag)].on_front = true;
  }
  return result;
}

}  // namespace lightnas::campaign
