#include "campaign/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/search_step.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"
#include "util/log.hpp"

namespace lightnas::campaign {

namespace {

[[noreturn]] void config_error(const std::string& message) {
  throw std::invalid_argument("CampaignConfig: " + message);
}

/// One target's live state inside a running campaign. Heap-allocated:
/// the Batcher holds a reference to this job's valid_rng and `lane`
/// points at the head and both streams, so addresses must be stable.
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
        valid_batches(valid_data, search.batch_size, valid_rng),
        lane(head, path_rng, valid_batches) {}

  std::size_t id;
  double target;
  JobState state = JobState::kPending;
  core::AlphaLambdaHead head;
  util::Rng path_rng;
  util::Rng valid_rng;
  nn::Batcher valid_batches;
  /// The job's epoch record: cooldown, tau floor, trace, alpha updates.
  /// Per job, since one target may diverge while the rest stay healthy.
  core::EpochHead lane;

  std::size_t rollbacks = 0;
  std::vector<core::WatchdogEvent> events;
  /// Head state at the end of the last healthy epoch — the rollback
  /// point. Campaign rollbacks are HEAD-ONLY: the shared weights have
  /// moved on (other jobs trained them), so only this job's (alpha,
  /// Adam, lambda) rewinds; the epoch is not re-run.
  std::optional<core::AlphaLambdaHead::State> last_good;

  // Convergence bookkeeping.
  std::size_t tolerance_streak = 0;
  std::size_t converged_epoch = 0;

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

  util::Rng data_rng = rng.fork();
  nn::Batcher train_batches(task_->train, search.batch_size, data_rng);
  const core::TemperatureSchedule tau_schedule(
      search.tau_initial, search.tau_final, search.epochs);
  core::EpochRunner runner{search, tau_schedule, trainer, train_batches,
                           task_->valid};

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
      jck.cooldown_scale = job->lane.cooldown_scale;
      jck.tau_floor = job->lane.tau_floor;
      jck.rollbacks = job->rollbacks;
      jck.events = job->events;
      jck.tolerance_streak = job->tolerance_streak;
      jck.converged_epoch = job->converged_epoch;
      jck.alpha_updates = job->lane.alpha_updates;
      jck.trace = job->lane.trace;
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
      job.lane.restore(jck.cooldown_scale, jck.tau_floor, jck.alpha_updates,
                       jck.trace);
      job.path_rng.set_state(jck.path_rng);
      job.valid_rng.set_state(jck.valid_rng);
      job.valid_batches.restore_state(jck.valid_batcher);
      job.rollbacks = jck.rollbacks;
      job.events = jck.events;
      job.tolerance_streak = jck.tolerance_streak;
      job.converged_epoch = jck.converged_epoch;
      // Snapshots are taken at epoch boundaries, where the in-memory
      // rollback point coincides with the live head — reconstruct it.
      job.last_good = job.head.export_state();
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
    std::vector<core::EpochHead*> heads;
    for (const std::unique_ptr<Job>& job : jobs) {
      if (!job->steps(config_.preempt_converged)) continue;
      if (job->state == JobState::kPending) job->state = JobState::kRunning;
      active.push_back(job.get());
      heads.push_back(&job->lane);
    }
    if (active.empty()) break;

    // One shared-w phase (paths round-robin over the active jobs), each
    // active head's alpha phase, and the per-job evaluation spread over
    // the scope's lanes.
    std::vector<core::SearchEpochStats> epoch_stats =
        runner.run(epoch, heads);
    result.weight_updates += search.w_steps_per_epoch;

    // ---- per-job watchdog + lifecycle (serial, id order) ----------------
    for (std::size_t i = 0; i < active.size(); ++i) {
      Job& job = *active[i];
      const std::string unhealthy =
          core::watchdog_verdict(watchdog, epoch_stats[i],
                                 job.head.alpha()->value,
                                 job.lane.best_accuracy);
      if (!unhealthy.empty()) {
        core::WatchdogEvent event{
            epoch, unhealthy,
            job.rollbacks < watchdog.max_rollbacks && job.last_good};
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
          job.lane.cool_down(watchdog.cooldown_factor,
                             tau_schedule.at(epoch));
          job.tolerance_streak = 0;
        } else {
          job.state = JobState::kDiverged;
        }
        job.events.push_back(std::move(event));
        continue;
      }

      // Healthy epoch: record, decay the tau floor, track convergence.
      job.lane.record_healthy(std::move(epoch_stats[i]), search.tau_final);
      const core::SearchEpochStats& recorded = job.lane.trace.back();
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
    const std::vector<core::SearchEpochStats>& trace = job.lane.trace;
    const std::vector<core::Constraint>& constraints =
        job.head.constraints();
    JobResult report;
    report.job_id = job.id;
    report.target = job.target;
    report.alpha_updates = job.lane.alpha_updates;
    report.rollbacks = job.rollbacks;
    report.events = job.events;
    report.trace = trace;
    report.converged_epoch = job.converged_epoch;
    result.alpha_updates += job.lane.alpha_updates;

    if (trace.empty()) {
      // Never completed a healthy epoch (interrupted before the first
      // boundary, or diverged with no rollback point): report the live
      // head. A diverged job stays diverged.
      report.state = job.state == JobState::kDiverged ? JobState::kDiverged
                                                      : JobState::kPreempted;
      report.architecture = job.head.derive();
      report.predicted_cost = predictor_->predict(report.architecture);
      report.gap =
          std::abs(report.predicted_cost - job.target) / job.target;
      report.within_tolerance = report.gap <= config_.tolerance;
      result.jobs.push_back(std::move(report));
      continue;
    }

    // Same guard as the single-target engine: the snapshot from the last
    // quarter of this job's trace closest to the target.
    const core::SearchEpochStats& chosen =
        trace[core::select_snapshot(trace, constraints, false)];
    report.architecture = chosen.derived;
    report.predicted_cost = chosen.predicted_cost;
    report.valid_accuracy = chosen.valid_accuracy;
    report.final_lambda = chosen.lambda;
    report.gap = std::abs(report.predicted_cost - job.target) / job.target;
    report.within_tolerance = report.gap <= config_.tolerance;

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
