#include "core/lightnas.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/search_step.hpp"
#include "nn/optim.hpp"
#include "nn/pool.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lightnas::core {

namespace {

[[noreturn]] void config_error(const std::string& message) {
  throw std::invalid_argument("LightNasConfig: " + message);
}

}  // namespace

void LightNasConfig::validate() const {
  if (epochs == 0) config_error("epochs must be > 0");
  if (warmup_epochs >= epochs) {
    config_error("warmup_epochs (" + std::to_string(warmup_epochs) +
                 ") must be < epochs (" + std::to_string(epochs) + ")");
  }
  if (w_steps_per_epoch == 0) config_error("w_steps_per_epoch must be > 0");
  if (alpha_steps_per_epoch == 0) {
    config_error("alpha_steps_per_epoch must be > 0");
  }
  if (batch_size == 0) config_error("batch_size must be > 0");
  if (!(w_lr > 0.0) || !std::isfinite(w_lr)) {
    config_error("w_lr must be a positive finite number");
  }
  if (!(alpha_lr > 0.0) || !std::isfinite(alpha_lr)) {
    config_error("alpha_lr must be a positive finite number");
  }
  if (!(lambda_lr > 0.0) || !std::isfinite(lambda_lr)) {
    config_error("lambda_lr must be a positive finite number");
  }
  if (!std::isfinite(lambda_init)) config_error("lambda_init must be finite");
  if (penalty_mu < 0.0 || !std::isfinite(penalty_mu)) {
    config_error("penalty_mu must be >= 0 and finite");
  }
  if (!(tau_final > 0.0) || !(tau_initial >= tau_final)) {
    config_error("need tau_initial >= tau_final > 0");
  }
  if (watchdog.enabled) {
    if (!(watchdog.lambda_limit > 0.0)) {
      config_error("watchdog.lambda_limit must be > 0");
    }
    if (watchdog.accuracy_collapse_frac < 0.0 ||
        watchdog.accuracy_collapse_frac >= 1.0) {
      config_error("watchdog.accuracy_collapse_frac must be in [0, 1)");
    }
    if (!(watchdog.cooldown_factor > 0.0) ||
        watchdog.cooldown_factor > 1.0) {
      config_error("watchdog.cooldown_factor must be in (0, 1]");
    }
  }
}

std::string RunHealth::summary() const {
  std::ostringstream out;
  out << "epochs=" << completed_epochs << " rollbacks=" << rollbacks;
  if (resumed) out << " resumed_from=" << resumed_from_epoch;
  if (aborted_early) out << " ABORTED_EARLY";
  if (interrupted) out << " interrupted";
  if (measurement_retries > 0 || measurements_rejected > 0) {
    out << " campaign_retries=" << measurement_retries
        << " campaign_rejected=" << measurements_rejected;
  }
  if (pool_buffer_hits + pool_buffer_misses > 0) {
    const double rate =
        static_cast<double>(pool_buffer_hits) /
        static_cast<double>(pool_buffer_hits + pool_buffer_misses);
    out << " pool{hit_rate=" << rate
        << " misses=" << pool_buffer_misses
        << " recycled_mb="
        << static_cast<double>(pool_bytes_recycled) / (1 << 20) << "}";
  }
  for (const WatchdogEvent& event : events) {
    out << " [epoch " << event.epoch << ": " << event.reason
        << (event.rolled_back ? " -> rollback" : " -> abort") << "]";
  }
  return out.str();
}

LightNas::LightNas(const space::SearchSpace& space,
                   const predictors::HardwarePredictor& predictor,
                   const nn::SyntheticTask& task,
                   const SupernetConfig& supernet,
                   const LightNasConfig& config)
    : LightNas(space, std::vector<Constraint>{{&predictor, config.target}},
               task, supernet, config) {}

LightNas::LightNas(const space::SearchSpace& space,
                   std::vector<Constraint> constraints,
                   const nn::SyntheticTask& task,
                   const SupernetConfig& supernet,
                   const LightNasConfig& config)
    : space_(&space),
      constraints_(std::move(constraints)),
      task_(&task),
      supernet_config_(supernet),
      config_(config) {
  config_.validate();
  if (constraints_.empty()) {
    throw std::invalid_argument("LightNas: need at least one constraint");
  }
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    if (constraints_[c].predictor == nullptr) {
      throw std::invalid_argument("LightNas: constraint " +
                                  std::to_string(c) +
                                  " has a null predictor");
    }
    if (!(constraints_[c].target > 0.0) ||
        !std::isfinite(constraints_[c].target)) {
      throw std::invalid_argument(
          "LightNas: constraint " + std::to_string(c) + " target " +
          std::to_string(constraints_[c].target) +
          " must be a positive finite number");
    }
  }
}

SearchResult LightNas::search() { return search(SearchHooks{}); }

SearchResult LightNas::search(const SearchHooks& hooks) {
  // Memory-reuse layer: buffers and Var nodes recycle through the
  // active TensorPool (inherited from the caller when one is installed).
  // Pure buffer recycling — the trajectory is bit-identical with pooling
  // on or off.
  nn::PooledScope pool_scope(config_.pool_tensors ? nn::PoolMode::kInherit
                                                  : nn::PoolMode::kDisabled);
  const nn::PoolStats pool_start = config_.pool_tensors
                                       ? pool_scope.pool().stats()
                                       : nn::PoolStats{};

  const std::size_t num_constraints = constraints_.size();

  // The epoch body is the one in search_step.hpp that the campaign
  // orchestrator (src/campaign) also runs, here over a single head.
  const SearchTopology topology(*space_);

  util::Rng rng(config_.seed * 0x9e3779b9ULL + 17);
  SharedWTrainer trainer(topology, *task_, supernet_config_, config_,
                         config_.epochs * config_.w_steps_per_epoch);
  AlphaLambdaHead head(topology, constraints_, config_);

  const TemperatureSchedule tau_schedule(config_.tau_initial,
                                         config_.tau_final, config_.epochs);

  util::Rng data_rng = rng.fork();
  nn::Batcher train_batches(task_->train, config_.batch_size, data_rng);
  util::Rng valid_rng = rng.fork();
  nn::Batcher valid_batches(task_->valid, config_.batch_size, valid_rng);
  EpochRunner runner{config_, tau_schedule, trainer, train_batches,
                     task_->valid};
  // The root stream doubles as the only head's path stream.
  EpochHead lane(head, rng, valid_batches);

  SearchResult result;

  // --- checkpoint capture / restore -----------------------------------
  // The same snapshot structure backs on-disk checkpoints and the
  // watchdog's in-memory rollback point, so restore is exercised on
  // healthy runs too.
  auto capture = [&](std::size_t next_epoch) {
    SearchCheckpoint ck;
    ck.seed = config_.seed;
    ck.total_epochs = config_.epochs;
    for (const Constraint& constraint : constraints_) {
      ck.targets.push_back(constraint.target);
    }
    ck.next_epoch = next_epoch;
    SharedWTrainer::State w_state = trainer.export_state();
    ck.w_step_counter = w_state.step_counter;
    ck.supernet_weights = std::move(w_state.weights);
    ck.w_velocity = std::move(w_state.velocity);
    AlphaLambdaHead::State head_state = head.export_state();
    ck.alpha = std::move(head_state.alpha);
    ck.adam_m = std::move(head_state.adam_m);
    ck.adam_v = std::move(head_state.adam_v);
    ck.adam_t = head_state.adam_t;
    ck.lambdas = std::move(head_state.lambdas);
    ck.cooldown_scale = lane.cooldown_scale;
    ck.tau_floor = lane.tau_floor;
    ck.rng = rng.state();
    ck.data_rng = data_rng.state();
    ck.valid_rng = valid_rng.state();
    ck.train_batcher = train_batches.export_state();
    ck.valid_batcher = valid_batches.export_state();
    ck.trace = lane.trace;
    ck.weight_updates = result.weight_updates;
    ck.alpha_updates = lane.alpha_updates;
    ck.health = result.health;
    return ck;
  };

  auto restore = [&](const SearchCheckpoint& ck) {
    if (ck.seed != config_.seed || ck.total_epochs != config_.epochs) {
      throw std::invalid_argument(
          "SearchCheckpoint: run fingerprint (seed/epochs) does not match "
          "this engine's configuration");
    }
    if (ck.targets.size() != num_constraints) {
      throw std::invalid_argument(
          "SearchCheckpoint: constraint count mismatch");
    }
    for (std::size_t c = 0; c < num_constraints; ++c) {
      if (ck.targets[c] != constraints_[c].target) {
        throw std::invalid_argument(
            "SearchCheckpoint: constraint target mismatch");
      }
    }
    if (!ck.alpha.same_shape(head.alpha()->value)) {
      throw std::invalid_argument(
          "SearchCheckpoint: alpha shape does not match the search space");
    }
    trainer.restore_state(
        {ck.supernet_weights, ck.w_velocity, ck.w_step_counter});
    if (ck.lambdas.size() != num_constraints) {
      throw std::invalid_argument("SearchCheckpoint: lambda count mismatch");
    }
    head.restore_state({ck.alpha, ck.adam_m, ck.adam_v, ck.adam_t,
                        ck.lambdas});
    lane.restore(ck.cooldown_scale, ck.tau_floor, ck.alpha_updates,
                 ck.trace);
    rng.set_state(ck.rng);
    data_rng.set_state(ck.data_rng);
    valid_rng.set_state(ck.valid_rng);
    train_batches.restore_state(ck.train_batcher);
    valid_batches.restore_state(ck.valid_batcher);
    result.weight_updates = ck.weight_updates;
    result.health = ck.health;
  };

  std::size_t start_epoch = 0;
  if (hooks.resume != nullptr) {
    restore(*hooks.resume);
    start_epoch = hooks.resume->next_epoch;
    result.health.resumed = true;
    result.health.resumed_from_epoch = start_epoch;
  }

  // The watchdog's in-memory rollback point: the end of the last healthy
  // epoch. Seeded from the resume snapshot when there is one.
  std::optional<SearchCheckpoint> last_good;
  if (hooks.resume != nullptr) last_good = *hooks.resume;

  std::size_t epoch = start_epoch;
  while (epoch < config_.epochs) {
    SearchEpochStats stats = std::move(runner.run(epoch, {&lane}).front());
    result.weight_updates += config_.w_steps_per_epoch;
    if (config_.log_progress) {
      util::log_info() << "epoch " << epoch << " tau=" << stats.tau
                       << " lambda=" << stats.lambda << " cost="
                       << stats.predicted_cost << " (target "
                       << constraints_.front().target << ") valid_acc="
                       << stats.valid_accuracy;
    }

    const std::string unhealthy = watchdog_verdict(
        config_.watchdog, stats, head.alpha()->value, lane.best_accuracy);
    if (!unhealthy.empty()) {
      WatchdogEvent event{epoch, unhealthy,
                          result.health.rollbacks <
                                  config_.watchdog.max_rollbacks &&
                              last_good.has_value()};
      if (config_.log_progress) {
        util::log_info() << "watchdog: " << unhealthy << " at epoch "
                         << epoch
                         << (event.rolled_back ? " -> rolling back"
                                               : " -> aborting");
      }
      if (!event.rolled_back) {
        result.health.events.push_back(std::move(event));
        result.health.aborted_early = true;
        break;
      }
      // Full rollback to the last healthy epoch, keeping the health
      // record accumulated so far, and retry with cooled-down step sizes.
      RunHealth health = result.health;
      health.events.push_back(std::move(event));
      ++health.rollbacks;
      restore(*last_good);
      result.health = std::move(health);
      lane.cool_down(config_.watchdog.cooldown_factor,
                     tau_schedule.at(epoch));
      epoch = last_good->next_epoch;
      continue;
    }

    lane.record_healthy(std::move(stats), config_.tau_final);
    ++epoch;
    result.health.completed_epochs = lane.trace.size();
    last_good = capture(epoch);

    if (hooks.on_checkpoint &&
        (epoch % std::max<std::size_t>(1, hooks.checkpoint_every) == 0 ||
         epoch == config_.epochs)) {
      hooks.on_checkpoint(*last_good);
    }
    if (hooks.should_stop && epoch < config_.epochs &&
        hooks.should_stop(epoch)) {
      result.health.interrupted = true;
      break;
    }
  }

  result.trace = std::move(lane.trace);
  result.alpha_updates = lane.alpha_updates;
  // Without an abort the live head is the last snapshot; an aborted
  // run's live alpha may be the diverged state itself, so selection
  // never returns it.
  result.architecture = head.derive();
  if (config_.select_best_from_trace && !result.trace.empty()) {
    result.architecture =
        result.trace[select_snapshot(result.trace, constraints_,
                                     result.health.aborted_early)]
            .derived;
  }
  result.health.completed_epochs = result.trace.size();
  const std::vector<double> live_lambdas = head.lambda_values();
  for (std::size_t c = 0; c < num_constraints; ++c) {
    result.final_costs.push_back(
        constraints_[c].predictor->predict(result.architecture));
    // An aborted run's live multiplier IS the diverged (possibly
    // non-finite) state; report the last healthy epoch's value instead,
    // matching the trace-sourced architecture above.
    if (result.health.aborted_early && !result.trace.empty()) {
      result.final_lambdas.push_back(result.trace.back().lambdas[c]);
    } else {
      result.final_lambdas.push_back(live_lambdas[c]);
    }
  }
  result.final_predicted_cost = result.final_costs.front();
  result.final_lambda = result.final_lambdas.front();
  if (config_.pool_tensors) {
    const nn::PoolStats used = pool_scope.pool().stats() - pool_start;
    result.health.pool_buffer_hits = used.buffer_hits;
    result.health.pool_buffer_misses = used.buffer_misses;
    result.health.pool_bytes_recycled = used.bytes_recycled;
  }
  return result;
}

}  // namespace lightnas::core
