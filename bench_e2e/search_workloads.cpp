// search_paper and campaign_k8: the paper's search loop and the K-target
// campaign, closed loop (a fixed number of runs, one after another), timed
// from outside the engine through its public hooks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "campaign/campaign.hpp"
#include "campaign/serialize.hpp"
#include "core/gumbel.hpp"
#include "core/lightnas.hpp"
#include "core/search_step.hpp"
#include "e2e.hpp"
#include "nn/ops.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"

namespace lightnas::e2e {

namespace {

constexpr double kSearchTarget = 24.0;
const std::vector<double> kCampaignTargets = {18, 20, 22, 24, 26, 28, 30, 32};
constexpr std::size_t kCheckpointEvery = 5;
/// Timed runs per measured invocation, on seeds S, S+1, ...: fixed, so
/// that a parent and a change always time the same work. (A traced or
/// smoke invocation times seed S only.)
constexpr std::size_t kSearchRuns = 2;
constexpr std::size_t kCampaignRuns = 1;
/// Sanity bounds on a returned result. The search aims at |LAT-T|/T of a
/// few percent; these only catch a broken search, not a weak one.
constexpr double kMaxLatGap = 0.5;
constexpr double kMinValidAccuracy = 0.15;

/// LightNasConfig defaults are the workload (65 epochs, 20 warm-up, 48
/// w-steps and 20 alpha-steps per epoch, batch 48); smoke shrinks them.
core::LightNasConfig search_config(std::uint64_t seed, bool smoke) {
  core::LightNasConfig config;
  config.seed = seed;
  config.target = kSearchTarget;
  if (smoke) {
    config.epochs = 4;
    config.warmup_epochs = 2;
    config.w_steps_per_epoch = 6;
    config.alpha_steps_per_epoch = 3;
    config.batch_size = 16;
  }
  return config;
}

std::string seed_key(const char* workload, bool smoke, std::uint64_t seed) {
  return std::string(workload) + (smoke ? "/smoke/seed=" : "/full/seed=") +
         std::to_string(seed);
}

/// Per-epoch wall time, stamped from the engine's end-of-epoch hooks.
class EpochClock {
 public:
  void start() { last_ = Clock::now(); }
  void stamp() {
    const Clock::time_point now = Clock::now();
    if (trace::enabled()) trace::record("epoch", last_, now);
    epochs_ms_.push_back(1e3 * seconds_between(last_, now));
    last_ = now;
  }
  const std::vector<double>& epochs_ms() const { return epochs_ms_; }

 private:
  Clock::time_point last_;
  std::vector<double> epochs_ms_;
};

std::size_t timed_runs(const RunOptions& options, std::size_t measured) {
  return options.smoke || options.traced ? 1 : measured;
}

/// Per-epoch cost in ms per optimizer update, over the epochs after the
/// warm-up: each runs the shared w-steps plus the alpha-steps of every
/// head that stepped (`heads[e]`). Warm-up epochs are left out because
/// their per-update cost differs (every head's eval, no alpha-steps), and
/// how many epochs follow them depends on the seed when campaign jobs
/// converge early; mixing the two would make the median a function of the
/// seed.
std::vector<double> epoch_update_ms(const core::LightNasConfig& config,
                                    const std::vector<double>& epochs_ms,
                                    const std::vector<std::size_t>& heads) {
  std::vector<double> out;
  for (std::size_t e = config.warmup_epochs;
       e < epochs_ms.size() && e < heads.size(); ++e) {
    if (heads[e] == 0) continue;
    const std::size_t updates =
        config.w_steps_per_epoch + config.alpha_steps_per_epoch * heads[e];
    out.push_back(epochs_ms[e] / static_cast<double>(updates));
  }
  return out;
}

/// What a closed-loop search workload accumulates over its runs, and the
/// end-to-end metrics it reports from them. The quality metrics describe
/// the first run (seed S), so a traced or smoke invocation, which runs
/// seed S alone, reports the same ones.
struct LoopTotals {
  std::vector<double> run_s, epochs_ms, epoch_update_ms;
  std::optional<double> first_gap, first_accuracy;
  std::size_t failed = 0;

  void add_run(double wall_s, const std::vector<double>& epoch_ms,
               const std::vector<double>& per_update_ms) {
    run_s.push_back(wall_s);
    epochs_ms.insert(epochs_ms.end(), epoch_ms.begin(), epoch_ms.end());
    epoch_update_ms.insert(epoch_update_ms.end(), per_update_ms.begin(),
                           per_update_ms.end());
  }

  void report_to(Report& report) const {
    report.attempts(run_s.size(), failed);
    report.metric("run_s", "s", quantile(run_s, 0.5), run_s.size());
    report.metric("epoch_ms_p50", "ms", quantile(epochs_ms, 0.5),
                  epochs_ms.size());
    report.metric("epoch_ms_p95", "ms", quantile(epochs_ms, 0.95),
                  epochs_ms.size());
    report.metric("update_ms_p50", "ms", quantile(epoch_update_ms, 0.5),
                  epoch_update_ms.size());
    report.metric("lat_gap_pct", "%",
                  first_gap ? std::optional<double>(100.0 * *first_gap)
                            : std::nullopt);
    report.metric("valid_acc", "fraction", first_accuracy);
  }
};

/// Decorator that puts a span around every predictor call the engine
/// makes. Forwards unchanged, so results are bit-identical.
class TracedPredictor final : public predictors::HardwarePredictor {
 public:
  explicit TracedPredictor(const predictors::HardwarePredictor& inner)
      : inner_(inner) {}

  double predict(const space::Architecture& arch) const override {
    const trace::ScopedSpan span("predictors.predict");
    return inner_.predict(arch);
  }
  std::vector<double> predict_batch(
      const std::vector<space::Architecture>& archs) const override {
    const trace::ScopedSpan span("predictors.predict_batch");
    return inner_.predict_batch(archs);
  }
  nn::VarPtr forward_var(const nn::VarPtr& encoding) const override {
    const trace::ScopedSpan span("predictors.forward_var");
    return inner_.forward_var(encoding);
  }
  std::string unit() const override { return inner_.unit(); }

 private:
  const predictors::HardwarePredictor& inner_;
};

void add_trace(Fingerprint& f,
               const std::vector<core::SearchEpochStats>& trace) {
  f.add_u64(trace.size());
  for (const core::SearchEpochStats& s : trace) {
    f.add_u64(s.epoch);
    f.add_double(s.tau);
    f.add_doubles(s.lambdas);
    f.add_doubles(s.predicted_costs);
    f.add_double(s.sampled_cost_mean);
    f.add_double(s.valid_loss);
    f.add_double(s.valid_accuracy);
    f.add_ops(s.derived.ops());
  }
}

/// Hash of a search result: derived architecture, final alpha/lambda
/// bits, update counts and the whole epoch trace.
std::uint64_t search_fingerprint(const core::SearchResult& result,
                                 const nn::Tensor& final_alpha) {
  Fingerprint f;
  f.add_ops(result.architecture.ops());
  f.add_tensor(final_alpha);
  f.add_doubles(result.final_lambdas);
  f.add_doubles(result.final_costs);
  f.add_u64(result.weight_updates);
  f.add_u64(result.alpha_updates);
  add_trace(f, result.trace);
  return f.value();
}

/// Validation accuracy of the returned architecture: the trace snapshot
/// it was selected from (latest match).
double result_accuracy(const core::SearchResult& result) {
  for (auto it = result.trace.rbegin(); it != result.trace.rend(); ++it) {
    if (it->derived == result.architecture) return it->valid_accuracy;
  }
  return result.trace.empty() ? 0.0 : result.trace.back().valid_accuracy;
}

struct SearchRun {
  core::SearchResult result;
  nn::Tensor final_alpha;
  double wall_s = 0.0;
  std::vector<double> epochs_ms;
  std::uint64_t fingerprint = 0;
};

/// One LightNas::search, timed from outside: wall clock around the call,
/// epoch boundaries from the hooks, final alpha from the last snapshot.
SearchRun timed_search(const Setup& setup,
                       const predictors::HardwarePredictor& predictor,
                       const core::LightNasConfig& config) {
  SearchRun run;
  EpochClock clock;
  core::SearchHooks hooks;
  hooks.checkpoint_every = config.epochs;  // only the final snapshot
  hooks.on_checkpoint = [&](const core::SearchCheckpoint& ck) {
    clock.stamp();
    run.final_alpha = ck.alpha;
  };
  hooks.should_stop = [&](std::size_t) {
    clock.stamp();
    return false;
  };
  const Clock::time_point start = Clock::now();
  clock.start();
  core::LightNas engine(setup.space, predictor, setup.task,
                        core::SupernetConfig{}, config);
  run.result = engine.search(hooks);
  run.wall_s = seconds_since(start);
  run.epochs_ms = clock.epochs_ms();
  run.fingerprint = search_fingerprint(run.result, run.final_alpha);
  return run;
}

/// The traced stand-in for LightNas::search: the same epoch loop rebuilt
/// from the public pieces in core/search_step.hpp (same RNG forks,
/// Batchers, temperature schedule, pool and parallel scopes, per-epoch
/// rollback snapshot), with a span around each phase. It reproduces the
/// engine bit for bit as long as the divergence watchdog never fires;
/// when it would, the replica stops and reports itself unusable. Remove
/// it once the engine records these spans itself.
struct Replica {
  core::SearchResult result;
  nn::Tensor final_alpha;
  bool usable = true;
  std::string why;
};

Replica replicate_search(const Setup& setup,
                         const predictors::HardwarePredictor& predictor,
                         const core::LightNasConfig& config) {
  const trace::ScopedSpan run_span("core.search");
  Replica out;
  core::SearchResult& result = out.result;
  const nn::ParallelScope parallel_scope(config.parallel);
  const nn::PooledScope pool_scope(config.pool_tensors
                                       ? nn::PoolMode::kInherit
                                       : nn::PoolMode::kDisabled);

  const std::vector<core::Constraint> constraints{{&predictor, config.target}};
  const core::SearchTopology topology(setup.space);
  util::Rng rng(config.seed * 0x9e3779b9ULL + 17);
  core::SharedWTrainer trainer(topology, setup.task, core::SupernetConfig{},
                               config,
                               config.epochs * config.w_steps_per_epoch);
  core::AlphaLambdaHead head(topology, constraints, config);
  const core::TemperatureSchedule tau_schedule(config.tau_initial,
                                               config.tau_final, config.epochs);
  util::Rng data_rng = rng.fork();
  nn::Batcher train_batches(setup.task.train, config.batch_size, data_rng);
  util::Rng valid_rng = rng.fork();
  nn::Batcher valid_batches(setup.task.valid, config.batch_size, valid_rng);

  const auto next_batch = [](nn::Batcher& batcher) {
    const trace::ScopedSpan span("core.batch");
    return batcher.next();
  };

  double best_accuracy = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const trace::ScopedSpan epoch_span("epoch");
    // Without rollbacks the engine's tau floor stays 0.
    const double tau = tau_schedule.at(epoch);
    double sampled_cost_sum = 0.0;
    std::size_t sampled_cost_count = 0;

    for (std::size_t step = 0; step < config.w_steps_per_epoch; ++step) {
      const nn::Dataset batch = next_batch(train_batches);
      const core::PathSample sample = [&] {
        const trace::ScopedSpan span("core.sample");
        return head.sample(tau, rng);
      }();
      {
        const trace::ScopedSpan span("core.w_step");
        trainer.step(batch, sample.op_choice);
      }
      ++result.weight_updates;
    }

    if (epoch >= config.warmup_epochs) {
      for (std::size_t step = 0; step < config.alpha_steps_per_epoch; ++step) {
        const nn::Dataset batch = next_batch(valid_batches);
        const trace::ScopedSpan span("core.alpha_step");
        sampled_cost_sum += head.alpha_step(
            trainer.supernet(), trainer.weight_parameters(), batch, tau, rng);
        ++sampled_cost_count;
        ++result.alpha_updates;
      }
    }

    core::SearchEpochStats stats;
    {
      const trace::ScopedSpan span("core.eval");
      stats.epoch = epoch;
      stats.tau = tau;
      stats.derived = head.derive();
      stats.lambdas = head.lambda_values();
      stats.predicted_costs.push_back(predictor.predict(stats.derived));
      stats.lambda = stats.lambdas.front();
      stats.predicted_cost = stats.predicted_costs.front();
      stats.sampled_cost_mean =
          sampled_cost_count > 0
              ? sampled_cost_sum / static_cast<double>(sampled_cost_count)
              : stats.predicted_cost;
      const nn::VarPtr logits = trainer.supernet().forward_single_path(
          setup.task.valid.features, stats.derived.ops());
      const nn::VarPtr loss =
          nn::ops::softmax_cross_entropy(logits, setup.task.valid.labels);
      stats.valid_loss = static_cast<double>(loss->value.item());
      stats.valid_accuracy =
          nn::ops::accuracy(logits->value, setup.task.valid.labels);
    }

    // Any condition under which the engine's watchdog would roll back.
    const core::WatchdogConfig& watchdog = config.watchdog;
    bool alpha_finite = true;
    for (std::size_t i = 0; i < head.alpha()->value.size(); ++i) {
      alpha_finite = alpha_finite && std::isfinite(head.alpha()->value[i]);
    }
    if (watchdog.enabled &&
        (!std::isfinite(stats.valid_loss) || !alpha_finite ||
         !std::isfinite(stats.lambda) ||
         std::abs(stats.lambda) > watchdog.lambda_limit ||
         !std::isfinite(stats.predicted_cost) ||
         (best_accuracy >= watchdog.min_reference_accuracy &&
          stats.valid_accuracy <
              watchdog.accuracy_collapse_frac * best_accuracy))) {
      out.usable = false;
      out.why = "the engine's watchdog fires at epoch " + std::to_string(epoch);
      return out;
    }
    result.trace.push_back(std::move(stats));
    best_accuracy = std::max(best_accuracy, result.trace.back().valid_accuracy);

    {
      // The engine snapshots the whole run after every epoch (its
      // watchdog rollback point); replicate that copy so its cost shows.
      const trace::ScopedSpan span("core.snapshot");
      core::SearchCheckpoint ck;
      core::SharedWTrainer::State w_state = trainer.export_state();
      ck.supernet_weights = std::move(w_state.weights);
      ck.w_velocity = std::move(w_state.velocity);
      core::AlphaLambdaHead::State head_state = head.export_state();
      ck.alpha = std::move(head_state.alpha);
      ck.adam_m = std::move(head_state.adam_m);
      ck.adam_v = std::move(head_state.adam_v);
      ck.train_batcher = train_batches.export_state();
      ck.valid_batcher = valid_batches.export_state();
      ck.trace = result.trace;
    }
  }

  // Result selection, as in LightNas::search.
  const auto gap_of = [&](double cost) {
    return std::abs(cost - config.target) / config.target;
  };
  result.architecture = head.derive();
  if (config.select_best_from_trace && !result.trace.empty()) {
    const std::size_t window_start =
        result.trace.size() -
        std::max<std::size_t>(1, result.trace.size() / 4);
    double best_gap = gap_of(predictor.predict(result.architecture));
    for (std::size_t i = window_start; i < result.trace.size(); ++i) {
      const double gap = gap_of(result.trace[i].predicted_costs.front());
      if (gap < best_gap) {
        best_gap = gap;
        result.architecture = result.trace[i].derived;
      }
    }
  }
  result.health.completed_epochs = result.trace.size();
  result.final_costs.push_back(predictor.predict(result.architecture));
  result.final_lambdas = head.lambda_values();
  result.final_predicted_cost = result.final_costs.front();
  result.final_lambda = result.final_lambdas.front();
  out.final_alpha = head.alpha()->value;
  return out;
}

/// Span-derived layer metrics shared by the traced workloads: p50/p99 of
/// whole-span durations and the share of `wall_s` spent in the layer's
/// own (self) time.
void span_layer(Report& report,
                const std::map<std::string, trace::SpanStats>& spans,
                const std::string& metric, const std::string& unit,
                double scale, double wall_s, bool with_p99) {
  const auto it = spans.find(metric);
  const trace::SpanStats empty;
  const trace::SpanStats& s = it == spans.end() ? empty : it->second;
  report.layer(metric + "_" + unit + ".p50", unit,
               s.count ? std::optional<double>(
                             *quantile(s.durations_s, 0.5) * scale)
                       : std::nullopt,
               s.count);
  if (with_p99) {
    report.layer(metric + "_" + unit + ".p99", unit,
                 s.count ? std::optional<double>(
                               *quantile(s.durations_s, 0.99) * scale)
                         : std::nullopt,
                 s.count);
  }
  report.layer(metric + ".count", "count", static_cast<double>(s.count));
  report.layer(metric + ".per_s", "1/s",
               s.count ? std::optional<double>(static_cast<double>(s.count) /
                                               s.total_s)
                       : std::nullopt,
               s.count);
  report.layer(metric + ".share", "fraction",
               wall_s > 0.0 ? s.self_s / wall_s : 0.0, s.count);
}

double overhead_pct(double traced_s, double untraced_s) {
  return 100.0 * (traced_s - untraced_s) / untraced_s;
}

}  // namespace

// ============================================================ search_paper

void run_search_paper(const RunOptions& options, const Setup& setup,
                      const BaselineFingerprints& baseline, Report& report) {
  const predictors::HardwarePredictor& predictor = *setup.predictor;

  {
    // Untimed warm-up: a short search through both phases.
    core::LightNasConfig warm =
        search_config(options.seed + 1000, options.smoke);
    warm.epochs = std::min<std::size_t>(warm.epochs, 4);
    warm.warmup_epochs = 2;
    core::LightNas(setup.space, predictor, setup.task, core::SupernetConfig{},
                   warm)
        .search();
  }

  LoopTotals totals;
  const std::uint64_t end_seed =
      options.seed + timed_runs(options, kSearchRuns);
  for (std::uint64_t seed = options.seed; seed < end_seed; ++seed) {
    const core::LightNasConfig config = search_config(seed, options.smoke);
    const NnCounters nn_start = nn_counters();
    const SearchRun run = timed_search(setup, predictor, config);
    // The engine's own pool and plan counters; the replica's would be the
    // same only when it reproduces the engine.
    if (options.traced) report_nn_layers(report, nn_start);
    totals.add_run(run.wall_s, run.epochs_ms,
                   epoch_update_ms(config, run.epochs_ms,
                                   std::vector<std::size_t>(
                                       run.epochs_ms.size(), 1)));
    const double gap =
        std::abs(run.result.final_predicted_cost - kSearchTarget) /
        kSearchTarget;
    const double accuracy = result_accuracy(run.result);
    if (!totals.first_gap) {
      totals.first_gap = gap;
      totals.first_accuracy = accuracy;
    }
    const std::string key = seed_key("search_paper", options.smoke, seed);
    check_fingerprint(report, baseline, key, run.fingerprint);
    const bool ok = !run.result.health.aborted_early &&
                    (options.smoke || (gap <= kMaxLatGap &&
                                       accuracy >= kMinValidAccuracy));
    if (!ok) ++totals.failed;
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "%.2f s, LAT %.3f ms (gap %.1f%%), valid_acc %.4f, %zu "
                  "rollbacks%s",
                  run.wall_s, run.result.final_predicted_cost, 100.0 * gap,
                  accuracy, run.result.health.rollbacks,
                  run.result.health.aborted_early ? ", ABORTED" : "");
    report.check("search seed=" + std::to_string(seed), ok, detail);

    if (options.traced) {
      // Same seed again through the traced replica: identity + spans.
      trace::clear();
      trace::enable(true);
      TracedPredictor traced_predictor(predictor);
      const Clock::time_point t0 = Clock::now();
      const Replica replica = replicate_search(
          setup, traced_predictor, search_config(seed, options.smoke));
      const double traced_s = seconds_since(t0);
      trace::enable(false);
      const std::uint64_t replica_print =
          replica.usable
              ? search_fingerprint(replica.result, replica.final_alpha)
              : 0;
      const bool identical = replica.usable && replica_print == run.fingerprint;
      // A replica that stops where the engine's watchdog would roll back
      // is a limit of the stand-in, not a wrong result; a replica that
      // finishes with other numbers than the engine is out of date. Either
      // way its layer numbers would describe another run, so they are
      // withheld.
      report.check("traced replica seed=" + std::to_string(seed),
                   identical || !replica.usable,
                   replica.usable
                       ? "replica " + hex64(replica_print) + " vs engine " +
                             hex64(run.fingerprint)
                       : replica.why + "; layer numbers withheld");
      if (identical) {
        const auto spans = trace::fold();
        span_layer(report, spans, "core.w_step", "ms", 1e3, traced_s, true);
        span_layer(report, spans, "core.alpha_step", "ms", 1e3, traced_s,
                   true);
        span_layer(report, spans, "core.sample", "us", 1e6, traced_s, false);
        span_layer(report, spans, "core.batch", "us", 1e6, traced_s, false);
        span_layer(report, spans, "core.eval", "ms", 1e3, traced_s, false);
        span_layer(report, spans, "core.snapshot", "ms", 1e3, traced_s,
                   false);
        span_layer(report, spans, "predictors.forward_var", "us", 1e6,
                   traced_s, false);
        span_layer(report, spans, "predictors.predict", "us", 1e6, traced_s,
                   false);
        report.layer("trace_overhead_pct", "%",
                     report.measured()
                         ? std::optional<double>(
                               overhead_pct(traced_s, run.wall_s))
                         : std::nullopt);
      }
    }
  }
  totals.report_to(report);
}

// ============================================================ campaign_k8

namespace {

campaign::CampaignConfig campaign_config(std::uint64_t seed, bool smoke,
                                         const nn::ParallelContext* lanes) {
  campaign::CampaignConfig config;
  config.targets = kCampaignTargets;
  config.search = search_config(seed, smoke);
  config.search.parallel = lanes;
  return config;
}

/// Hash of everything a campaign checkpoint carries except the per-job
/// traces (those are compared against the result directly).
std::uint64_t checkpoint_fingerprint(const campaign::CampaignCheckpoint& ck) {
  Fingerprint f;
  const auto add_rng = [&](const util::RngState& s) {
    for (const std::uint64_t w : s.s) f.add_u64(w);
    f.add_u64(s.have_cached_normal);
    f.add_double(s.cached_normal);
  };
  const auto add_batcher = [&](const nn::Batcher::State& s) {
    f.add_u64(s.order.size());
    for (const std::size_t i : s.order) f.add_u64(i);
    f.add_u64(s.cursor);
  };
  f.add_u64(ck.seed);
  f.add_u64(ck.total_epochs);
  f.add_doubles(ck.targets);
  f.add_u64(ck.next_epoch);
  for (const nn::Tensor& t : ck.supernet_weights) f.add_tensor(t);
  for (const nn::Tensor& t : ck.w_velocity) f.add_tensor(t);
  f.add_u64(ck.w_step_counter);
  f.add_u64(ck.weight_updates);
  add_rng(ck.rng);
  add_rng(ck.data_rng);
  add_batcher(ck.train_batcher);
  for (const campaign::JobCheckpoint& job : ck.jobs) {
    f.add_u64(static_cast<std::uint64_t>(job.state));
    f.add_tensor(job.alpha);
    for (const nn::Tensor& t : job.adam_m) f.add_tensor(t);
    for (const nn::Tensor& t : job.adam_v) f.add_tensor(t);
    f.add_u64(job.adam_t);
    f.add_doubles(job.lambdas);
    add_rng(job.path_rng);
    add_rng(job.valid_rng);
    add_batcher(job.valid_batcher);
    f.add_double(job.cooldown_scale);
    f.add_double(job.tau_floor);
    f.add_u64(job.rollbacks);
    f.add_u64(job.tolerance_streak);
    f.add_u64(job.converged_epoch);
    f.add_u64(job.alpha_updates);
  }
  return f.value();
}

std::uint64_t campaign_fingerprint(const campaign::CampaignResult& result) {
  Fingerprint f;
  f.add_u64(result.weight_updates);
  f.add_u64(result.alpha_updates);
  f.add_u64(result.completed_epochs);
  for (const campaign::JobResult& job : result.jobs) {
    f.add_u64(job.job_id);
    f.add_double(job.target);
    f.add_u64(static_cast<std::uint64_t>(job.state));
    f.add_ops(job.architecture.ops());
    f.add_double(job.predicted_cost);
    f.add_double(job.gap);
    f.add_double(job.valid_accuracy);
    f.add_double(job.final_lambda);
    f.add_u64(job.converged_epoch);
    f.add_u64(job.alpha_updates);
    f.add_u64(job.rollbacks);
    add_trace(f, job.trace);
  }
  return f.value();
}

struct CampaignRun {
  campaign::CampaignResult result;
  double wall_s = 0.0;
  std::vector<double> epochs_ms;
  double checkpoint_mb = 0.0;
  std::size_t last_boundary = 0;
  std::uint64_t last_checkpoint = 0;
  std::uint64_t fingerprint = 0;
};

CampaignRun timed_campaign(const Setup& setup,
                           const predictors::HardwarePredictor& predictor,
                           const campaign::CampaignConfig& config,
                           const std::string& checkpoint_path, bool smoke) {
  CampaignRun run;
  EpochClock clock;
  campaign::CampaignHooks hooks;
  hooks.checkpoint_every = smoke ? 2 : kCheckpointEvery;
  hooks.on_checkpoint = [&](const campaign::CampaignCheckpoint& ck) {
    {
      const trace::ScopedSpan span("io.ckpt_save");
      campaign::save_campaign_checkpoint(checkpoint_path, ck);
    }
    run.checkpoint_mb =
        static_cast<double>(std::filesystem::file_size(checkpoint_path)) /
        (1 << 20);
    run.last_boundary = ck.next_epoch;
    run.last_checkpoint = checkpoint_fingerprint(ck);
    // should_stop does not run after the final epoch; stamp it here.
    if (ck.next_epoch == config.search.epochs) clock.stamp();
  };
  hooks.should_stop = [&](std::size_t) {
    clock.stamp();
    return false;
  };
  const Clock::time_point start = Clock::now();
  clock.start();
  campaign::CampaignOrchestrator orchestrator(
      setup.space, predictor, setup.task, core::SupernetConfig{}, config);
  run.result = orchestrator.run(hooks);
  run.wall_s = seconds_since(start);
  run.epochs_ms = clock.epochs_ms();
  run.fingerprint = campaign_fingerprint(run.result);
  return run;
}

/// Reload the final checkpoint and confirm it is exactly the state the
/// hook saw; its job traces must be a prefix of the final result's.
bool verify_checkpoint(const CampaignRun& run, const std::string& path,
                       double* load_ms, std::string* detail) {
  if (run.last_boundary == 0) {
    *detail = "no checkpoint was written";
    return false;
  }
  const Clock::time_point t0 = Clock::now();
  campaign::CampaignCheckpoint loaded;
  {
    const trace::ScopedSpan span("io.ckpt_load");
    loaded = campaign::load_campaign_checkpoint(path);
  }
  *load_ms = 1e3 * seconds_since(t0);
  bool ok = loaded.next_epoch == run.last_boundary &&
            checkpoint_fingerprint(loaded) == run.last_checkpoint &&
            loaded.jobs.size() == run.result.jobs.size();
  for (std::size_t j = 0; ok && j < loaded.jobs.size(); ++j) {
    const std::vector<core::SearchEpochStats>& saved = loaded.jobs[j].trace;
    const std::vector<core::SearchEpochStats>& final_trace =
        run.result.jobs[j].trace;
    ok = saved.size() <= final_trace.size();
    if (ok) {
      Fingerprint a, b;
      add_trace(a, saved);
      add_trace(b, std::vector<core::SearchEpochStats>(
                       final_trace.begin(),
                       final_trace.begin() +
                           static_cast<std::ptrdiff_t>(saved.size())));
      ok = a.value() == b.value();
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "epoch %zu checkpoint (%.1f MB) reloaded in %.0f ms, %s",
                run.last_boundary, run.checkpoint_mb, *load_ms,
                ok ? "bit-exact" : "MISMATCH");
  *detail = buf;
  return ok;
}

}  // namespace

void run_campaign_k8(const RunOptions& options, const Setup& setup,
                     const BaselineFingerprints& baseline, Report& report) {
  const predictors::HardwarePredictor& predictor = *setup.predictor;
  nn::ParallelConfig lane_config;
  lane_config.threads = options.lanes;
  const nn::ParallelContext lanes(lane_config);
  std::filesystem::create_directories(options.scratch_dir);
  const std::string path = options.scratch_dir + "/campaign_checkpoint.json";

  {
    // Untimed warm-up: two epochs of a campaign, stopped via should_stop.
    campaign::CampaignHooks hooks;
    hooks.should_stop = [](std::size_t epochs) { return epochs >= 2; };
    campaign::CampaignOrchestrator(
        setup.space, predictor, setup.task, core::SupernetConfig{},
        campaign_config(options.seed + 1000, options.smoke, &lanes))
        .run(hooks);
  }

  LoopTotals totals;
  const std::uint64_t end_seed =
      options.seed + timed_runs(options, kCampaignRuns);
  for (std::uint64_t seed = options.seed; seed < end_seed; ++seed) {
    const campaign::CampaignConfig config =
        campaign_config(seed, options.smoke, &lanes);
    const NnCounters nn_start = nn_counters();
    const CampaignRun run =
        timed_campaign(setup, predictor, config, path, options.smoke);
    if (options.traced) report_nn_layers(report, nn_start);
    // Heads that stepped in each epoch: the jobs with a trace entry there.
    std::vector<std::size_t> heads(run.epochs_ms.size(), 0);
    for (const campaign::JobResult& job : run.result.jobs) {
      for (const core::SearchEpochStats& stats : job.trace) {
        if (stats.epoch < heads.size()) ++heads[stats.epoch];
      }
    }
    totals.add_run(run.wall_s, run.epochs_ms,
                   epoch_update_ms(config.search, run.epochs_ms, heads));
    double worst_gap = 0.0, accuracy_sum = 0.0;
    for (const campaign::JobResult& job : run.result.jobs) {
      worst_gap = std::max(worst_gap, job.gap);
      accuracy_sum += job.valid_accuracy;
    }
    const double accuracy =
        accuracy_sum / static_cast<double>(run.result.jobs.size());
    if (!totals.first_gap) {
      totals.first_gap = worst_gap;
      totals.first_accuracy = accuracy;
    }
    check_fingerprint(report, baseline,
                      seed_key("campaign_k8", options.smoke, seed),
                      run.fingerprint);

    const std::size_t diverged =
        run.result.count(campaign::JobState::kDiverged);
    const bool ok = diverged == 0 &&
                    (options.smoke || (worst_gap <= kMaxLatGap &&
                                       accuracy >= kMinValidAccuracy));
    if (!ok) ++totals.failed;
    char detail[200];
    std::snprintf(detail, sizeof detail,
                  "%.2f s, %zu epochs, %zu/%zu converged, %zu diverged, "
                  "worst gap %.1f%%, valid_acc %.4f",
                  run.wall_s, run.result.completed_epochs,
                  run.result.count(campaign::JobState::kConverged),
                  run.result.jobs.size(), diverged, 100.0 * worst_gap,
                  accuracy);
    report.check("campaign seed=" + std::to_string(seed), ok, detail);

    double load_ms = 0.0;
    std::string ck_detail;
    report.check("checkpoint seed=" + std::to_string(seed),
                 verify_checkpoint(run, path, &load_ms, &ck_detail),
                 ck_detail);

    if (options.traced) {
      // Same seed again, traced through the predictor decorator, the
      // epoch hooks and the checkpoint writes.
      trace::clear();
      trace::enable(true);
      TracedPredictor traced_predictor(predictor);
      const Clock::time_point t0 = Clock::now();
      CampaignRun traced;
      {
        const trace::ScopedSpan span("campaign.run");
        traced = timed_campaign(setup, traced_predictor, config, path,
                                options.smoke);
      }
      const double traced_s = seconds_since(t0);
      double traced_load_ms = 0.0;
      const bool reloaded =
          verify_checkpoint(traced, path, &traced_load_ms, &ck_detail);
      trace::enable(false);
      report.check("traced campaign seed=" + std::to_string(seed),
                   reloaded && traced.fingerprint == run.fingerprint,
                   "traced " + hex64(traced.fingerprint) + " vs untraced " +
                       hex64(run.fingerprint) + "; " + ck_detail);

      const auto spans = trace::fold();
      span_layer(report, spans, "predictors.forward_var", "us", 1e6,
                 traced_s, false);
      span_layer(report, spans, "predictors.predict", "us", 1e6, traced_s,
                 false);
      span_layer(report, spans, "io.ckpt_save", "ms", 1e3, traced_s, false);
      const auto save = spans.find("io.ckpt_save");
      if (save != spans.end()) {
        report.layer("io.ckpt_save_ms.max", "ms",
                     1e3 * *quantile(save->second.durations_s, 1.0),
                     save->second.count);
        report.layer("io.ckpt_save_mb_per_s", "MB/s",
                     traced.checkpoint_mb * static_cast<double>(
                                                save->second.count) /
                         save->second.total_s,
                     save->second.count);
      }
      report.layer("io.ckpt_mb", "MB", traced.checkpoint_mb);
      report.layer("io.ckpt_load_ms", "ms", traced_load_ms);
      report.layer("io.ckpt_load_mb_per_s", "MB/s",
                   1e3 * traced.checkpoint_mb / traced_load_ms);
      report.layer("campaign.weight_updates", "count",
                   static_cast<double>(traced.result.weight_updates));
      report.layer("campaign.alpha_updates", "count",
                   static_cast<double>(traced.result.alpha_updates));
      report.layer("campaign.converged_jobs", "count",
                   static_cast<double>(
                       traced.result.count(campaign::JobState::kConverged)));
      report.layer("trace_overhead_pct", "%",
                   report.measured()
                       ? std::optional<double>(
                             overhead_pct(traced_s, run.wall_s))
                       : std::nullopt);
    }
  }
  std::filesystem::remove(path);
  totals.report_to(report);
}

}  // namespace lightnas::e2e
