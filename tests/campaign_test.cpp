#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/serialize.hpp"
#include "core/lightnas.hpp"
#include "hw/cost_model.hpp"
#include "io/serialize.hpp"
#include "legacy_tensors.hpp"
#include "nn/ops.hpp"
#include "nn/parallel.hpp"
#include "util/pareto.hpp"

namespace lightnas::campaign {
namespace {

/// Noise-free linear predictor (same construction as the core tests):
/// the orchestrator under test must be deterministic, so the predictor
/// is too.
class LinearOracle : public predictors::HardwarePredictor {
 public:
  LinearOracle(const space::SearchSpace& space, const hw::CostModel& model)
      : space_(&space) {
    weights_.resize(space.num_layers() * space.num_ops());
    const space::Architecture base =
        space.uniform_architecture(space.ops().skip_index());
    base_ = model.network_latency_ms(space, base);
    for (std::size_t l = 0; l < space.num_layers(); ++l) {
      for (std::size_t k = 0; k < space.num_ops(); ++k) {
        space::Architecture probe = base;
        if (space.layers()[l].searchable) probe.set_op(l, k);
        weights_[l * space.num_ops() + k] =
            model.network_latency_ms(space, probe) - base_;
      }
    }
  }
  double predict(const space::Architecture& arch) const override {
    const auto enc = arch.encode_one_hot(space_->num_ops());
    double total = base_;
    for (std::size_t i = 0; i < enc.size(); ++i) total += enc[i] * weights_[i];
    return total;
  }
  nn::VarPtr forward_var(const nn::VarPtr& encoding) const override {
    nn::Tensor w(weights_.size(), 1);
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      w[i] = static_cast<float>(weights_[i]);
    }
    return nn::ops::add_scalar(
        nn::ops::matmul(encoding, nn::make_const(std::move(w))), base_);
  }
  std::string unit() const override { return "ms"; }

 private:
  const space::SearchSpace* space_;
  std::vector<double> weights_;
  double base_ = 0.0;
};

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        model_(hw::DeviceProfile::jetson_xavier_maxn(), 8),
        task_(nn::make_synthetic_task(tiny_task())),
        predictor_(space_, model_) {}

  static CampaignConfig tiny_config() {
    CampaignConfig config;
    config.targets = {20.0, 24.0, 28.0};
    config.search.epochs = 8;
    config.search.warmup_epochs = 3;
    config.search.w_steps_per_epoch = 4;
    config.search.alpha_steps_per_epoch = 4;
    config.search.batch_size = 32;
    config.search.seed = 2;
    return config;
  }
  static nn::SyntheticTaskConfig tiny_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 512;
    config.valid_size = 256;
    return config;
  }

  CampaignOrchestrator make_orchestrator(const CampaignConfig& config) {
    return CampaignOrchestrator(space_, predictor_, task_,
                                core::SupernetConfig{}, config);
  }

  /// Asserts every observable of two campaigns matches bit-for-bit,
  /// including the full per-target trajectories.
  static void expect_identical(const CampaignResult& a,
                               const CampaignResult& b) {
    EXPECT_EQ(a.weight_updates, b.weight_updates);
    EXPECT_EQ(a.alpha_updates, b.alpha_updates);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      EXPECT_EQ(a.jobs[j].state, b.jobs[j].state);
      EXPECT_EQ(a.jobs[j].architecture.ops(), b.jobs[j].architecture.ops());
      EXPECT_EQ(a.jobs[j].predicted_cost, b.jobs[j].predicted_cost);
      EXPECT_EQ(a.jobs[j].gap, b.jobs[j].gap);
      EXPECT_EQ(a.jobs[j].valid_accuracy, b.jobs[j].valid_accuracy);
      EXPECT_EQ(a.jobs[j].on_front, b.jobs[j].on_front);
      EXPECT_EQ(a.jobs[j].alpha_updates, b.jobs[j].alpha_updates);
      EXPECT_EQ(a.jobs[j].rollbacks, b.jobs[j].rollbacks);
      ASSERT_EQ(a.jobs[j].trace.size(), b.jobs[j].trace.size());
      for (std::size_t e = 0; e < a.jobs[j].trace.size(); ++e) {
        SCOPED_TRACE("epoch " + std::to_string(e));
        const core::SearchEpochStats& sa = a.jobs[j].trace[e];
        const core::SearchEpochStats& sb = b.jobs[j].trace[e];
        EXPECT_EQ(sa.derived.ops(), sb.derived.ops());
        EXPECT_EQ(sa.lambda, sb.lambda);
        EXPECT_EQ(sa.predicted_cost, sb.predicted_cost);
        EXPECT_EQ(sa.sampled_cost_mean, sb.sampled_cost_mean);
        EXPECT_EQ(sa.valid_loss, sb.valid_loss);
        EXPECT_EQ(sa.valid_accuracy, sb.valid_accuracy);
      }
    }
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t i = 0; i < a.front.size(); ++i) {
      EXPECT_EQ(a.front[i].cost, b.front[i].cost);
      EXPECT_EQ(a.front[i].value, b.front[i].value);
      EXPECT_EQ(a.front[i].tag, b.front[i].tag);
    }
  }

  space::SearchSpace space_;
  hw::CostModel model_;
  nn::SyntheticTask task_;
  LinearOracle predictor_;
};

TEST_F(CampaignTest, RunsEveryTargetAndBuildsAFront) {
  const CampaignConfig config = tiny_config();
  const CampaignResult result = make_orchestrator(config).run();

  ASSERT_EQ(result.jobs.size(), config.targets.size());
  EXPECT_EQ(result.completed_epochs, config.search.epochs);
  // ONE shared w-update per step, regardless of K.
  EXPECT_EQ(result.weight_updates,
            config.search.epochs * config.search.w_steps_per_epoch);
  std::size_t alpha_sum = 0;
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    const JobResult& job = result.jobs[j];
    EXPECT_EQ(job.job_id, j);
    EXPECT_EQ(job.target, config.targets[j]);
    EXPECT_FALSE(job.trace.empty());
    EXPECT_GT(job.alpha_updates, 0u);
    EXPECT_GT(job.predicted_cost, 0.0);
    alpha_sum += job.alpha_updates;
  }
  EXPECT_EQ(result.alpha_updates, alpha_sum);

  // The front is the non-dominated subset, sorted by cost, and exactly
  // the jobs flagged on_front.
  ASSERT_FALSE(result.front.empty());
  for (std::size_t i = 0; i + 1 < result.front.size(); ++i) {
    EXPECT_LE(result.front[i].cost, result.front[i + 1].cost);
    // Paying more cost must buy more value, or the point is dominated.
    EXPECT_LE(result.front[i].value, result.front[i + 1].value);
  }
  std::size_t flagged = 0;
  for (const JobResult& job : result.jobs) {
    if (job.on_front) ++flagged;
  }
  EXPECT_EQ(flagged, result.front.size());
}

TEST_F(CampaignTest, SameSeedReproducesBitExactly) {
  const CampaignResult a = make_orchestrator(tiny_config()).run();
  const CampaignResult b = make_orchestrator(tiny_config()).run();
  expect_identical(a, b);
}

TEST_F(CampaignTest, ResumeReproducesUninterruptedCampaign) {
  const CampaignResult full = make_orchestrator(tiny_config()).run();

  // Kill the campaign after epoch 4, keeping only the last checkpoint —
  // the simulated power cut.
  constexpr std::size_t kKillAt = 4;
  std::optional<CampaignCheckpoint> saved;
  CampaignHooks hooks;
  hooks.on_checkpoint = [&](const CampaignCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= kKillAt; };
  const CampaignResult partial = make_orchestrator(tiny_config()).run(hooks);
  EXPECT_TRUE(partial.interrupted);
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->next_epoch, kKillAt);

  CampaignHooks resume;
  resume.resume = &*saved;
  const CampaignResult resumed = make_orchestrator(tiny_config()).run(resume);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_epoch, kKillAt);
  expect_identical(full, resumed);
}

TEST_F(CampaignTest, ResumeThroughJsonFileIsStillExact) {
  const CampaignResult full = make_orchestrator(tiny_config()).run();

  const std::string path = (std::filesystem::temp_directory_path() /
                            "lightnas_campaign_ck_test.json")
                               .string();
  CampaignHooks hooks;
  hooks.checkpoint_every = 3;
  hooks.on_checkpoint = [&](const CampaignCheckpoint& ck) {
    save_campaign_checkpoint(path, ck);
  };
  hooks.should_stop = [](std::size_t done) { return done >= 3; };
  (void)make_orchestrator(tiny_config()).run(hooks);
  ASSERT_TRUE(std::filesystem::exists(path));
  // Atomic write: the temp file never survives a successful save.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const CampaignCheckpoint loaded = load_campaign_checkpoint(path);
  EXPECT_EQ(loaded.next_epoch, 3u);
  CampaignHooks resume;
  resume.resume = &loaded;
  const CampaignResult resumed = make_orchestrator(tiny_config()).run(resume);
  expect_identical(full, resumed);
  std::filesystem::remove(path);
}

TEST_F(CampaignTest, CheckpointJsonRoundTripPreservesState) {
  std::optional<CampaignCheckpoint> saved;
  CampaignHooks hooks;
  hooks.on_checkpoint = [&](const CampaignCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 5; };
  (void)make_orchestrator(tiny_config()).run(hooks);
  ASSERT_TRUE(saved.has_value());

  const io::Json json =
      io::Json::parse(campaign_checkpoint_to_json(*saved).dump());
  const CampaignCheckpoint back = campaign_checkpoint_from_json(json);
  EXPECT_EQ(back.seed, saved->seed);
  EXPECT_EQ(back.next_epoch, saved->next_epoch);
  EXPECT_EQ(back.targets, saved->targets);
  EXPECT_EQ(back.w_step_counter, saved->w_step_counter);
  EXPECT_EQ(back.weight_updates, saved->weight_updates);
  EXPECT_EQ(back.rng.s, saved->rng.s);
  EXPECT_EQ(back.data_rng.s, saved->data_rng.s);
  EXPECT_EQ(back.train_batcher.order, saved->train_batcher.order);
  ASSERT_EQ(back.supernet_weights.size(), saved->supernet_weights.size());
  for (std::size_t i = 0; i < back.supernet_weights.size(); ++i) {
    ASSERT_EQ(back.supernet_weights[i].data(),
              saved->supernet_weights[i].data());
  }
  ASSERT_EQ(back.jobs.size(), saved->jobs.size());
  for (std::size_t j = 0; j < back.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(back.jobs[j].state, saved->jobs[j].state);
    EXPECT_EQ(back.jobs[j].alpha.data(), saved->jobs[j].alpha.data());
    EXPECT_EQ(back.jobs[j].adam_t, saved->jobs[j].adam_t);
    EXPECT_EQ(back.jobs[j].lambdas, saved->jobs[j].lambdas);
    EXPECT_EQ(back.jobs[j].path_rng.s, saved->jobs[j].path_rng.s);
    EXPECT_EQ(back.jobs[j].valid_rng.s, saved->jobs[j].valid_rng.s);
    EXPECT_EQ(back.jobs[j].valid_batcher.order,
              saved->jobs[j].valid_batcher.order);
    EXPECT_EQ(back.jobs[j].tolerance_streak,
              saved->jobs[j].tolerance_streak);
    EXPECT_EQ(back.jobs[j].trace.size(), saved->jobs[j].trace.size());
  }
}

// A campaign checkpoint written before tensors were packed into `f32`
// (one JSON number per float) loads to the same state as the new file.
TEST_F(CampaignTest, LegacyCheckpointLoadsToSameState) {
  std::optional<CampaignCheckpoint> saved;
  CampaignHooks hooks;
  hooks.on_checkpoint = [&](const CampaignCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 5; };
  (void)make_orchestrator(tiny_config()).run(hooks);
  ASSERT_TRUE(saved.has_value());

  const io::Json json = campaign_checkpoint_to_json(*saved);
  const std::string text = json.dump();
  const std::string legacy = io::with_legacy_tensors(json).dump();
  ASSERT_EQ(legacy.find("\"f32\""), std::string::npos);
  ASSERT_NE(legacy.find("\"data\""), std::string::npos);
  // The f32 form pins every float's bits, so equal files mean equal
  // state.
  EXPECT_EQ(campaign_checkpoint_to_json(
                campaign_checkpoint_from_json(io::Json::parse(legacy)))
                .dump(),
            text);
  EXPECT_EQ(campaign_checkpoint_to_json(
                campaign_checkpoint_from_json(io::Json::parse(text)))
                .dump(),
            text);
}

TEST_F(CampaignTest, ResumeRejectsMismatchedFingerprint) {
  std::optional<CampaignCheckpoint> saved;
  CampaignHooks hooks;
  hooks.on_checkpoint = [&](const CampaignCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 2; };
  (void)make_orchestrator(tiny_config()).run(hooks);
  ASSERT_TRUE(saved.has_value());

  CampaignHooks resume;
  resume.resume = &*saved;

  CampaignConfig other_seed = tiny_config();
  other_seed.search.seed = 99;
  EXPECT_THROW(make_orchestrator(other_seed).run(resume),
               std::invalid_argument);

  CampaignConfig other_targets = tiny_config();
  other_targets.targets = {20.0, 24.0, 30.0};
  EXPECT_THROW(make_orchestrator(other_targets).run(resume),
               std::invalid_argument);

  CampaignConfig other_epochs = tiny_config();
  other_epochs.search.epochs = 12;
  EXPECT_THROW(make_orchestrator(other_epochs).run(resume),
               std::invalid_argument);

  CampaignConfig fewer_jobs = tiny_config();
  fewer_jobs.targets = {20.0, 24.0};
  EXPECT_THROW(make_orchestrator(fewer_jobs).run(resume),
               std::invalid_argument);
}

TEST_F(CampaignTest, PreemptingConvergedJobsSavesAlphaBudget) {
  // Tolerance so loose every job "converges" on its first post-warmup
  // epoch: with preemption the campaign winds down immediately, without
  // it every head keeps stepping to the end of the budget.
  CampaignConfig eager = tiny_config();
  eager.tolerance = 10.0;
  eager.convergence_patience = 1;
  eager.preempt_converged = true;
  const CampaignResult preempted = make_orchestrator(eager).run();

  CampaignConfig lazy = eager;
  lazy.preempt_converged = false;
  const CampaignResult kept = make_orchestrator(lazy).run();

  EXPECT_EQ(preempted.count(JobState::kConverged), eager.targets.size());
  EXPECT_EQ(kept.count(JobState::kConverged), eager.targets.size());
  EXPECT_LT(preempted.alpha_updates, kept.alpha_updates);
  EXPECT_LT(preempted.weight_updates, kept.weight_updates);
  for (const JobResult& job : preempted.jobs) {
    EXPECT_EQ(job.state, JobState::kConverged);
    EXPECT_GT(job.converged_epoch, 0u);
  }
}

TEST_F(CampaignTest, WatchdogFreezesDivergedJobsAndCampaignSurvives) {
  // A lambda limit below any post-warmup multiplier turns the first
  // alpha epoch into a divergence for every job; with no rollback
  // budget each job freezes at its last healthy (warmup) state.
  CampaignConfig config = tiny_config();
  config.search.watchdog.lambda_limit = 1e-6;
  config.search.watchdog.max_rollbacks = 0;
  const CampaignResult result = make_orchestrator(config).run();

  EXPECT_EQ(result.count(JobState::kDiverged), config.targets.size());
  for (const JobResult& job : result.jobs) {
    EXPECT_EQ(job.state, JobState::kDiverged);
    ASSERT_FALSE(job.events.empty());
    EXPECT_FALSE(job.events.back().rolled_back);
    // The job still reports a healthy best-from-trace architecture.
    EXPECT_EQ(job.trace.size(), config.search.warmup_epochs);
    EXPECT_GT(job.predicted_cost, 0.0);
  }
  // The campaign wound down early: every job left the schedule.
  EXPECT_LT(result.completed_epochs, config.search.epochs);
}

TEST_F(CampaignTest, JobDivergedBeforeAnyHealthyEpochStaysDiverged) {
  // No warmup: the first epoch's alpha steps already push lambda past the
  // limit, so every job diverges with no healthy epoch to roll back to.
  CampaignConfig config = tiny_config();
  config.search.warmup_epochs = 0;
  config.search.watchdog.lambda_limit = 1e-6;
  config.search.watchdog.max_rollbacks = 0;
  const CampaignResult result = make_orchestrator(config).run();

  EXPECT_EQ(result.count(JobState::kDiverged), config.targets.size());
  EXPECT_EQ(result.count(JobState::kPreempted), 0u);
  for (const JobResult& job : result.jobs) {
    EXPECT_EQ(job.state, JobState::kDiverged);
    EXPECT_TRUE(job.trace.empty());
    ASSERT_EQ(job.events.size(), 1u);
    EXPECT_FALSE(job.events.front().rolled_back);
    EXPECT_EQ(job.events.front().reason.rfind(
                  "runaway lambda (constraint 0, value ", 0),
              0u);
    EXPECT_FALSE(job.on_front);
  }
  EXPECT_TRUE(result.front.empty());
  EXPECT_EQ(result.completed_epochs, 1u);
}

// Job-level multiplexing onto the parallel context must not change a
// single bit of any trajectory, and a checkpoint written at 4 lanes must
// resume exactly at 1 lane. In the LIGHTNAS_TSAN build this doubles as
// the concurrent K-target data-race smoke test.
TEST_F(CampaignTest, ThreadedCampaignMatchesSerialBitExactly) {
  const CampaignResult serial = make_orchestrator(tiny_config()).run();

  const nn::ParallelContext context(nn::ParallelConfig{4});
  CampaignConfig threaded_config = tiny_config();
  threaded_config.search.parallel = &context;
  const CampaignResult threaded =
      make_orchestrator(threaded_config).run();

  expect_identical(serial, threaded);

  // Stop the 4-lane campaign after epoch 5 and resume its checkpoint
  // serially: the lane count is not part of the checkpoint.
  constexpr std::size_t kStopAt = 5;
  std::optional<CampaignCheckpoint> saved;
  CampaignHooks hooks;
  hooks.on_checkpoint = [&](const CampaignCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= kStopAt; };
  const CampaignResult partial = make_orchestrator(threaded_config).run(hooks);
  EXPECT_TRUE(partial.interrupted);
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->next_epoch, kStopAt);

  CampaignHooks resume;
  resume.resume = &*saved;
  const CampaignResult resumed = make_orchestrator(tiny_config()).run(resume);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_epoch, kStopAt);
  expect_identical(serial, resumed);
}

}  // namespace
}  // namespace lightnas::campaign
