// Tests of the plan compiler (nn/plan.hpp): recording the supported op
// vocabulary, poisoning on anything else, bit-identity of compiled
// execution against the dynamic autograd path across ISA tiers and on
// job-level lanes, cache trigger/invalidation semantics, the serialized
// plan artifact round-trip, and full-search trajectory equivalence
// (including kill/resume) with plans enabled.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lightnas.hpp"
#include "core/search_step.hpp"
#include "hw/cost_model.hpp"
#include "io/serialize.hpp"
#include "nn/data.hpp"
#include "nn/ops.hpp"
#include "nn/parallel.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "nn/simd.hpp"
#include "nn/tensor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/rng.hpp"

namespace lightnas {
namespace {

using nn::simd::IsaLevel;
using nn::simd::ScopedIsa;

bool avx2_usable() {
  return nn::simd::avx2_compiled() &&
         nn::simd::cpu_supports(IsaLevel::kAvx2);
}

nn::Tensor random_tensor(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor t = nn::Tensor::uninitialized(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

bool bits_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

bool float_bits_equal(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(float));
  std::memcpy(&ub, &b, sizeof(float));
  return ua == ub;
}

/// Small two-branch MLP covering the full recordable vocabulary:
/// matmul, add_bias, relu, scale, add, add_scalar, softmax CE. Odd
/// shapes exercise the AVX2 tail lanes.
struct TinyModel {
  nn::VarPtr W1, b1, W2, b2, W3, b3;

  std::vector<nn::VarPtr> params() const { return {W1, b1, W2, b2, W3, b3}; }
};

constexpr std::size_t kBatch = 5;
constexpr std::size_t kIn = 7;
constexpr std::size_t kHidden = 9;
constexpr std::size_t kClasses = 4;

TinyModel make_model(std::uint64_t seed) {
  TinyModel m;
  m.W1 = nn::make_leaf(random_tensor(kIn, kHidden, seed + 1), "W1");
  m.b1 = nn::make_leaf(random_tensor(1, kHidden, seed + 2), "b1");
  m.W2 = nn::make_leaf(random_tensor(kHidden, kHidden, seed + 3), "W2");
  m.b2 = nn::make_leaf(random_tensor(1, kHidden, seed + 4), "b2");
  m.W3 = nn::make_leaf(random_tensor(kHidden, kClasses, seed + 5), "W3");
  m.b3 = nn::make_leaf(random_tensor(1, kClasses, seed + 6), "b3");
  return m;
}

nn::VarPtr forward_loss(const TinyModel& m, const nn::VarPtr& x,
                        const std::vector<std::size_t>& labels) {
  using namespace nn::ops;  // NOLINT
  const nn::VarPtr h = relu(add_bias(matmul(x, m.W1), m.b1));
  const nn::VarPtr branch = scale(relu(add_bias(matmul(h, m.W2), m.b2)), 0.5);
  const nn::VarPtr mixed = add(h, branch);
  const nn::VarPtr logits =
      add_scalar(add_bias(matmul(mixed, m.W3), m.b3), 0.25);
  return softmax_cross_entropy(logits, labels);
}

std::vector<std::size_t> make_labels() { return {1, 0, 3, 2, 1}; }

/// Dynamic-path reference: loss plus a bit-exact copy of every grad.
struct DynamicResult {
  float loss = 0.0f;
  std::vector<nn::Tensor> grads;
};

DynamicResult run_dynamic(std::uint64_t seed, const nn::Tensor& features,
                          const std::vector<std::size_t>& labels) {
  const TinyModel m = make_model(seed);
  const nn::VarPtr loss = forward_loss(m, nn::make_const(features), labels);
  nn::backward(loss);
  DynamicResult result;
  result.loss = loss->value.item();
  for (const nn::VarPtr& p : m.params()) result.grads.push_back(p->grad);
  return result;
}

/// Record the same graph on an independent (same-seed) parameter set
/// and return the captured program plus the live model it binds.
struct Captured {
  TinyModel model;
  std::unique_ptr<nn::plan::Program> program;
};

Captured record_program(std::uint64_t seed, const nn::Tensor& features,
                        const std::vector<std::size_t>& labels) {
  Captured c;
  c.model = make_model(seed);
  nn::plan::Recording recording;
  const nn::VarPtr loss =
      forward_loss(c.model, nn::make_const(features), labels);
  c.program = recording.capture(loss);
  return c;
}

void expect_matches_dynamic(const DynamicResult& expect, float loss,
                            const TinyModel& model) {
  EXPECT_TRUE(float_bits_equal(expect.loss, loss))
      << expect.loss << " vs " << loss;
  const std::vector<nn::VarPtr> params = model.params();
  ASSERT_EQ(expect.grads.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE("param " + std::to_string(i));
    EXPECT_TRUE(bits_equal(expect.grads[i], params[i]->grad));
  }
}

/// The core bit-identity check: compile against an explicit ISA tier,
/// execute, and compare loss + every parameter gradient bitwise against
/// the dynamic path in the same environment.
void check_plan_vs_dynamic(IsaLevel isa) {
  const ScopedIsa forced(isa);

  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  const DynamicResult expect = run_dynamic(7, features, labels);

  Captured c = record_program(7, features, labels);
  ASSERT_NE(c.program, nullptr);
  EXPECT_EQ(c.program->num_inputs, 1u);
  EXPECT_EQ(c.program->num_label_bindings, 1u);

  const std::unique_ptr<nn::plan::ExecutionPlan> plan =
      nn::plan::ExecutionPlan::compile(*c.program, nn::plan::CompileOptions{});
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->has_backward());
  EXPECT_EQ(plan->fused_ops(), 3u);  // two linear+relu chains + classifier
  EXPECT_GT(plan->arena_bytes(), 0u);

  ASSERT_TRUE(plan->execute({&features}, {&labels}));
  ASSERT_EQ(plan->root_rows(), 1u);
  ASSERT_EQ(plan->root_cols(), 1u);
  expect_matches_dynamic(expect, plan->root_data()[0], c.model);
}

/// Plans are thread-confined: jobs on the lanes of a job-level context
/// each record, compile and execute their own plan, on pool threads
/// too, and every one matches the dynamic path.
void check_plans_on_lanes(IsaLevel isa) {
  const nn::ParallelContext lanes(nn::ParallelConfig{4});
  lanes.for_rows(4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t job = begin; job < end; ++job) {
      check_plan_vs_dynamic(isa);
    }
  });
}

TEST(PlanExecute, BitIdenticalScalarSerial) {
  check_plan_vs_dynamic(IsaLevel::kScalar);
}

TEST(PlanExecute, BitIdenticalScalarParallel) {
  check_plans_on_lanes(IsaLevel::kScalar);
}

TEST(PlanExecute, BitIdenticalAvx2Serial) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  check_plan_vs_dynamic(IsaLevel::kAvx2);
}

TEST(PlanExecute, BitIdenticalAvx2Parallel) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  check_plans_on_lanes(IsaLevel::kAvx2);
}

TEST(PlanExecute, RepeatedExecuteIsDeterministic) {
  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  Captured c = record_program(3, features, labels);
  ASSERT_NE(c.program, nullptr);
  const auto plan = nn::plan::ExecutionPlan::compile(
      *c.program, nn::plan::CompileOptions{});
  ASSERT_NE(plan, nullptr);

  ASSERT_TRUE(plan->execute({&features}, {&labels}));
  const float first_loss = plan->root_data()[0];
  std::vector<nn::Tensor> first_grads;
  for (const nn::VarPtr& p : c.model.params()) first_grads.push_back(p->grad);

  for (const nn::VarPtr& p : c.model.params()) p->zero_grad();
  ASSERT_TRUE(plan->execute({&features}, {&labels}));
  EXPECT_TRUE(float_bits_equal(first_loss, plan->root_data()[0]));
  const std::vector<nn::VarPtr> params = c.model.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(bits_equal(first_grads[i], params[i]->grad));
  }
}

TEST(PlanExecute, GradsAccumulateLikeDynamicBackward) {
  // Two executes without zero_grad must double the gradients, exactly
  // like running dynamic backward twice.
  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();

  const TinyModel dyn = make_model(5);
  for (int i = 0; i < 2; ++i) {
    nn::backward(forward_loss(dyn, nn::make_const(features), labels));
  }

  Captured c = record_program(5, features, labels);
  ASSERT_NE(c.program, nullptr);
  const auto plan = nn::plan::ExecutionPlan::compile(
      *c.program, nn::plan::CompileOptions{});
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->execute({&features}, {&labels}));
  ASSERT_TRUE(plan->execute({&features}, {&labels}));

  const std::vector<nn::VarPtr> expect = dyn.params();
  const std::vector<nn::VarPtr> got = c.model.params();
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE("param " + std::to_string(i));
    EXPECT_TRUE(bits_equal(expect[i]->grad, got[i]->grad));
  }
}

TEST(PlanExecute, RejectsMismatchedBindingsWithoutSideEffects) {
  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  const DynamicResult expect = run_dynamic(9, features, labels);

  Captured c = record_program(9, features, labels);
  ASSERT_NE(c.program, nullptr);
  const auto plan = nn::plan::ExecutionPlan::compile(
      *c.program, nn::plan::CompileOptions{});
  ASSERT_NE(plan, nullptr);

  // Wrong input shape.
  const nn::Tensor wrong_shape = random_tensor(kBatch, kIn + 1, 42);
  EXPECT_FALSE(plan->execute({&wrong_shape}, {&labels}));
  // Wrong binding counts.
  EXPECT_FALSE(plan->execute({}, {&labels}));
  EXPECT_FALSE(plan->execute({&features}, {}));
  // Wrong label count and out-of-range label.
  const std::vector<std::size_t> short_labels = {1, 0};
  EXPECT_FALSE(plan->execute({&features}, {&short_labels}));
  const std::vector<std::size_t> bad_labels = {1, 0, 3, 2, kClasses};
  EXPECT_FALSE(plan->execute({&features}, {&bad_labels}));

  // The rejected calls must not have touched the gradients: a clean
  // execute afterwards still matches the dynamic reference exactly.
  ASSERT_TRUE(plan->execute({&features}, {&labels}));
  expect_matches_dynamic(expect, plan->root_data()[0], c.model);
}

TEST(PlanExecute, StaleIsaPlanIsDetected) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  Captured c = record_program(2, features, labels);
  ASSERT_NE(c.program, nullptr);

  std::unique_ptr<nn::plan::ExecutionPlan> plan;
  {
    const ScopedIsa scalar(IsaLevel::kScalar);
    plan = nn::plan::ExecutionPlan::compile(*c.program,
                                            nn::plan::CompileOptions{});
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->valid());
  }
  const ScopedIsa vec(IsaLevel::kAvx2);
  EXPECT_FALSE(plan->valid());
}

TEST(PlanRecording, UnsupportedOpPoisonsCapture) {
  nn::plan::Recording recording;
  const nn::VarPtr x = nn::make_const(random_tensor(2, 3, 1));
  const nn::VarPtr s = nn::make_const(nn::Tensor(1, 1, 2.0f));
  // mul_scalar is outside the plan vocabulary; feeding its output into
  // a recorded op must poison the capture.
  const nn::VarPtr y = nn::ops::relu(nn::ops::mul_scalar(x, s));
  EXPECT_TRUE(recording.poisoned());
  EXPECT_EQ(recording.capture(y), nullptr);
}

TEST(PlanRecording, FreshLeafPoisonsCapture) {
  nn::plan::Recording recording;
  const nn::VarPtr w = nn::make_leaf(random_tensor(3, 3, 1), "w");
  const nn::VarPtr x = nn::make_const(random_tensor(2, 3, 2));
  const nn::VarPtr y = nn::ops::matmul(x, w);
  EXPECT_TRUE(recording.poisoned());
  EXPECT_EQ(recording.capture(y), nullptr);
}

TEST(PlanRecording, RootMustBeARecordedOp) {
  nn::plan::Recording recording;
  const nn::VarPtr x = nn::make_const(random_tensor(2, 3, 1));
  EXPECT_EQ(recording.capture(x), nullptr);
}

TEST(PlanCacheTest, CompileAfterTriggerAndHitCounting) {
  nn::plan::PlanSettings settings;
  settings.enabled = true;
  settings.compile_after = 2;
  nn::plan::PlanCache cache(settings);
  const std::string key = "0,1,2:5x7";

  const nn::plan::PlanStats before = nn::plan::global_stats();
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_FALSE(cache.should_record(key));  // 1 request < compile_after
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_TRUE(cache.should_record(key));  // 2 requests, no plan yet

  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  Captured c = record_program(1, features, labels);
  ASSERT_NE(c.program, nullptr);
  cache.store(key, nn::plan::ExecutionPlan::compile(
                       *c.program, nn::plan::CompileOptions{}));
  EXPECT_FALSE(cache.should_record(key));  // plan installed

  nn::plan::ExecutionPlan* plan = cache.lookup(key);
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->execute({&features}, {&labels}));

  const nn::plan::PlanStats delta = nn::plan::global_stats() - before;
  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.compiles, 1u);
  EXPECT_EQ(delta.fused_ops, 3u);
  EXPECT_GT(delta.arena_bytes, 0u);
}

TEST(PlanCacheTest, DisabledCacheNeverRecords) {
  nn::plan::PlanSettings settings;
  settings.enabled = false;
  nn::plan::PlanCache cache(settings);
  const nn::plan::PlanStats before = nn::plan::global_stats();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(cache.lookup("k"), nullptr);
  EXPECT_FALSE(cache.should_record("k"));
  const nn::plan::PlanStats delta = nn::plan::global_stats() - before;
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.hits, 0u);
}

TEST(PlanCacheTest, IsaChangeDropsStalePlanAndRetriggers) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  nn::plan::PlanSettings settings;
  settings.enabled = true;
  settings.compile_after = 1;
  nn::plan::PlanCache cache(settings);
  const std::string key = "k";

  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  Captured c = record_program(1, features, labels);
  ASSERT_NE(c.program, nullptr);

  {
    const ScopedIsa scalar(IsaLevel::kScalar);
    EXPECT_EQ(cache.lookup(key), nullptr);
    cache.store(key, nn::plan::ExecutionPlan::compile(
                         *c.program, nn::plan::CompileOptions{}));
    EXPECT_NE(cache.lookup(key), nullptr);
  }
  // Under a different ISA tier the stored plan is stale: the lookup
  // must miss, drop it, and re-arm recording for this key.
  const ScopedIsa vec(IsaLevel::kAvx2);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_TRUE(cache.should_record(key));
}

TEST(PlanCacheTest, NullStoreMarksKeyUncompilable) {
  nn::plan::PlanSettings settings;
  settings.enabled = true;
  settings.compile_after = 1;
  nn::plan::PlanCache cache(settings);
  EXPECT_EQ(cache.lookup("bad"), nullptr);
  EXPECT_TRUE(cache.should_record("bad"));
  cache.store("bad", nullptr);
  EXPECT_FALSE(cache.should_record("bad"));
  EXPECT_EQ(cache.lookup("bad"), nullptr);
  EXPECT_FALSE(cache.should_record("bad"));
}

TEST(PlanSettingsTest, FromEnvParsesOverrides) {
  nn::plan::PlanSettings base;
  base.enabled = false;
  base.compile_after = 3;

  ::setenv("LIGHTNAS_PLAN", "on", 1);
  nn::plan::PlanSettings s = nn::plan::PlanSettings::from_env(base);
  EXPECT_TRUE(s.enabled);

  ::setenv("LIGHTNAS_PLAN", "off", 1);
  s = nn::plan::PlanSettings::from_env(base);
  EXPECT_FALSE(s.enabled);

  ::setenv("LIGHTNAS_PLAN", "5", 1);
  s = nn::plan::PlanSettings::from_env(base);
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.compile_after, 5u);

  ::unsetenv("LIGHTNAS_PLAN");
  s = nn::plan::PlanSettings::from_env(base);
  EXPECT_FALSE(s.enabled);
  EXPECT_EQ(s.compile_after, 3u);
}

TEST(PlanRoundTrip, SerializeLoadBindExecute) {
  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  const DynamicResult expect = run_dynamic(13, features, labels);

  Captured c = record_program(13, features, labels);
  ASSERT_NE(c.program, nullptr);

  const std::string path =
      (std::filesystem::temp_directory_path() / "lightnas_plan_test.json")
          .string();
  io::save_plan(path, *c.program);
  nn::plan::Program loaded = io::load_plan(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.slots.size(), c.program->slots.size());
  EXPECT_EQ(loaded.ops.size(), c.program->ops.size());
  EXPECT_EQ(loaded.root, c.program->root);

  // Unbound parameters: the loaded program must not compile yet.
  EXPECT_EQ(nn::plan::ExecutionPlan::compile(loaded,
                                             nn::plan::CompileOptions{}),
            nullptr);

  // Bind against a fresh same-seed model and run: bit-identical to the
  // dynamic reference.
  const TinyModel host = make_model(13);
  io::bind_program_params(loaded, host.params());
  const auto plan = nn::plan::ExecutionPlan::compile(
      loaded, nn::plan::CompileOptions{});
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->execute({&features}, {&labels}));
  expect_matches_dynamic(expect, plan->root_data()[0], host);
}

TEST(PlanRoundTrip, BindRejectsMissingOrMismatchedParams) {
  const nn::Tensor features = random_tensor(kBatch, kIn, 42);
  const std::vector<std::size_t> labels = make_labels();
  Captured c = record_program(13, features, labels);
  ASSERT_NE(c.program, nullptr);
  const io::Json json = io::plan_to_json(*c.program);
  nn::plan::Program loaded = io::plan_from_json(json);

  const TinyModel host = make_model(13);
  std::vector<nn::VarPtr> missing = host.params();
  missing.pop_back();  // drop b3
  EXPECT_THROW(io::bind_program_params(loaded, missing), std::runtime_error);

  // Same name, wrong shape.
  std::vector<nn::VarPtr> wrong = host.params();
  wrong.back() = nn::make_leaf(random_tensor(1, kClasses + 1, 99), "b3");
  EXPECT_THROW(io::bind_program_params(loaded, wrong), std::runtime_error);
}

TEST(PredictorPlan, ForwardOnlyPlanMatchesForwardVar) {
  const std::size_t layers = 4, ops = 3;
  // forward_var requires a trained predictor; fabricate one through the
  // state round-trip so the test stays fast (the weights' values are
  // irrelevant to bit-identity, only determinism matters).
  predictors::MlpPredictor::State state =
      predictors::MlpPredictor(layers, ops, 7).export_state();
  state.trained = true;
  state.target_mean = 3.5;
  state.target_std = 1.25;
  const predictors::MlpPredictor predictor =
      predictors::MlpPredictor::from_state(state);

  nn::Tensor encoding = nn::Tensor::zeros(1, layers * ops);
  for (std::size_t l = 0; l < layers; ++l) encoding.at(0, l * ops + 1) = 1.0f;

  const nn::VarPtr dynamic =
      predictor.forward_var(nn::make_const(encoding));

  nn::plan::Recording recording;
  const nn::VarPtr traced = predictor.forward_var(nn::make_const(encoding));
  std::unique_ptr<nn::plan::Program> program = recording.capture(traced);
  ASSERT_NE(program, nullptr);

  nn::plan::CompileOptions opts;
  opts.backward = false;
  const auto plan = nn::plan::ExecutionPlan::compile(*program, opts);
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->has_backward());
  ASSERT_TRUE(plan->execute({&encoding}, {}));
  EXPECT_TRUE(
      float_bits_equal(dynamic->value.item(), plan->root_data()[0]));
}

/// Trainer-level equivalence: a planned SharedWTrainer must walk the
/// exact weight trajectory of a dynamic one, including across the
/// dynamic->planned transition at the compile trigger.
TEST(TrainerPlan, PlannedStepsMatchDynamicTrajectory) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const core::SearchTopology topology(space);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = 64;
  task_config.valid_size = 32;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  constexpr std::size_t kSteps = 8;
  core::LightNasConfig dynamic_config;
  dynamic_config.plan = nn::plan::PlanSettings{};
  dynamic_config.plan.enabled = false;
  core::LightNasConfig planned_config = dynamic_config;
  planned_config.plan.enabled = true;
  planned_config.plan.compile_after = 2;

  core::SharedWTrainer dynamic_trainer(topology, task, core::SupernetConfig{},
                                       dynamic_config, kSteps);
  core::SharedWTrainer planned_trainer(topology, task, core::SupernetConfig{},
                                       planned_config, kSteps);

  // Fixed batch + two alternating paths: both keys recur enough to
  // cross the compile threshold and then serve hits.
  nn::Dataset batch;
  batch.features = nn::Tensor::uninitialized(8, task.train.feature_dim());
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t col = 0; col < batch.features.cols(); ++col) {
      batch.features.at(r, col) = task.train.features.at(r, col);
    }
    batch.labels.push_back(task.train.labels[r]);
  }
  const std::vector<std::size_t> path_a = space.uniform_architecture(0).ops();
  const std::vector<std::size_t> path_b =
      space.uniform_architecture(space.ops().skip_index()).ops();

  const nn::plan::PlanStats before = nn::plan::global_stats();
  nn::PooledScope pooled(nn::PoolMode::kFresh);
  for (std::size_t s = 0; s < kSteps; ++s) {
    const std::vector<std::size_t>& path = (s % 2 == 0) ? path_a : path_b;
    const double dynamic_loss = dynamic_trainer.step(batch, path);
    const double planned_loss = planned_trainer.step(batch, path);
    SCOPED_TRACE("step " + std::to_string(s));
    EXPECT_EQ(dynamic_loss, planned_loss);
  }
  const nn::plan::PlanStats delta = nn::plan::global_stats() - before;
  EXPECT_EQ(delta.compiles, 2u);  // one plan per path
  EXPECT_GE(delta.hits, 4u);      // steps 5..8 all served by plans

  const core::SharedWTrainer::State a = dynamic_trainer.export_state();
  const core::SharedWTrainer::State b = planned_trainer.export_state();
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    SCOPED_TRACE("weight " + std::to_string(i));
    EXPECT_TRUE(bits_equal(a.weights[i], b.weights[i]));
    EXPECT_TRUE(bits_equal(a.velocity[i], b.velocity[i]));
  }
  EXPECT_EQ(a.step_counter, b.step_counter);
}

/// Noise-free linear predictor (same construction as the checkpoint
/// tests): the engine under test must be deterministic.
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

class EnginePlanTest : public ::testing::Test {
 protected:
  EnginePlanTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        model_(hw::DeviceProfile::jetson_xavier_maxn(), 8),
        task_(nn::make_synthetic_task(tiny_task())),
        predictor_(space_, model_) {}

  static core::LightNasConfig tiny_config(bool plan_enabled) {
    core::LightNasConfig config;
    config.target = 22.0;
    config.epochs = 6;
    config.warmup_epochs = 2;
    config.w_steps_per_epoch = 4;
    config.alpha_steps_per_epoch = 4;
    config.batch_size = 32;
    config.seed = 2;
    config.plan = nn::plan::PlanSettings{};
    config.plan.enabled = plan_enabled;
    config.plan.compile_after = 1;
    config.plan.max_plans = 64;
    return config;
  }
  static nn::SyntheticTaskConfig tiny_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 512;
    config.valid_size = 256;
    return config;
  }

  core::LightNas make_engine(const core::LightNasConfig& config) {
    return core::LightNas(space_, predictor_, task_,
                          core::SupernetConfig{}, config);
  }

  static void expect_identical(const core::SearchResult& a,
                               const core::SearchResult& b) {
    ASSERT_EQ(a.trace.size(), b.trace.size());
    EXPECT_EQ(a.architecture.ops(), b.architecture.ops());
    EXPECT_EQ(a.final_predicted_cost, b.final_predicted_cost);
    EXPECT_EQ(a.final_lambda, b.final_lambda);
    EXPECT_EQ(a.weight_updates, b.weight_updates);
    EXPECT_EQ(a.alpha_updates, b.alpha_updates);
    for (std::size_t e = 0; e < a.trace.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      EXPECT_EQ(a.trace[e].derived.ops(), b.trace[e].derived.ops());
      EXPECT_EQ(a.trace[e].lambda, b.trace[e].lambda);
      EXPECT_EQ(a.trace[e].predicted_cost, b.trace[e].predicted_cost);
      EXPECT_EQ(a.trace[e].sampled_cost_mean, b.trace[e].sampled_cost_mean);
      EXPECT_EQ(a.trace[e].valid_loss, b.trace[e].valid_loss);
      EXPECT_EQ(a.trace[e].valid_accuracy, b.trace[e].valid_accuracy);
    }
  }

  space::SearchSpace space_;
  hw::CostModel model_;
  nn::SyntheticTask task_;
  LinearOracle predictor_;
};

TEST_F(EnginePlanTest, PlannedSearchMatchesDynamicSearch) {
  const core::SearchResult dynamic =
      make_engine(tiny_config(false)).search();
  const core::SearchResult planned =
      make_engine(tiny_config(true)).search();
  expect_identical(dynamic, planned);
  // The plan layer must actually have engaged (every w-step does a
  // cache lookup) and its telemetry must surface in RunHealth.
  EXPECT_GT(planned.health.plan_misses + planned.health.plan_hits, 0u);
  EXPECT_EQ(dynamic.health.plan_misses, 0u);
  EXPECT_EQ(dynamic.health.plan_hits, 0u);
}

TEST_F(EnginePlanTest, PlannedResumeReproducesUninterruptedRun) {
  const core::SearchResult full = make_engine(tiny_config(true)).search();

  constexpr std::size_t kKillAt = 3;
  std::optional<core::SearchCheckpoint> saved;
  core::SearchHooks hooks;
  hooks.on_checkpoint = [&](const core::SearchCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= kKillAt; };
  const core::SearchResult partial =
      make_engine(tiny_config(true)).search(hooks);
  EXPECT_TRUE(partial.health.interrupted);
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->next_epoch, kKillAt);

  core::SearchHooks resume;
  resume.resume = &*saved;
  const core::SearchResult resumed =
      make_engine(tiny_config(true)).search(resume);
  EXPECT_TRUE(resumed.health.resumed);
  expect_identical(full, resumed);
}

}  // namespace
}  // namespace lightnas
