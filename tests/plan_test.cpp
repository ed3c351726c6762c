// Tests of the plan compiler (nn/plan.hpp): recording the supported op
// vocabulary, poisoning on anything else, bit-identity of compiled
// execution against the dynamic autograd path across ISA tiers, on
// job-level lanes and on real supernet w-step shapes, the plan
// telemetry counters, and the serialized plan artifact round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lightnas.hpp"
#include "core/search_step.hpp"
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

  const nn::plan::PlanStats before = nn::plan::global_stats();
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

  // Each rejected execute counts a miss, the clean one a hit.
  const nn::plan::PlanStats delta = nn::plan::global_stats() - before;
  EXPECT_EQ(delta.misses, 5u);
  EXPECT_EQ(delta.hits, 1u);
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

/// Plan-vs-dynamic on real supernet shapes: record one w-step of a
/// SharedWTrainer's supernet, compile it, and compare the executed loss
/// and every weight gradient bitwise against the dynamic backward of
/// the same step. The plan's parameter table must also name exactly the
/// weights the dynamic backward reports writing.
TEST(TrainerPlan, PlannedStepsMatchDynamicTrajectory) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const core::SearchTopology topology(space);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = 64;
  task_config.valid_size = 32;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);
  const core::SharedWTrainer trainer(topology, task, core::SupernetConfig{},
                                     core::LightNasConfig{}, 8);
  const std::vector<nn::VarPtr>& weights = trainer.weight_parameters();

  nn::Dataset batch;
  batch.features = nn::Tensor::uninitialized(8, task.train.feature_dim());
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t col = 0; col < batch.features.cols(); ++col) {
      batch.features.at(r, col) = task.train.features.at(r, col);
    }
    batch.labels.push_back(task.train.labels[r]);
  }

  const nn::PooledScope pooled(nn::PoolMode::kFresh);
  util::Rng rng(5);
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("path " + std::to_string(rep));
    const std::vector<std::size_t> path =
        space.random_architecture(rng).ops();
    for (const nn::VarPtr& w : weights) w->zero_grad();

    // Dynamic reference: loss, the leaves backward wrote, every grad.
    float dynamic_loss = 0.0f;
    std::vector<const nn::Var*> written;
    {
      const nn::VarPtr loss = nn::ops::softmax_cross_entropy(
          trainer.supernet().forward_single_path(batch.features, path),
          batch.labels);
      const std::vector<nn::Var*>& leaves = nn::backward(loss);
      written.assign(leaves.begin(), leaves.end());
      dynamic_loss = loss->value.item();
    }
    std::vector<nn::Tensor> dynamic_grads;
    for (const nn::VarPtr& w : weights) {
      dynamic_grads.push_back(w->grad);
      w->zero_grad();
    }

    std::unique_ptr<nn::plan::Program> program;
    {
      nn::plan::Recording recording;
      const nn::VarPtr loss = nn::ops::softmax_cross_entropy(
          trainer.supernet().forward_single_path(batch.features, path),
          batch.labels);
      program = recording.capture(loss);
    }
    ASSERT_NE(program, nullptr);
    std::vector<const nn::Var*> manifest;
    for (const nn::plan::ProgramSlot& slot : program->slots) {
      if (slot.kind == nn::plan::SlotKind::kParam) {
        manifest.push_back(slot.param.get());
      }
    }
    std::sort(manifest.begin(), manifest.end());
    std::sort(written.begin(), written.end());
    EXPECT_EQ(manifest, written);

    const nn::plan::PlanStats before = nn::plan::global_stats();
    const std::unique_ptr<nn::plan::ExecutionPlan> plan =
        nn::plan::ExecutionPlan::compile(*program,
                                         nn::plan::CompileOptions{});
    ASSERT_NE(plan, nullptr);
    ASSERT_TRUE(plan->execute({&batch.features}, {&batch.labels}));
    const nn::plan::PlanStats delta = nn::plan::global_stats() - before;
    EXPECT_EQ(delta.compiles, 1u);
    EXPECT_EQ(delta.hits, 1u);
    EXPECT_EQ(delta.fused_ops, plan->fused_ops());
    EXPECT_EQ(delta.arena_bytes, plan->arena_bytes());

    EXPECT_TRUE(float_bits_equal(dynamic_loss, plan->root_data()[0]));
    for (std::size_t i = 0; i < weights.size(); ++i) {
      SCOPED_TRACE("weight " + std::to_string(i));
      EXPECT_TRUE(bits_equal(dynamic_grads[i], weights[i]->grad));
    }
  }
}

}  // namespace
}  // namespace lightnas
