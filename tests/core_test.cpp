#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/gumbel.hpp"
#include "core/lightnas.hpp"
#include "core/search_step.hpp"
#include "core/supernet.hpp"
#include "nn/data.hpp"
#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "nn/pool.hpp"
#include "nn/simd.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/stats.hpp"

namespace lightnas::core {
namespace {

TEST(Gumbel, NoiseShapeAndMoments) {
  util::Rng rng(1);
  const nn::Tensor noise = gumbel_noise(50, 50, rng);
  EXPECT_EQ(noise.rows(), 50u);
  std::vector<double> xs;
  xs.reserve(noise.size());
  for (std::size_t i = 0; i < noise.size(); ++i) {
    xs.push_back(noise[i]);
  }
  EXPECT_NEAR(util::mean(xs), 0.5772, 0.05);
}

TEST(TemperatureSchedule, DecaysFromInitialToFinal) {
  const TemperatureSchedule sched(5.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(sched.at(0), 5.0);
  EXPECT_NEAR(sched.at(100), 0.1, 1e-9);
  EXPECT_NEAR(sched.at(1000), 0.1, 1e-9);
  for (std::size_t e = 1; e <= 100; ++e) {
    EXPECT_LT(sched.at(e), sched.at(e - 1));
  }
}

class SupernetTest : public ::testing::Test {
 protected:
  SupernetTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        task_(nn::make_synthetic_task(small_task())),
        net_(space_, task_.train.feature_dim(), 10, config()) {}

  static nn::SyntheticTaskConfig small_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 256;
    config.valid_size = 64;
    return config;
  }
  static SupernetConfig config() {
    SupernetConfig c;
    c.seed = 5;
    return c;
  }

  space::SearchSpace space_;
  nn::SyntheticTask task_;
  SurrogateSupernet net_;
};

TEST_F(SupernetTest, HiddenWidthGrowsWithKernelExpansionAndStage) {
  const space::Operator k3e3{space::OpKind::kMBConv, 3, 3};
  const space::Operator k3e6{space::OpKind::kMBConv, 3, 6};
  const space::Operator k7e6{space::OpKind::kMBConv, 7, 6};
  const space::Operator skip{space::OpKind::kSkip, 0, 0};
  EXPECT_EQ(net_.hidden_width(skip), 0u);
  EXPECT_LT(net_.hidden_width(k3e3), net_.hidden_width(k3e6));
  EXPECT_LT(net_.hidden_width(k3e6), net_.hidden_width(k7e6));
  EXPECT_LT(net_.hidden_width(k3e6, 1), net_.hidden_width(k3e6, 6));
}

TEST_F(SupernetTest, SinglePathOutputShape) {
  const space::Architecture arch = space_.mobilenet_v2_like();
  const nn::VarPtr logits =
      net_.forward_single_path(task_.valid.features, arch.ops());
  EXPECT_EQ(logits->value.rows(), task_.valid.size());
  EXPECT_EQ(logits->value.cols(), 10u);
}

TEST_F(SupernetTest, GatesValuedOneDoNotChangeOutput) {
  const space::Architecture arch = space_.mobilenet_v2_like();
  const nn::VarPtr plain =
      net_.forward_single_path(task_.valid.features, arch.ops());

  std::vector<nn::VarPtr> gates(space_.num_layers(), nullptr);
  for (std::size_t l = 1; l < space_.num_layers(); ++l) {
    gates[l] = nn::make_leaf(nn::Tensor::scalar(1.0f));
  }
  const nn::VarPtr gated =
      net_.forward_single_path(task_.valid.features, arch.ops(), gates);
  for (std::size_t i = 0; i < plain->value.size(); ++i) {
    ASSERT_NEAR(gated->value[i], plain->value[i], 1e-5f);
  }
}

TEST_F(SupernetTest, GateGradientsExistForEveryGatedLayer) {
  const space::Architecture arch = space_.mobilenet_v2_like();
  std::vector<nn::VarPtr> gates(space_.num_layers(), nullptr);
  for (std::size_t l = 1; l < space_.num_layers(); ++l) {
    gates[l] = nn::make_leaf(nn::Tensor::scalar(1.0f));
  }
  const nn::VarPtr logits =
      net_.forward_single_path(task_.valid.features, arch.ops(), gates);
  nn::backward(
      nn::ops::softmax_cross_entropy(logits, task_.valid.labels));
  for (std::size_t l = 1; l < space_.num_layers(); ++l) {
    EXPECT_NE(gates[l]->grad.item(), 0.0f) << "layer " << l;
  }
}

TEST_F(SupernetTest, MultiPathWithOneHotEqualsSinglePath) {
  util::Rng rng(7);
  const space::Architecture arch = space_.random_architecture(rng);
  nn::Tensor weights =
      nn::Tensor::zeros(space_.num_layers(), space_.num_ops());
  for (std::size_t l = 0; l < space_.num_layers(); ++l) {
    weights.at(l, arch.op_at(l)) = 1.0f;
  }
  const nn::VarPtr multi = net_.forward_multi_path(
      task_.valid.features, nn::make_const(std::move(weights)));
  const nn::VarPtr single =
      net_.forward_single_path(task_.valid.features, arch.ops());
  for (std::size_t i = 0; i < multi->value.size(); ++i) {
    ASSERT_NEAR(multi->value[i], single->value[i], 1e-4f);
  }
}

TEST_F(SupernetTest, MultiPathMemoryIsKTimesSinglePath) {
  // The Sec 3.3 / Table 1 claim quantified: multi-path activation
  // memory is ~K x the single-path footprint.
  const double ratio =
      static_cast<double>(net_.activations_multi_path(128)) /
      static_cast<double>(net_.activations_single_path(128));
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, static_cast<double>(space_.num_ops()) + 1.0);
}

TEST_F(SupernetTest, WeightParametersCoverAllBlocks) {
  // stem (2) + classifier (2) + 22 layers x 6 MBConv blocks x 4 tensors.
  const std::size_t expected = 2 + 2 + 22 * 6 * 4;
  EXPECT_EQ(net_.weight_parameters().size(), expected);
}

class SearchTest : public ::testing::Test {
 protected:
  static LightNasConfig tiny_config(double target) {
    LightNasConfig config;
    config.target = target;
    config.epochs = 8;
    config.warmup_epochs = 3;
    config.w_steps_per_epoch = 4;
    config.alpha_steps_per_epoch = 4;
    config.batch_size = 32;
    config.seed = 2;
    return config;
  }
  static nn::SyntheticTaskConfig tiny_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 512;
    config.valid_size = 256;
    return config;
  }

  /// A cheap, perfectly-trained stand-in predictor for engine tests:
  /// linear in the encoding (like a LUT) but built directly from the
  /// noise-free cost model.
  class LinearOracle : public predictors::HardwarePredictor {
   public:
    LinearOracle(const space::SearchSpace& space, const hw::CostModel& model)
        : space_(&space) {
      weights_.resize(space.num_layers() * space.num_ops());
      // Per-op marginal cost relative to an all-skip base.
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
      for (std::size_t i = 0; i < enc.size(); ++i) {
        total += enc[i] * weights_[i];
      }
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

  space::SearchSpace space_ = space::SearchSpace::fbnet_xavier();
  hw::CostModel model_{hw::DeviceProfile::jetson_xavier_maxn(), 8};
};

TEST_F(SearchTest, TraceIsComplete) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNas engine(space_, predictor, task, SupernetConfig{},
                  tiny_config(22.0));
  const SearchResult result = engine.search();
  EXPECT_EQ(result.trace.size(), 8u);
  EXPECT_EQ(result.weight_updates, 8u * 4u);
  EXPECT_EQ(result.alpha_updates, 5u * 4u);
  for (const SearchEpochStats& stats : result.trace) {
    EXPECT_GT(stats.tau, 0.0);
    EXPECT_GT(stats.predicted_cost, 0.0);
    EXPECT_EQ(stats.derived.num_layers(), space_.num_layers());
    EXPECT_GE(stats.valid_accuracy, 0.0);
    EXPECT_LE(stats.valid_accuracy, 1.0);
  }
}

TEST_F(SearchTest, LambdaMovesTowardConstraint) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  // Start far below an unreachable target: lambda must go negative to
  // reward latency (Sec 3.4).
  LightNas engine(space_, predictor, task, SupernetConfig{},
                  tiny_config(33.0));
  const SearchResult result = engine.search();
  EXPECT_LT(result.final_lambda, 0.0);
  // And the search raised the architecture's cost from the all-op-0
  // initialization.
  const double initial = predictor.predict(space_.uniform_architecture(0));
  EXPECT_GT(result.final_predicted_cost, initial);
}

TEST_F(SearchTest, ReproducibleForSameSeed) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNas a(space_, predictor, task, SupernetConfig{}, tiny_config(22.0));
  LightNas b(space_, predictor, task, SupernetConfig{}, tiny_config(22.0));
  EXPECT_EQ(a.search().architecture.ops(), b.search().architecture.ops());
}

TEST_F(SearchTest, DifferentSeedsExploreDifferently) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNasConfig c1 = tiny_config(22.0);
  LightNasConfig c2 = tiny_config(22.0);
  c2.seed = 77;
  LightNas a(space_, predictor, task, SupernetConfig{}, c1);
  LightNas b(space_, predictor, task, SupernetConfig{}, c2);
  EXPECT_NE(a.search().architecture.ops(), b.search().architecture.ops());
}

TEST_F(SearchTest, FixedLayerNeverChanges) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNas engine(space_, predictor, task, SupernetConfig{},
                  tiny_config(25.0));
  const SearchResult result = engine.search();
  EXPECT_EQ(result.architecture.op_at(0), 0u);
  for (const SearchEpochStats& stats : result.trace) {
    EXPECT_EQ(stats.derived.op_at(0), 0u);
  }
}

/// True when every element of `t` is +0.0f (an empty, never-allocated
/// gradient counts as zero).
bool all_positive_zero(const nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    const float value = t[i];
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    if (bits != 0) return false;
  }
  return true;
}

bool bits_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// The trainer's one w-step path (backward's leaf list driving a sparse
/// optimizer step) against a hand loop over an identical supernet that
/// runs the dense Sgd::step and zero_grad, with alpha steps leaking
/// weight grads in between and a rollback through restore_state.
TEST(SharedWTrainerTest, SparseStepMatchesDenseReference) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const SearchTopology topology(space);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = 256;
  task_config.valid_size = 64;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  predictors::MlpPredictor::State pstate =
      predictors::MlpPredictor(space.num_layers(), space.num_ops(), 7)
          .export_state();
  pstate.trained = true;
  pstate.target_mean = 20.0;
  pstate.target_std = 4.0;
  const predictors::MlpPredictor predictor =
      predictors::MlpPredictor::from_state(pstate);
  const std::vector<Constraint> constraints{{&predictor, 22.0}};

  constexpr std::size_t kSteps = 40;
  LightNasConfig config;
  config.seed = 4;
  SharedWTrainer trainer(topology, task, SupernetConfig{}, config, kSteps);
  // The reference trainer only supplies an identical supernet; its
  // weights are stepped by the hand loop below.
  const SharedWTrainer reference(topology, task, SupernetConfig{}, config,
                                 kSteps);
  const std::vector<nn::VarPtr>& ref_weights = reference.weight_parameters();
  nn::Sgd dense(ref_weights, config.w_lr, config.w_momentum,
                config.w_weight_decay, /*clip_norm=*/5.0);
  const nn::CosineSchedule schedule(config.w_lr, kSteps);
  std::size_t ref_counter = 0;

  AlphaLambdaHead head(topology, constraints, config);
  AlphaLambdaHead ref_head(topology, constraints, config);

  util::Rng batch_rng(11);
  nn::Batcher batches(task.train, 8, batch_rng);
  util::Rng path_rng(12);
  util::Rng alpha_rng(13);
  util::Rng ref_alpha_rng(13);

  SharedWTrainer::State snapshot;
  nn::Sgd::State ref_velocity;
  std::vector<nn::Tensor> ref_snapshot;
  std::size_t ref_snapshot_counter = 0;

  for (std::size_t s = 0; s < kSteps; ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const nn::Dataset batch = batches.next();
    const std::vector<std::size_t> path =
        space.random_architecture(path_rng).ops();

    const double loss = trainer.step(batch, path);
    for (const nn::VarPtr& w : trainer.weight_parameters()) {
      ASSERT_TRUE(all_positive_zero(w->grad));
    }

    const nn::VarPtr ref_loss = nn::ops::softmax_cross_entropy(
        reference.supernet().forward_single_path(batch.features, path),
        batch.labels);
    nn::backward(ref_loss);
    dense.set_lr(schedule.lr_at(ref_counter++));
    dense.step();
    dense.zero_grad();
    EXPECT_EQ(loss, static_cast<double>(ref_loss->value.item()));

    if (s % 4 == 3) {
      const nn::Dataset valid = batches.next();
      head.alpha_step(trainer.supernet(), trainer.weight_parameters(), valid,
                      1.0, alpha_rng);
      ref_head.alpha_step(reference.supernet(), ref_weights, valid, 1.0,
                          ref_alpha_rng);
    }
    if (s == 12) {
      snapshot = trainer.export_state();
      ref_snapshot.clear();
      for (const nn::VarPtr& w : ref_weights) ref_snapshot.push_back(w->value);
      ref_velocity = dense.export_state();
      ref_snapshot_counter = ref_counter;
    }
    if (s == 25) {
      trainer.restore_state(snapshot);
      for (std::size_t i = 0; i < ref_weights.size(); ++i) {
        ref_weights[i]->value = ref_snapshot[i];
      }
      dense.restore_state(ref_velocity);
      ref_counter = ref_snapshot_counter;
    }
  }

  const SharedWTrainer::State got = trainer.export_state();
  const std::vector<nn::Tensor> want_velocity = dense.export_state().velocity;
  ASSERT_EQ(got.weights.size(), ref_weights.size());
  for (std::size_t i = 0; i < ref_weights.size(); ++i) {
    SCOPED_TRACE("weight " + std::to_string(i));
    EXPECT_TRUE(bits_equal(got.weights[i], ref_weights[i]->value));
    EXPECT_TRUE(bits_equal(got.velocity[i], want_velocity[i]));
  }
  EXPECT_EQ(got.step_counter, ref_counter);
  EXPECT_TRUE(bits_equal(head.alpha()->value, ref_head.alpha()->value));
}


// ---- graph-free evaluation ----------------------------------------------

/// The graph path every epoch evaluation ran before evaluate():
/// forward_single_path, then the softmax-CE op and ops::accuracy.
EvalResult graph_eval(const SurrogateSupernet& net, const nn::Dataset& data,
                      const std::vector<std::size_t>& op_choice) {
  const nn::VarPtr logits = net.forward_single_path(data.features, op_choice);
  const nn::VarPtr loss = nn::ops::softmax_cross_entropy(logits, data.labels);
  return {static_cast<double>(loss->value.item()),
          nn::ops::accuracy(logits->value, data.labels)};
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Every ISA tier this host can run: scalar, then AVX2 when compiled in
/// and supported.
std::vector<nn::simd::IsaLevel> host_isa_tiers() {
  using nn::simd::IsaLevel;
  std::vector<IsaLevel> tiers = {IsaLevel::kScalar};
  if (nn::simd::detect_best() == IsaLevel::kAvx2) {
    tiers.push_back(IsaLevel::kAvx2);
  }
  return tiers;
}

class SupernetEvaluateTest : public ::testing::Test {
 protected:
  SupernetEvaluateTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        task_(nn::make_synthetic_task(task_config())),
        net_(space_, task_.valid.feature_dim(), 10, SupernetConfig{}) {
    // Biases start at zero; give them values so the bias adds are tested.
    util::Rng rng(30);
    for (const nn::VarPtr& p : net_.weight_parameters()) {
      if (p->value.rows() == 1) {
        p->value = nn::Tensor::randn(1, p->value.cols(), rng, 0.1f);
      }
    }
  }

  /// The default 2,048 validation rows, a small training split.
  static nn::SyntheticTaskConfig task_config() {
    nn::SyntheticTaskConfig config;
    config.train_size = 256;
    return config;
  }

  /// Seeded random paths plus the all-SkipConnect and all-widest ones.
  std::vector<std::vector<std::size_t>> paths() const {
    util::Rng rng(31);
    std::vector<std::vector<std::size_t>> out;
    for (int i = 0; i < 2; ++i) {
      out.push_back(space_.random_architecture(rng).ops());
    }
    const space::OperatorSpace& ops = space_.ops();
    out.push_back(space_.uniform_architecture(ops.skip_index()).ops());
    out.push_back(space_.uniform_architecture(ops.mbconv_index(7, 6)).ops());
    return out;
  }

  /// The first `rows` validation rows.
  nn::Dataset first_rows(std::size_t rows) const {
    std::vector<std::size_t> indices(rows);
    for (std::size_t i = 0; i < rows; ++i) indices[i] = i;
    return task_.valid.gather(indices);
  }

  space::SearchSpace space_;
  nn::SyntheticTask task_;
  SurrogateSupernet net_;
};

TEST_F(SupernetEvaluateTest, MatchesGraphPathBitForBit) {
  const std::vector<std::vector<std::size_t>> all_paths = paths();
  // Row counts on both sides of evaluate's row-tile edges, a single
  // row and the whole validation set.
  constexpr std::size_t kTile = SurrogateSupernet::kEvalTileRows;
  const std::size_t row_counts[] = {
      1, 7, 48, kTile - 1, kTile, kTile + 1, 2 * kTile - 1, 2 * kTile + 1,
      2047, 2048};
  for (const std::size_t rows : row_counts) {
    const nn::Dataset data = first_rows(rows);
    for (const nn::PoolMode mode :
         {nn::PoolMode::kFresh, nn::PoolMode::kDisabled}) {
      nn::PooledScope pool(mode);
      for (const nn::simd::IsaLevel level : host_isa_tiers()) {
        nn::simd::ScopedIsa isa(level);
        for (std::size_t p = 0; p < all_paths.size(); ++p) {
          SCOPED_TRACE("rows " + std::to_string(rows) + ", pool " +
                       (mode == nn::PoolMode::kFresh ? "on" : "off") +
                       ", isa " + nn::simd::isa_name(level) + ", path " +
                       std::to_string(p));
          const EvalResult want = graph_eval(net_, data, all_paths[p]);
          const EvalResult got = net_.evaluate(data, all_paths[p]);
          EXPECT_EQ(double_bits(got.loss), double_bits(want.loss));
          EXPECT_EQ(got.accuracy, want.accuracy);
        }
      }
    }
  }
}

TEST_F(SupernetEvaluateTest, PoolRetentionIndependentOfRows) {
  const std::vector<std::vector<std::size_t>> all_paths = paths();
  // What a fresh pool keeps after every path ran on `rows` rows. The
  // data is built outside the scope, so only evaluate's buffers count.
  const auto retained_bytes = [&](std::size_t rows) {
    const nn::Dataset data = first_rows(rows);
    nn::PooledScope pool(nn::PoolMode::kFresh);
    for (const std::vector<std::size_t>& path : all_paths) {
      net_.evaluate(data, path);
    }
    return pool.pool().free_bytes();
  };
  const std::size_t tile = retained_bytes(SurrogateSupernet::kEvalTileRows);
  const std::size_t full = retained_bytes(2048);
  // The whole set adds only its n x classes logits and probabilities;
  // every activation buffer stays tile-sized.
  const std::size_t whole_set_outputs =
      2 * 2048 * net_.num_classes() * sizeof(float);
  EXPECT_LE(full, tile + whole_set_outputs)
      << "one tile leaves " << tile << " B, 2048 rows leave " << full
      << " B";
}

TEST_F(SupernetEvaluateTest, NanBlockWeightGivesNanLossOnBothPaths) {
  const std::vector<std::size_t> path =
      space_.uniform_architecture(0).ops();
  bool planted = false;
  for (const nn::VarPtr& p : net_.weight_parameters()) {
    if (p->name != "supernet.l5.k0.fc1.W") continue;
    p->value[0] = std::numeric_limits<float>::quiet_NaN();
    planted = true;
  }
  ASSERT_TRUE(planted);
  const nn::Dataset data = first_rows(48);
  const EvalResult want = graph_eval(net_, data, path);
  const EvalResult got = net_.evaluate(data, path);
  EXPECT_TRUE(std::isnan(want.loss));
  EXPECT_TRUE(std::isnan(got.loss));
  EXPECT_EQ(got.accuracy, want.accuracy);
}

TEST_F(SupernetEvaluateTest, BuildsNoGraphAndIsThreadSafe) {
  const std::vector<std::vector<std::size_t>> all_paths = paths();
  const nn::Dataset data = first_rows(256);
  // Sentinel gradients: evaluation must neither write nor reshape them.
  const std::vector<nn::VarPtr> weights = net_.weight_parameters();
  for (const nn::VarPtr& w : weights) {
    w->ensure_grad();
    w->grad.fill(0.5f);
  }

  std::vector<EvalResult> serial;
  {
    nn::PooledScope pool(nn::PoolMode::kFresh);
    const std::size_t before = nn::vars_created();
    for (const std::vector<std::size_t>& path : all_paths) {
      serial.push_back(net_.evaluate(data, path));
    }
    EXPECT_EQ(nn::vars_created() - before, 0u);
    // The graph path, by contrast, creates a Var per op.
    graph_eval(net_, data, all_paths.front());
    EXPECT_GT(nn::vars_created() - before, 0u);
  }
  for (const nn::VarPtr& w : weights) {
    ASSERT_TRUE(bits_equal(w->grad, nn::Tensor::full(w->value.rows(),
                                                      w->value.cols(), 0.5f)))
        << w->name;
  }

  // Four threads evaluating the one supernet at once, each under its
  // own pool, reproduce the serial bits.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<EvalResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      nn::PooledScope pool(nn::PoolMode::kFresh);
      for (std::size_t i = 0; i < all_paths.size(); ++i) {
        const std::size_t p = (i + t) % all_paths.size();
        got[t].push_back(net_.evaluate(data, all_paths[p]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < all_paths.size(); ++i) {
      const std::size_t p = (i + t) % all_paths.size();
      EXPECT_EQ(double_bits(got[t][i].loss), double_bits(serial[p].loss))
          << "thread " << t << ", path " << p;
      EXPECT_EQ(got[t][i].accuracy, serial[p].accuracy);
    }
  }
}
// --- watchdog verdict and result selection -------------------------------

/// One row per watchdog trigger (and per boundary), on a two-constraint
/// epoch. The search and the campaign both read this verdict.
TEST(WatchdogVerdict, OneCasePerTrigger) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const WatchdogConfig on;  // lambda_limit 75, collapse 0.25 over >= 0.30
  WatchdogConfig off;
  off.enabled = false;

  struct Case {
    std::string name;
    WatchdogConfig watchdog;
    double valid_loss;
    float alpha_entry;
    std::vector<double> lambdas;
    std::vector<double> costs;
    double accuracy;
    double best_accuracy;
    std::string reason;
  };
  const std::vector<Case> cases = {
      {"healthy", on, 1.0, 0.5f, {1.0, -2.0}, {20.0, 5.0}, 0.5, 0.6, ""},
      {"non-finite loss", on, nan, 0.5f, {1.0, -2.0}, {20.0, 5.0}, 0.5, 0.6,
       "non-finite validation loss"},
      {"loss is checked before alpha", on, inf, nan, {1.0, 80.0},
       {20.0, 5.0}, 0.5, 0.6, "non-finite validation loss"},
      {"non-finite alpha", on, 1.0, static_cast<float>(inf), {1.0, -2.0},
       {20.0, 5.0}, 0.5, 0.6, "non-finite alpha"},
      {"runaway lambda on the second constraint", on, 1.0, 0.5f,
       {1.0, 80.0}, {20.0, 5.0}, 0.5, 0.6,
       "runaway lambda (constraint 1, value 80.000000)"},
      {"negative runaway lambda", on, 1.0, 0.5f, {-76.0, 1.0}, {20.0, 5.0},
       0.5, 0.6, "runaway lambda (constraint 0, value -76.000000)"},
      {"lambda at the limit is healthy", on, 1.0, 0.5f, {75.0, -75.0},
       {20.0, 5.0}, 0.5, 0.6, ""},
      {"non-finite lambda", on, 1.0, 0.5f, {1.0, nan}, {20.0, 5.0}, 0.5, 0.6,
       "runaway lambda (constraint 1, value nan)"},
      {"constraint 0's cost before constraint 1's lambda", on, 1.0, 0.5f,
       {1.0, 80.0}, {nan, 5.0}, 0.5, 0.6,
       "non-finite predicted cost (constraint 0)"},
      {"non-finite cost on the second constraint", on, 1.0, 0.5f,
       {1.0, -2.0}, {20.0, inf}, 0.5, 0.6,
       "non-finite predicted cost (constraint 1)"},
      {"accuracy collapse", on, 1.0, 0.5f, {1.0, -2.0}, {20.0, 5.0}, 0.1,
       0.6, "accuracy collapse (0.100000 vs best 0.600000)"},
      {"at the collapse fraction is healthy", on, 1.0, 0.5f, {1.0, -2.0},
       {20.0, 5.0}, 0.15, 0.6, ""},
      {"best exactly at min_reference_accuracy", on, 1.0, 0.5f, {1.0, -2.0},
       {20.0, 5.0}, 0.0, 0.30,
       "accuracy collapse (0.000000 vs best 0.300000)"},
      {"best below min_reference_accuracy", on, 1.0, 0.5f, {1.0, -2.0},
       {20.0, 5.0}, 0.0, 0.29, ""},
      {"disabled", off, nan, nan, {nan, 1e9}, {nan, nan}, 0.0, 0.9, ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SearchEpochStats stats;
    stats.valid_loss = c.valid_loss;
    stats.valid_accuracy = c.accuracy;
    stats.lambdas = c.lambdas;
    stats.predicted_costs = c.costs;
    stats.lambda = c.lambdas.front();
    stats.predicted_cost = c.costs.front();
    nn::Tensor alpha = nn::Tensor::zeros(2, 3);
    alpha.at(1, 2) = c.alpha_entry;
    EXPECT_EQ(watchdog_verdict(c.watchdog, stats, alpha, c.best_accuracy),
              c.reason);
  }
}

std::vector<SearchEpochStats> trace_of_costs(
    const std::vector<double>& costs) {
  std::vector<SearchEpochStats> trace(costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    trace[i].epoch = i;
    trace[i].predicted_cost = costs[i];
    trace[i].predicted_costs = {costs[i]};
  }
  return trace;
}

TEST(TraceSelection, TheWorstConstraintDecides) {
  const std::vector<Constraint> two{{nullptr, 20.0}, {nullptr, 5.0}};
  std::vector<SearchEpochStats> trace = trace_of_costs({0, 0, 0, 0, 0, 0,
                                                        0, 0});
  trace[6].predicted_costs = {22.0, 5.5};  // worst gap 0.1
  trace[7].predicted_costs = {20.0, 4.0};  // worst gap 0.2
  EXPECT_EQ(select_snapshot(trace, two, false), 6u);
  // A snapshot missing a constraint's cost never wins.
  trace[6].predicted_costs = {20.0};
  EXPECT_EQ(select_snapshot(trace, two, false), 7u);
  EXPECT_EQ(select_snapshot(trace, two, true), 7u);
}

TEST(TraceSelection, PicksTheClosestSnapshotOfTheLastQuarter) {
  const std::vector<Constraint> one{{nullptr, 20.0}};
  // Eight epochs: the window is epochs 6 and 7; epoch 0 is exact but
  // outside it.
  const auto eight =
      trace_of_costs({20.0, 30.0, 30.0, 30.0, 30.0, 30.0, 21.0, 22.0});
  EXPECT_EQ(select_snapshot(eight, one, false), 6u);
  EXPECT_EQ(select_snapshot(eight, one, true), 6u);
  // Fewer than four epochs: the window is the last one alone.
  const auto three = trace_of_costs({20.0, 25.0, 30.0});
  EXPECT_EQ(select_snapshot(three, one, false), 2u);
  EXPECT_EQ(select_snapshot(three, one, true), 2u);
}

TEST(TraceSelection, TiesKeepTheLastSnapshotUnlessTheRunAborted) {
  const std::vector<Constraint> one{{nullptr, 20.0}};
  // 18 and 22 tie: the last snapshot keeps its place, but after an
  // abort the earliest closest snapshot wins.
  const auto tie_with_last =
      trace_of_costs({0, 0, 0, 0, 0, 0, 0, 0, 30, 22, 18, 22});
  EXPECT_EQ(select_snapshot(tie_with_last, one, false), 11u);
  EXPECT_EQ(select_snapshot(tie_with_last, one, true), 9u);
  // A tie that does not involve the last snapshot goes to the earliest.
  const auto tie_inside =
      trace_of_costs({0, 0, 0, 0, 0, 0, 0, 0, 30, 22, 18, 25});
  EXPECT_EQ(select_snapshot(tie_inside, one, false), 9u);
}

TEST(TraceSelection, NonFiniteCostsNeverWin) {
  const std::vector<Constraint> one{{nullptr, 20.0}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(select_snapshot(trace_of_costs({1, 1, 1, 1, 1, 1, 25, nan}),
                            one, false),
            6u);
  EXPECT_EQ(select_snapshot(trace_of_costs({1, 1, 1, 1, 1, 1, 25, nan}),
                            one, true),
            6u);
  // With nothing finite in the window the last snapshot stands.
  EXPECT_EQ(select_snapshot(trace_of_costs({20, nan}), one, true), 1u);
}

}  // namespace
}  // namespace lightnas::core
