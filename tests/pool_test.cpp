#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "core/lightnas.hpp"
#include "nn/ops.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"
#include "predictors/mlp_predictor.hpp"

namespace lightnas::nn {
namespace {

TEST(TensorPoolTest, ShapeBucketReuseHandsBackTheSameBuffer) {
  PooledScope scope(PoolMode::kFresh);
  const float* raw = nullptr;
  {
    Tensor t(4, 8, 1.0f);
    raw = t.data().data();
  }  // buffer released to the 32-element bucket
  EXPECT_EQ(scope.pool().free_buffers(), 1u);
  // Different shape, same element count -> same bucket, same buffer.
  Tensor u(8, 4, 2.0f);
  EXPECT_EQ(u.data().data(), raw);
  const PoolStats stats = scope.pool().stats();
  EXPECT_EQ(stats.buffer_hits, 1u);
  EXPECT_EQ(stats.buffer_misses, 1u);
  EXPECT_EQ(stats.bytes_recycled, 32 * sizeof(float));
}

TEST(TensorPoolTest, DifferentSizeMissesTheBucket) {
  PooledScope scope(PoolMode::kFresh);
  { Tensor t(4, 8); }
  Tensor u(5, 8);  // 40 elements: no 40-bucket yet
  const PoolStats stats = scope.pool().stats();
  EXPECT_EQ(stats.buffer_hits, 0u);
  EXPECT_EQ(stats.buffer_misses, 2u);
}

TEST(TensorPoolTest, RecycledBuffersAreFullyOverwritten) {
  PooledScope scope(PoolMode::kFresh);
  {
    Tensor garbage(3, 3);
    garbage.fill(123.0f);
  }
  const Tensor zeros = Tensor::zeros(3, 3);
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    EXPECT_EQ(zeros[i], 0.0f);
  }
  EXPECT_EQ(scope.pool().stats().buffer_hits, 1u);
}

TEST(TensorPoolTest, DisabledScopeMasksTheOuterPool) {
  PooledScope outer(PoolMode::kFresh);
  ASSERT_NE(TensorPool::active(), nullptr);
  {
    PooledScope inner(PoolMode::kDisabled);
    EXPECT_EQ(TensorPool::active(), nullptr);
    Tensor t(4, 4);  // plain heap path
  }
  EXPECT_EQ(TensorPool::active(), &outer.pool());
  const PoolStats stats = outer.pool().stats();
  EXPECT_EQ(stats.buffer_hits + stats.buffer_misses, 0u);
}

TEST(TensorPoolTest, DisabledScopeMasksNestedInheritButNotFresh) {
  PooledScope off(PoolMode::kDisabled);
  {
    PooledScope inner(PoolMode::kInherit);
    EXPECT_EQ(TensorPool::active(), nullptr);
    {
      PooledScope fresh(PoolMode::kFresh);
      ASSERT_NE(TensorPool::active(), nullptr);
      EXPECT_EQ(TensorPool::active(), &fresh.pool());
      // Under a fresh pool a nested kInherit pools again.
      PooledScope nested(PoolMode::kInherit);
      EXPECT_EQ(TensorPool::active(), &fresh.pool());
    }
    EXPECT_EQ(TensorPool::active(), nullptr);
  }
  EXPECT_EQ(TensorPool::active(), nullptr);
}

TEST(TensorPoolTest, InheritScopeReusesTheOuterPool) {
  PooledScope outer(PoolMode::kFresh);
  {
    PooledScope inner(PoolMode::kInherit);
    EXPECT_EQ(&inner.pool(), &outer.pool());
    { Tensor t(2, 2); }
  }
  EXPECT_EQ(outer.pool().free_buffers(), 1u);
  // The buffer survived the inner scope; reuse it from the outer one.
  Tensor t(2, 2);
  EXPECT_EQ(outer.pool().stats().buffer_hits, 1u);
}

TEST(TensorPoolTest, CopyAssignReusesTheDestinationCapacity) {
  PooledScope scope(PoolMode::kFresh);
  Tensor a(4, 4, 1.0f);
  Tensor b(4, 4, 2.0f);
  const float* raw = a.data().data();
  a = b;  // fits in place: no pool traffic
  EXPECT_EQ(a.data().data(), raw);
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(scope.pool().stats().buffer_misses, 2u);
}

// Buffers may be created under one thread's pool and destroyed under
// another's (serve workers hand batches around); the destroying thread
// simply adopts the buffer. Run with LIGHTNAS_TSAN=ON to verify the
// handout involves no data races.
TEST(TensorPoolTest, CrossThreadHandoutDonatesToTheDestroyingThread) {
  std::vector<Tensor> made_on_worker;
  std::thread producer([&] {
    PooledScope scope(PoolMode::kFresh);
    for (int i = 0; i < 8; ++i) {
      made_on_worker.emplace_back(4, 4, static_cast<float>(i));
    }
    // Worker's pool dies here; the tensors above outlive it untouched.
  });
  producer.join();

  PooledScope scope(PoolMode::kFresh);
  ASSERT_EQ(made_on_worker.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(made_on_worker[static_cast<std::size_t>(i)].at(1, 1),
              static_cast<float>(i));
  }
  made_on_worker.clear();  // destroyed here: donated to THIS pool
  EXPECT_EQ(scope.pool().free_buffers(), 8u);
  Tensor reuse(4, 4);
  EXPECT_EQ(scope.pool().stats().buffer_hits, 1u);
}

TEST(TensorPoolTest, GlobalStatsAggregateAcrossThreads) {
  const PoolStats before = TensorPool::global_stats();
  std::thread worker([] {
    PooledScope scope(PoolMode::kFresh);
    { Tensor t(16, 16); }
    Tensor u(16, 16);
  });
  worker.join();
  const PoolStats delta = TensorPool::global_stats() - before;
  EXPECT_GE(delta.buffer_hits, 1u);
  EXPECT_GE(delta.buffer_misses, 1u);
}

// -- graph recycling ---------------------------------------------------

VarPtr tiny_loss(const VarPtr& w, const Tensor& x, bool alternate_op) {
  VarPtr h = ops::matmul(make_const(x), w);
  h = alternate_op ? ops::sigmoid(h) : ops::relu(h);
  return ops::mean_all(h);
}

/// Diamond: `h` feeds two branches that rejoin, so backward() adds two
/// gradients into it, in the order its single DFS visits the branches.
VarPtr diamond_loss(const VarPtr& w, const Tensor& x) {
  const VarPtr h = ops::matmul(make_const(x), w);
  return ops::mean_all(ops::add(ops::relu(h), ops::sigmoid(h)));
}

/// Deterministic values of both signs, so relu masks some entries.
Tensor ramp(std::size_t rows, std::size_t cols, float step, float offset) {
  Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = offset + step * static_cast<float>(i % 7);
  }
  return t;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// The gradient one step of `loss` leaves in `w0` with pooling off.
template <typename Loss>
Tensor unpooled_grad(const Tensor& w0, const Loss& loss) {
  PooledScope off(PoolMode::kDisabled);
  VarPtr w = make_leaf(w0, "w");
  backward(loss(w));
  return w->grad;
}

TEST(GraphRecyclingTest, OpChoiceAlternationIsBitIdenticalToUnpooled) {
  const Tensor w0 = ramp(4, 3, 0.35f, -0.8f);
  const Tensor x = ramp(2, 4, 0.3f, -0.5f);
  const Tensor want[2] = {
      unpooled_grad(w0,
                    [&](const VarPtr& w) { return tiny_loss(w, x, false); }),
      unpooled_grad(w0,
                    [&](const VarPtr& w) { return tiny_loss(w, x, true); })};
  ASSERT_FALSE(bit_equal(want[0], want[1]));

  PooledScope scope(PoolMode::kFresh);
  VarPtr w = make_leaf(w0, "w");
  // Warm both op choices (relu, then sigmoid) so every buffer size and
  // node count has been seen once.
  for (const bool sigmoid : {false, true}) {
    w->zero_grad();
    backward(tiny_loss(w, x, sigmoid));
  }
  const PoolStats warm = scope.pool().stats();

  // A mid-search op-choice flip at the same shapes, every step.
  for (int step = 0; step < 6; ++step) {
    const bool sigmoid = step % 2 == 1;
    w->zero_grad();
    backward(tiny_loss(w, x, sigmoid));
    ASSERT_TRUE(bit_equal(w->grad, want[sigmoid ? 1 : 0]))
        << "step " << step;
  }
  const PoolStats steady = scope.pool().stats() - warm;
  EXPECT_EQ(steady.buffer_misses, 0u);
}

TEST(GraphRecyclingTest, DiamondGraphIsBitIdenticalToUnpooled) {
  const Tensor w0 = ramp(4, 3, 0.35f, -0.8f);
  const Tensor x = ramp(2, 4, 0.3f, -0.5f);
  const auto loss = [&](const VarPtr& w) { return diamond_loss(w, x); };
  const Tensor want = unpooled_grad(w0, loss);

  PooledScope scope(PoolMode::kFresh);
  VarPtr w = make_leaf(w0, "w");
  {
    const VarPtr root = loss(w);
    // x, w, h, relu, sigmoid, add, mean: the shared `h` counts once.
    EXPECT_EQ(graph_size(root), 7u);
    backward(root);
  }
  ASSERT_TRUE(bit_equal(w->grad, want));
  const PoolStats warm = scope.pool().stats();

  for (int step = 0; step < 3; ++step) {
    w->zero_grad();
    backward(loss(w));
    ASSERT_TRUE(bit_equal(w->grad, want)) << "step " << step;
  }
  const PoolStats steady = scope.pool().stats() - warm;
  EXPECT_EQ(steady.buffer_misses, 0u);
}

TEST(GraphRecyclingTest, RecycledBuffersStartWithZeroedGrads) {
  PooledScope scope(PoolMode::kFresh);
  VarPtr w = make_leaf(Tensor(4, 3, 0.5f), "w");
  const Tensor x(2, 4, 1.0f);

  backward(tiny_loss(w, x, false));
  const Tensor first_grad = w->grad;
  for (int step = 0; step < 3; ++step) {
    w->zero_grad();
    backward(tiny_loss(w, x, false));
    // A stale gradient left in a recycled buffer would corrupt this
    // accumulation; every step must match the first.
    for (std::size_t i = 0; i < first_grad.size(); ++i) {
      ASSERT_EQ(w->grad[i], first_grad[i]) << "step " << step;
    }
  }
}

TEST(GraphRecyclingTest, PooledGradientsMatchUnpooled) {
  Tensor unpooled_grad;
  {
    PooledScope off(PoolMode::kDisabled);
    VarPtr w = make_leaf(Tensor(4, 3, 0.25f), "w");
    backward(tiny_loss(w, Tensor(2, 4, 1.0f), false));
    unpooled_grad = w->grad;
  }
  PooledScope on(PoolMode::kFresh);
  VarPtr w = make_leaf(Tensor(4, 3, 0.25f), "w");
  for (int step = 0; step < 3; ++step) {
    w->zero_grad();
    backward(tiny_loss(w, Tensor(2, 4, 1.0f), false));
    for (std::size_t i = 0; i < unpooled_grad.size(); ++i) {
      ASSERT_EQ(w->grad[i], unpooled_grad[i]) << "step " << step;
    }
  }
}

// -- end-to-end bit-identity: pooling must be invisible ----------------

/// Noise-free linear predictor (same construction as the core tests).
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
    for (std::size_t i = 0; i < enc.size(); ++i) {
      total += enc[i] * weights_[i];
    }
    return total;
  }
  VarPtr forward_var(const VarPtr& encoding) const override {
    Tensor w(weights_.size(), 1);
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      w[i] = static_cast<float>(weights_[i]);
    }
    return ops::add_scalar(ops::matmul(encoding, make_const(std::move(w))),
                           base_);
  }
  std::string unit() const override { return "ms"; }

 private:
  const space::SearchSpace* space_;
  std::vector<double> weights_;
  double base_ = 0.0;
};

class PoolIdentityTest : public ::testing::Test {
 protected:
  PoolIdentityTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        model_(hw::DeviceProfile::jetson_xavier_maxn(), 8),
        oracle_(space_, model_) {
    nn::SyntheticTaskConfig task;
    task.train_size = 512;
    task.valid_size = 256;
    task_ = nn::make_synthetic_task(task);
  }

  core::SearchResult run_search(bool pooled) {
    const PooledScope scope(pooled ? PoolMode::kInherit
                                   : PoolMode::kDisabled);
    core::LightNasConfig config;
    config.target = 22.0;
    config.epochs = 4;
    config.warmup_epochs = 2;
    config.w_steps_per_epoch = 4;
    config.alpha_steps_per_epoch = 4;
    config.batch_size = 32;
    config.seed = 3;
    core::LightNas engine(space_, oracle_, task_, core::SupernetConfig{},
                          config);
    return engine.search();
  }

  static void expect_identical(const core::SearchResult& a,
                               const core::SearchResult& b) {
    ASSERT_EQ(a.trace.size(), b.trace.size());
    EXPECT_EQ(a.architecture.ops(), b.architecture.ops());
    EXPECT_EQ(a.final_predicted_cost, b.final_predicted_cost);
    EXPECT_EQ(a.final_lambda, b.final_lambda);
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
  LinearOracle oracle_;
  nn::SyntheticTask task_;
};

TEST_F(PoolIdentityTest, SearchTrajectoryIsBitIdenticalPooledVsUnpooled) {
  const core::SearchResult unpooled = run_search(false);
  const core::SearchResult pooled = run_search(true);
  expect_identical(unpooled, pooled);
  // The pooled run must actually have recycled buffers.
  EXPECT_GT(pooled.health.pool_buffer_hits, 0u);
  EXPECT_EQ(unpooled.health.pool_buffer_hits, 0u);
}

TEST_F(PoolIdentityTest, PooledThreadedSearchMatchesSerialUnpooled) {
  // Pooled searches run as jobs on two lanes, one of them a pool
  // thread with its own thread-local TensorPool.
  const core::SearchResult serial_unpooled = run_search(false);
  const ParallelContext lanes(ParallelConfig{2});
  std::vector<core::SearchResult> threaded_pooled(2);
  lanes.for_rows(2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      threaded_pooled[j] = run_search(true);
    }
  });
  for (const core::SearchResult& result : threaded_pooled) {
    expect_identical(serial_unpooled, result);
  }
}

TEST_F(PoolIdentityTest, TrainedPredictorWeightsAreBitIdentical) {
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               42);
  util::Rng rng(11);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space_, device, 300, predictors::Metric::kLatencyMs, rng);

  auto train = [&] {
    predictors::MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
    predictors::MlpTrainConfig config;
    config.epochs = 12;
    config.batch_size = 64;
    mlp.train(data, config);
    return mlp.export_state();
  };

  // train() opens a kInherit scope, which a caller's kDisabled scope
  // keeps unpooled: no global pool counter moves.
  PoolStats before = TensorPool::global_stats();
  const auto unpooled = [&] {
    const PooledScope off(PoolMode::kDisabled);
    return train();
  }();
  const PoolStats off_delta = TensorPool::global_stats() - before;
  EXPECT_EQ(off_delta.buffer_hits, 0u);
  EXPECT_EQ(off_delta.buffer_misses, 0u);
  EXPECT_EQ(off_delta.bytes_recycled, 0u);

  before = TensorPool::global_stats();
  const auto pooled = train();
  const PoolStats delta = TensorPool::global_stats() - before;
  EXPECT_GT(delta.buffer_hits, 0u);

  ASSERT_EQ(unpooled.tensors.size(), pooled.tensors.size());
  for (std::size_t i = 0; i < unpooled.tensors.size(); ++i) {
    EXPECT_EQ(unpooled.tensors[i], pooled.tensors[i]) << "tensor " << i;
  }
  EXPECT_EQ(unpooled.target_mean, pooled.target_mean);
  EXPECT_EQ(unpooled.target_std, pooled.target_std);
}

}  // namespace
}  // namespace lightnas::nn
