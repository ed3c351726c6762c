// Tests of the SIMD microkernel layer (nn/simd.hpp): ISA selection and
// overrides, the scalar-vs-AVX2 bit-identity contract on odd shapes and
// non-finite values, aligned pooled storage, checkpointed search
// trajectories crossing ISA tiers, and the LIGHTNAS_CHECK shape guards
// that replaced the Release-stripped asserts in the hot paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>

#include "core/lightnas.hpp"
#include "hw/cost_model.hpp"
#include "nn/aligned.hpp"
#include "nn/ops.hpp"
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

TEST(SimdIsa, ParseAndNameRoundTrip) {
  // No flag parses a tier any more; the names are what reports and the
  // end-to-end benchmark print for the tier in use.
  EXPECT_STREQ(nn::simd::isa_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(nn::simd::isa_name(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(nn::simd::isa_name(nn::simd::global_isa()),
               avx2_usable() ? "avx2" : "scalar");
}

TEST(SimdIsa, DetectBestNeverPicksFma) {
  // Only bit-identical tiers exist: the host picks AVX2 exactly when it
  // is compiled in and the CPU has it, else scalar, so checkpoints stay
  // portable across hosts.
  EXPECT_EQ(nn::simd::detect_best(),
            avx2_usable() ? IsaLevel::kAvx2 : IsaLevel::kScalar);
}

TEST(SimdIsa, SetGlobalValidatesSupport) {
  // Nothing sets the process-wide tier: it is the host's best, which the
  // CPU always supports.
  EXPECT_EQ(nn::simd::global_isa(), nn::simd::detect_best());
  EXPECT_TRUE(nn::simd::cpu_supports(nn::simd::global_isa()));
  EXPECT_TRUE(nn::simd::cpu_supports(IsaLevel::kScalar));
}

TEST(SimdIsa, ScopedIsaNestsAndRestores) {
  const IsaLevel ambient = nn::simd::active_isa();
  {
    ScopedIsa outer(IsaLevel::kScalar);
    EXPECT_EQ(nn::simd::active_isa(), IsaLevel::kScalar);
    {
      ScopedIsa inner(IsaLevel::kAvx2);
      EXPECT_EQ(nn::simd::active_isa(), IsaLevel::kAvx2);
    }
    EXPECT_EQ(nn::simd::active_isa(), IsaLevel::kScalar);
  }
  EXPECT_EQ(nn::simd::active_isa(), ambient);
}

// --- bit-identity: the contract the search trajectory rests on --------

TEST(SimdIdentity, OddShapeGemmSweepMatchesScalarBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
  for (const std::size_t m : dims) {
    for (const std::size_t k : dims) {
      for (const std::size_t n : dims) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        const nn::Tensor a = random_tensor(m, k, 10 + m * 1000 + k);
        const nn::Tensor b = random_tensor(k, n, 20 + k * 1000 + n);
        const nn::Tensor at = random_tensor(k, m, 30 + m + k * 31);
        const nn::Tensor bt = random_tensor(n, k, 40 + n + k * 31);
        nn::Tensor s_nn, s_tn, s_nt;
        {
          ScopedIsa scalar(IsaLevel::kScalar);
          s_nn = nn::matmul(a, b);
          s_tn = nn::matmul_tn(at, b);
          s_nt = nn::matmul_nt(a, bt);
        }
        ScopedIsa vec(IsaLevel::kAvx2);
        EXPECT_TRUE(bits_equal(s_nn, nn::matmul(a, b)));
        EXPECT_TRUE(bits_equal(s_tn, nn::matmul_tn(at, b)));
        EXPECT_TRUE(bits_equal(s_nt, nn::matmul_nt(a, bt)));
      }
    }
  }
}

TEST(SimdIdentity, FusedBiasReluOddWidthsMatchScalarBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
  for (const std::size_t rows : dims) {
    for (const std::size_t cols : dims) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " cols=" + std::to_string(cols));
      const nn::Tensor x = random_tensor(rows, cols, 50 + rows * 131 + cols);
      const nn::Tensor bias = random_tensor(1, cols, 60 + cols);
      nn::Tensor scalar_out = x;
      nn::Tensor vec_out = x;
      {
        ScopedIsa scalar(IsaLevel::kScalar);
        scalar_out.add_row_relu_inplace(bias);
      }
      {
        ScopedIsa vec(IsaLevel::kAvx2);
        vec_out.add_row_relu_inplace(bias);
      }
      EXPECT_TRUE(bits_equal(scalar_out, vec_out));
    }
  }
}

TEST(SimdIdentity, NanAndInfPropagateIdentically) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  nn::Tensor a = random_tensor(9, 11, 7);
  nn::Tensor b = random_tensor(11, 13, 8);
  a.at(0, 0) = nan;
  a.at(4, 5) = inf;
  b.at(2, 2) = -inf;
  b.at(10, 12) = nan;
  nn::Tensor s_nn;
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    s_nn = nn::matmul(a, b);
  }
  // The scalar reference itself must propagate (no zero-operand skips).
  EXPECT_TRUE(std::isnan(s_nn.at(0, 0)));
  {
    ScopedIsa vec(IsaLevel::kAvx2);
    EXPECT_TRUE(bits_equal(s_nn, nn::matmul(a, b)));
  }

  // Fused relu: a NaN input stays NaN (scalar max(v, 0) keeps it; the
  // vmaxps operand order in the AVX2 kernel must match — the historical
  // bug this pins down returned 0 for NaN lanes).
  nn::Tensor x = random_tensor(3, 9, 9);
  const nn::Tensor bias = nn::Tensor::zeros(1, 9);
  x.at(1, 4) = nan;
  x.at(2, 8) = -inf;
  nn::Tensor scalar_out = x;
  nn::Tensor vec_out = x;
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    scalar_out.add_row_relu_inplace(bias);
  }
  EXPECT_TRUE(std::isnan(scalar_out.at(1, 4)));
  EXPECT_EQ(scalar_out.at(2, 8), 0.0f);  // -inf clamps to 0
  {
    ScopedIsa vec(IsaLevel::kAvx2);
    vec_out.add_row_relu_inplace(bias);
  }
  EXPECT_TRUE(bits_equal(scalar_out, vec_out));
}

TEST(SimdIdentity, PackedNtMatchesScalarAcrossPanelsAndKTiles) {
  // Widths that take 16-column panels, an 8-column panel and the scalar
  // dot tail; depths on both sides of the 256-deep packing tile (the
  // accumulators round-trip through C between tiles).
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  for (const std::size_t n : {1u, 8u, 23u, 33u, 64u}) {
    for (const std::size_t k : {0u, 1u, 255u, 256u, 257u, 600u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      const nn::Tensor a = random_tensor(6, k, 70 + k);
      const nn::Tensor bt = random_tensor(n, k, 80 + n * 1000 + k);
      nn::Tensor s_nt;
      {
        ScopedIsa scalar(IsaLevel::kScalar);
        s_nt = nn::matmul_nt(a, bt);
      }
      ScopedIsa vec(IsaLevel::kAvx2);
      EXPECT_TRUE(bits_equal(s_nt, nn::matmul_nt(a, bt)));
    }
  }
}

// --- zero-skip GEMMs ---------------------------------------------------

/// A (rows x cols) that is mostly +0 with some -0 and `per_row` nonzero
/// entries a row, like a one-hot encoding with a few odd values.
nn::Tensor sparse_tensor(std::size_t rows, std::size_t cols,
                         std::size_t per_row, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor t = nn::Tensor::zeros(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    t.at(r, rng.uniform_index(cols)) = -0.0f;
    for (std::size_t i = 0; i < per_row; ++i) {
      t.at(r, rng.uniform_index(cols)) =
          i % 3 == 0 ? 1.0f : static_cast<float>(rng.normal(0.0, 1.0));
    }
  }
  return t;
}

TEST(SimdIdentity, ZeroSkipGemmsMatchDenseBitwise) {
  // The skip must leave every bit of the dense chain intact on both
  // tiers: one-hot rows, empty rows, -0 entries, odd widths, and the
  // depths past the AVX2 gather tile.
  std::vector<IsaLevel> tiers = {IsaLevel::kScalar};
  if (avx2_usable()) tiers.push_back(IsaLevel::kAvx2);
  const std::size_t dims[] = {1, 3, 8, 9, 17, 70};
  for (const IsaLevel isa : tiers) {
    const ScopedIsa forced(isa);
    for (const std::size_t m : dims) {
      for (const std::size_t k : {1u, 7u, 154u, 300u}) {
        for (const std::size_t n : dims) {
          SCOPED_TRACE(std::string(nn::simd::isa_name(isa)) +
                       " m=" + std::to_string(m) + " k=" +
                       std::to_string(k) + " n=" + std::to_string(n));
          const std::size_t per_row = std::max<std::size_t>(1, k / 8);
          const nn::Tensor a = sparse_tensor(m, k, per_row, m * 31 + k);
          const nn::Tensor b = random_tensor(k, n, 90 + k * 7 + n);
          EXPECT_TRUE(bits_equal(nn::matmul(a, b),
                                 nn::matmul_zero_skip(a, b)));
          const nn::Tensor at = sparse_tensor(k, m, std::max<std::size_t>(
                                                        1, m / 8),
                                              k * 17 + m);
          const nn::Tensor bt = random_tensor(k, n, 95 + k + n * 3);
          EXPECT_TRUE(bits_equal(nn::matmul_tn(at, bt),
                                 nn::matmul_tn_zero_skip(at, bt)));
        }
      }
    }
  }
}

TEST(SimdIdentity, ZeroSkipKeepsIeeeCornersOfTheDenseChain) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<IsaLevel> tiers = {IsaLevel::kScalar};
  if (avx2_usable()) tiers.push_back(IsaLevel::kAvx2);
  for (const IsaLevel isa : tiers) {
    const ScopedIsa forced(isa);
    SCOPED_TRACE(nn::simd::isa_name(isa));
    // Shapes with enough rows that the skip pays and actually runs.
    // Nonzero non-finite A entries are ordinary terms of the chain.
    nn::Tensor a = sparse_tensor(32, 40, 3, 1);
    a.at(1, 3) = nan;
    a.at(2, 9) = -inf;
    const nn::Tensor b = random_tensor(40, 11, 2);
    EXPECT_TRUE(bits_equal(nn::matmul(a, b), nn::matmul_zero_skip(a, b)));

    // A non-finite B entry under a zero A entry must still poison its
    // column (0 * inf = NaN): the skip has to stand down.
    nn::Tensor poisoned = b;
    poisoned.at(0, 4) = inf;
    poisoned.at(7, 2) = nan;
    const nn::Tensor onehot = sparse_tensor(32, 40, 2, 3);
    const nn::Tensor dense = nn::matmul(onehot, poisoned);
    EXPECT_TRUE(std::isnan(dense.at(0, 4)));
    EXPECT_TRUE(bits_equal(dense, nn::matmul_zero_skip(onehot, poisoned)));
    nn::Tensor poisoned_grads = random_tensor(32, 6, 4);
    poisoned_grads.at(3, 5) = -inf;
    const nn::Tensor dense_tn = nn::matmul_tn(onehot, poisoned_grads);
    std::size_t zero_col = 0;
    while (onehot.at(3, zero_col) != 0.0f) ++zero_col;
    EXPECT_TRUE(std::isnan(dense_tn.at(zero_col, 5)));
    EXPECT_TRUE(bits_equal(dense_tn,
                           nn::matmul_tn_zero_skip(onehot, poisoned_grads)));

    // Products that underflow to -0 (tiny negative times tiny): the
    // dense chain turns them into +0, and so must the skip.
    nn::Tensor tiny_a = nn::Tensor::zeros(32, 16);
    tiny_a.at(0, 5) = 1e-30f;
    tiny_a.at(1, 0) = -1e-30f;
    const nn::Tensor tiny_b = nn::Tensor::full(16, 9, -1e-30f);
    EXPECT_TRUE(bits_equal(nn::matmul(tiny_a, tiny_b),
                           nn::matmul_zero_skip(tiny_a, tiny_b)));
  }
}

TEST(SimdIdentity, ZeroSkipFallsBackToDenseWhereItCannotPay) {
  // A dense A and a single row take the dense kernels: same bits as
  // matmul.
  const nn::Tensor a = random_tensor(32, 30, 5);
  const nn::Tensor b = random_tensor(30, 12, 6);
  EXPECT_TRUE(bits_equal(nn::matmul(a, b), nn::matmul_zero_skip(a, b)));
  const nn::Tensor row = sparse_tensor(1, 30, 2, 7);
  EXPECT_TRUE(bits_equal(nn::matmul(row, b), nn::matmul_zero_skip(row, b)));
}

// --- aligned storage ---------------------------------------------------

TEST(SimdAligned, TensorStorageIsVectorAligned) {
  for (const std::size_t n : {1u, 7u, 8u, 63u, 64u, 1000u}) {
    const nn::Tensor t(1, n, 1.0f);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) %
                  nn::kTensorAlignment,
              0u);
  }
}

TEST(SimdAligned, PoolAcquireReleaseRoundTripStaysAligned) {
  nn::PooledScope scope(nn::PoolMode::kFresh);
  nn::TensorPool& pool = scope.pool();
  for (const std::size_t n : {3u, 16u, 100u, 4096u}) {
    nn::AlignedVector buffer = pool.acquire(n);
    ASSERT_EQ(buffer.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) %
                  nn::kTensorAlignment,
              0u);
    const float* first_base = buffer.data();
    pool.release(std::move(buffer));
    // Same-size reacquire recycles the parked buffer, still aligned.
    nn::AlignedVector again = pool.acquire(n);
    EXPECT_EQ(again.data(), first_base);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(again.data()) %
                  nn::kTensorAlignment,
              0u);
    pool.release(std::move(again));
  }
  const nn::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.buffer_hits, 4u);
  EXPECT_EQ(stats.buffer_misses, 4u);
}

TEST(SimdAligned, PooledTensorsAreAligned) {
  nn::PooledScope scope(nn::PoolMode::kFresh);
  for (int rep = 0; rep < 3; ++rep) {
    const nn::Tensor t = nn::Tensor::uninitialized(5, 13);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) %
                  nn::kTensorAlignment,
              0u);
  }
}

// --- trajectory identity across ISA tiers -----------------------------

class SimdTrajectoryTest : public ::testing::Test {
 protected:
  SimdTrajectoryTest() : space_(space::SearchSpace::fbnet_xavier()) {}

  predictors::MlpPredictor train_predictor(IsaLevel isa) {
    const ScopedIsa forced(isa);
    const hw::CostModel model(hw::DeviceProfile::jetson_xavier_maxn(), 8);
    util::Rng rng(77);
    predictors::MeasurementDataset data;
    for (std::size_t i = 0; i < 192; ++i) {
      space::Architecture arch = space_.random_architecture(rng);
      data.targets.push_back(model.network_latency_ms(space_, arch));
      data.architectures.push_back(std::move(arch));
    }
    predictors::MlpPredictor predictor(space_.num_layers(), space_.num_ops(),
                                       /*seed=*/13);
    predictors::MlpTrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    predictor.train(data, config);
    return predictor;
  }

  static core::LightNasConfig tiny_config() {
    core::LightNasConfig config;
    config.seed = 17;
    config.epochs = 4;
    config.warmup_epochs = 1;
    config.w_steps_per_epoch = 4;
    config.alpha_steps_per_epoch = 2;
    config.batch_size = 16;
    config.target = 24.0;
    return config;
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
      EXPECT_EQ(a.trace[e].valid_loss, b.trace[e].valid_loss);
    }
  }

  space::SearchSpace space_;
};

TEST_F(SimdTrajectoryTest, PredictorWeightsIdenticalAcrossIsa) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const auto scalar_state = train_predictor(IsaLevel::kScalar).export_state();
  const auto vec_state = train_predictor(IsaLevel::kAvx2).export_state();
  ASSERT_EQ(scalar_state.tensors.size(), vec_state.tensors.size());
  for (std::size_t i = 0; i < scalar_state.tensors.size(); ++i) {
    EXPECT_EQ(scalar_state.tensors[i], vec_state.tensors[i]);
  }
  EXPECT_EQ(scalar_state.target_mean, vec_state.target_mean);
  EXPECT_EQ(scalar_state.target_std, vec_state.target_std);
}

TEST_F(SimdTrajectoryTest, CheckpointedSearchCrossesIsaTiersExactly) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const predictors::MlpPredictor predictor =
      train_predictor(IsaLevel::kScalar);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = 256;
  task_config.valid_size = 128;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);
  const auto run = [&](const core::SearchHooks& hooks, IsaLevel isa) {
    const ScopedIsa forced(isa);
    core::LightNas engine(space_, predictor, task, core::SupernetConfig{},
                          tiny_config());
    return engine.search(hooks);
  };

  const core::SearchResult scalar_full =
      run(core::SearchHooks{}, IsaLevel::kScalar);
  const core::SearchResult vec_full = run(core::SearchHooks{}, IsaLevel::kAvx2);
  expect_identical(scalar_full, vec_full);

  // Kill a scalar run after epoch 2, resume the checkpoint under AVX2:
  // the stitched trajectory must equal the uninterrupted scalar one —
  // checkpoints are portable across hosts with and without AVX2.
  std::optional<core::SearchCheckpoint> saved;
  core::SearchHooks kill;
  kill.on_checkpoint = [&](const core::SearchCheckpoint& ck) { saved = ck; };
  kill.should_stop = [](std::size_t done) { return done >= 2; };
  const core::SearchResult partial = run(kill, IsaLevel::kScalar);
  EXPECT_TRUE(partial.health.interrupted);
  ASSERT_TRUE(saved.has_value());

  core::SearchHooks resume;
  resume.resume = &*saved;
  const core::SearchResult resumed = run(resume, IsaLevel::kAvx2);
  EXPECT_TRUE(resumed.health.resumed);
  expect_identical(scalar_full, resumed);
}

// --- LIGHTNAS_CHECK shape guards (survive Release, unlike assert) ------

// Death tests fork; thread sanitizer instrumentation does not survive
// that, so skip them under TSan builds.
#if !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LIGHTNAS_SKIP_DEATH_TESTS 1
#endif
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define LIGHTNAS_SKIP_DEATH_TESTS 1
#endif

#ifndef LIGHTNAS_SKIP_DEATH_TESTS

using SimdCheckDeathTest = ::testing::Test;

TEST(SimdCheckDeathTest, MatmulShapeMismatchAbortsWithShapes) {
  const nn::Tensor a(2, 3, 1.0f);
  const nn::Tensor b(4, 5, 1.0f);
  EXPECT_DEATH((void)nn::matmul(a, b), "matmul.*2 x 3.*4 x 5");
}

TEST(SimdCheckDeathTest, OpsLayerChecksFireInAllBuildTypes) {
  const nn::VarPtr a = nn::make_const(nn::Tensor(2, 3, 1.0f));
  const nn::VarPtr b = nn::make_const(nn::Tensor(4, 5, 1.0f));
  EXPECT_DEATH((void)nn::ops::matmul(a, b), "matmul");
  EXPECT_DEATH((void)nn::ops::add(a, b), "add");
}

TEST(SimdCheckDeathTest, FusedBiasReluWidthMismatchAborts) {
  nn::Tensor x(2, 4, 1.0f);
  const nn::Tensor bias(1, 5, 0.0f);
  EXPECT_DEATH(x.add_row_relu_inplace(bias), "2 x 4.*1 x 5");
}

#endif  // LIGHTNAS_SKIP_DEATH_TESTS

}  // namespace
}  // namespace lightnas
