// Determinism suite for the parallel blocked-GEMM layer: every threaded
// path must be bit-identical (exact float equality) to the serial path,
// for every thread count, block size, and awkward shape. `min_work = 1`
// forces dispatch even on tiny tensors so the threading machinery is
// actually exercised; odd shapes cover rows < threads, rows % threads
// != 0, and degenerate 1xN / Nx1 outputs.
//
// The concurrent-train stress test at the bottom is the
// ThreadSanitizer target (build-tsan, LIGHTNAS_TSAN=ON): several
// training loops sharing one GEMM pool from different threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/lightnas.hpp"
#include "nn/modules.hpp"
#include "nn/parallel.hpp"
#include "nn/tensor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {
namespace {

Tensor random_tensor(std::size_t rows, std::size_t cols,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(rows, cols, rng);
}

ParallelConfig eager_config(std::size_t threads, std::size_t block = 64) {
  ParallelConfig config;
  config.threads = threads;
  config.block = block;
  config.min_work = 1;  // dispatch even the tiniest kernels
  return config;
}

TEST(ParallelGemm, BitIdenticalAcrossThreadsBlocksAndOddShapes) {
  const ParallelContext serial;
  // {m, k, n}: 1xN, Nx1, rows < threads, rows % threads != 0, larger.
  const std::size_t shapes[][3] = {{1, 7, 5},  {6, 3, 1},  {3, 5, 4},
                                   {10, 13, 9}, {37, 53, 29}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const Tensor a = random_tensor(m, k, 11 * m + k);
    const Tensor b = random_tensor(k, n, 17 * k + n);
    const Tensor a_t = random_tensor(k, m, 23 * m + k);  // for _tn
    const Tensor b_t = random_tensor(n, k, 29 * n + k);  // for _nt
    const Tensor c_ref = matmul(a, b, serial);
    const Tensor c_tn_ref = matmul_tn(a_t, b, serial);
    const Tensor c_nt_ref = matmul_nt(a, b_t, serial);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      for (const std::size_t block : {1u, 3u, 64u}) {
        const ParallelContext ctx(eager_config(threads, block));
        EXPECT_EQ(matmul(a, b, ctx).data(), c_ref.data())
            << m << "x" << k << "x" << n << " t=" << threads
            << " b=" << block;
        EXPECT_EQ(matmul_tn(a_t, b, ctx).data(), c_tn_ref.data())
            << "tn " << m << "x" << k << "x" << n << " t=" << threads
            << " b=" << block;
        EXPECT_EQ(matmul_nt(a, b_t, ctx).data(), c_nt_ref.data())
            << "nt " << m << "x" << k << "x" << n << " t=" << threads
            << " b=" << block;
      }
    }
  }
}

TEST(ParallelGemm, ZeroSkipBitIdenticalAcrossThreads) {
  // The zero-skip kernels split output rows like the dense ones: one-hot
  // A (one 1 per group of 7 columns) against the serial dense product.
  const ParallelContext serial;
  util::Rng rng(3);
  Tensor onehot = Tensor::zeros(37, 63);
  for (std::size_t r = 0; r < onehot.rows(); ++r) {
    for (std::size_t c = 0; c < onehot.cols(); c += 7) {
      onehot.at(r, c + rng.uniform_index(7)) = 1.0f;
    }
  }
  const Tensor b = random_tensor(63, 29, 4);
  const Tensor grads = random_tensor(37, 29, 5);
  const Tensor c_ref = matmul(onehot, b, serial);
  const Tensor c_tn_ref = matmul_tn(onehot, grads, serial);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const ParallelContext ctx(eager_config(threads));
    EXPECT_EQ(matmul_zero_skip(onehot, b, ctx).data(), c_ref.data())
        << "t=" << threads;
    EXPECT_EQ(matmul_tn_zero_skip(onehot, grads, ctx).data(),
              c_tn_ref.data())
        << "tn t=" << threads;
  }
}

TEST(ParallelGemm, BlockedKernelMatchesNaiveTripleLoop) {
  // The blocked kernel must agree exactly with the textbook loop: per
  // output element the accumulation chain is identical (ascending k).
  const std::size_t m = 9, k = 31, n = 6;
  const Tensor a = random_tensor(m, k, 5);
  const Tensor b = random_tensor(k, n, 6);
  Tensor naive(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        naive.at(i, j) += a.at(i, p) * b.at(p, j);
      }
    }
  }
  for (const std::size_t block : {1u, 2u, 7u, 64u}) {
    const ParallelContext ctx(eager_config(4, block));
    EXPECT_EQ(matmul(a, b, ctx).data(), naive.data()) << "block=" << block;
  }
}

TEST(ParallelElementwise, BiasReluFusedBitIdentical) {
  const ParallelContext serial;
  const ParallelContext ctx(eager_config(4));
  const Tensor bias = random_tensor(1, 33, 3);
  for (const std::size_t rows : {1u, 3u, 10u, 64u}) {
    const Tensor base = random_tensor(rows, 33, rows);

    Tensor expect_bias = base;
    expect_bias.add_row_inplace(bias, serial);
    Tensor got_bias = base;
    got_bias.add_row_inplace(bias, ctx);
    EXPECT_EQ(got_bias.data(), expect_bias.data());

    Tensor expect_fused = expect_bias;
    expect_fused.relu_inplace(serial);
    Tensor got_fused = base;
    got_fused.add_row_relu_inplace(bias, ctx);
    EXPECT_EQ(got_fused.data(), expect_fused.data());

    Tensor got_relu = base;
    got_relu.relu_inplace(ctx);
    Tensor expect_relu = base;
    expect_relu.relu_inplace(serial);
    EXPECT_EQ(got_relu.data(), expect_relu.data());
  }
}

TEST(ParallelContextTest, PartitionCoversEveryRowExactlyOnce) {
  const ParallelContext ctx(eager_config(8));
  for (const std::size_t rows : {1u, 3u, 7u, 8u, 29u}) {
    std::vector<int> hits(rows, 0);
    ctx.for_rows(rows, [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) ++hits[r];  // disjoint
    });
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(hits[r], 1) << "row " << r << " of " << rows;
    }
  }
}

TEST(ParallelContextTest, NestedDispatchRunsSerialWithoutDeadlock) {
  const ParallelContext ctx(eager_config(4));
  std::vector<int> outer_hits(8, 0);
  ctx.for_rows(8, [&](std::size_t begin, std::size_t end) {
    // A kernel invoked from inside a chunk must not re-enter the pool.
    const Tensor a = random_tensor(4, 4, begin + 1);
    const Tensor b = random_tensor(4, 4, end + 1);
    ASSERT_FALSE(ctx.should_parallelize(4, 1 << 20));
    const Tensor c = matmul(a, b, ctx);  // serial fallback path
    ASSERT_EQ(c.rows(), 4u);
    for (std::size_t r = begin; r < end; ++r) ++outer_hits[r];
  });
  for (int h : outer_hits) EXPECT_EQ(h, 1);
}

TEST(ParallelMlp, ForwardAndInferenceMatchSerialUnderScope) {
  util::Rng rng(21);
  const Mlp mlp({19, 32, 16, 2}, rng, "par_test");
  const Tensor x = random_tensor(13, 19, 77);
  const Tensor serial_out = mlp.forward_inference(x);
  const VarPtr serial_graph = mlp.forward(make_const(x));

  const ParallelContext ctx(eager_config(4));
  const ParallelScope scope(&ctx);
  EXPECT_EQ(mlp.forward_inference(x).data(), serial_out.data());
  EXPECT_EQ(mlp.forward(make_const(x))->value.data(),
            serial_graph->value.data());
}

predictors::MeasurementDataset synthetic_dataset(std::size_t count,
                                                 std::size_t num_layers,
                                                 std::size_t num_ops,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  predictors::MeasurementDataset data;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<float> enc(num_layers * num_ops, 0.0f);
    double target = 1.0;
    for (std::size_t l = 0; l < num_layers; ++l) {
      const std::size_t op = rng.uniform_index(num_ops);
      enc[l * num_ops + op] = 1.0f;
      target += static_cast<double>(op) * 0.7 + rng.normal(0.0, 0.05);
    }
    data.encodings.push_back(std::move(enc));
    data.targets.push_back(target);
  }
  return data;
}

predictors::MlpPredictor train_predictor(
    const predictors::MeasurementDataset& data, std::size_t num_layers,
    std::size_t num_ops, const ParallelContext* parallel) {
  predictors::MlpPredictor predictor(num_layers, num_ops, /*seed=*/5);
  predictors::MlpTrainConfig config;
  config.epochs = 5;
  config.batch_size = 32;
  config.parallel = parallel;
  predictor.train(data, config);
  return predictor;
}

TEST(ParallelPredictor, TrainedWeightsBitIdenticalAcrossThreadCounts) {
  const std::size_t num_layers = 6, num_ops = 4;
  const predictors::MeasurementDataset data =
      synthetic_dataset(192, num_layers, num_ops, 9);
  const predictors::MlpPredictor reference =
      train_predictor(data, num_layers, num_ops, nullptr);
  const auto ref_state = reference.export_state();

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const ParallelContext ctx(eager_config(threads));
    const predictors::MlpPredictor threaded =
        train_predictor(data, num_layers, num_ops, &ctx);
    const auto state = threaded.export_state();
    ASSERT_EQ(state.tensors.size(), ref_state.tensors.size());
    for (std::size_t i = 0; i < state.tensors.size(); ++i) {
      EXPECT_EQ(state.tensors[i], ref_state.tensors[i])
          << "tensor " << i << " at threads=" << threads;
    }
    for (const auto& enc : data.encodings) {
      EXPECT_EQ(threaded.predict_encoding(enc),
                reference.predict_encoding(enc));
    }
  }
}

TEST(ParallelSearch, SearchTrajectoryBitIdenticalToSerial) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const std::size_t num_layers = space.num_layers();
  const std::size_t num_ops = space.num_ops();
  util::Rng enc_rng(31);
  predictors::MeasurementDataset data;
  for (std::size_t i = 0; i < 96; ++i) {
    const space::Architecture arch = space.random_architecture(enc_rng);
    data.architectures.push_back(arch);
    data.encodings.push_back(arch.encode_one_hot(num_ops));
    data.targets.push_back(18.0 + static_cast<double>(i % 13));
  }
  predictors::MlpPredictor predictor(num_layers, num_ops, 3);
  predictors::MlpTrainConfig train_config;
  train_config.epochs = 3;
  train_config.batch_size = 32;
  predictor.train(data, train_config);

  nn::SyntheticTaskConfig task_config;
  task_config.train_size = 256;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  core::LightNasConfig config;
  config.seed = 1;
  config.epochs = 2;
  config.warmup_epochs = 1;
  config.w_steps_per_epoch = 4;
  config.alpha_steps_per_epoch = 2;
  config.batch_size = 8;

  core::LightNas serial_engine(space, predictor, task,
                               core::SupernetConfig{}, config);
  const core::SearchResult serial = serial_engine.search();

  const ParallelContext ctx(eager_config(4));
  config.parallel = &ctx;
  core::LightNas threaded_engine(space, predictor, task,
                                 core::SupernetConfig{}, config);
  const core::SearchResult threaded = threaded_engine.search();

  EXPECT_EQ(threaded.architecture.serialize(),
            serial.architecture.serialize());
  EXPECT_EQ(threaded.final_predicted_cost, serial.final_predicted_cost);
  EXPECT_EQ(threaded.final_lambda, serial.final_lambda);
  ASSERT_EQ(threaded.trace.size(), serial.trace.size());
  for (std::size_t e = 0; e < serial.trace.size(); ++e) {
    EXPECT_EQ(threaded.trace[e].valid_loss, serial.trace[e].valid_loss);
    EXPECT_EQ(threaded.trace[e].lambda, serial.trace[e].lambda);
  }
}

// ThreadSanitizer target: several independent training loops sharing one
// GEMM pool from different threads, exactly the shape of a serving
// deployment (N workers, one ParallelContext). Must be race-free and
// every trainer must still reproduce the serial weights bit-for-bit.
TEST(ParallelPredictor, ConcurrentTrainSharedPoolIsRaceFreeAndExact) {
  const std::size_t num_layers = 5, num_ops = 3;
  const predictors::MeasurementDataset data =
      synthetic_dataset(96, num_layers, num_ops, 13);
  const predictors::MlpPredictor reference =
      train_predictor(data, num_layers, num_ops, nullptr);
  const auto ref_state = reference.export_state();

  const ParallelContext shared(eager_config(4));
  constexpr std::size_t kTrainers = 4;
  std::vector<predictors::MlpPredictor::State> states(kTrainers);
  std::vector<std::thread> trainers;
  trainers.reserve(kTrainers);
  for (std::size_t t = 0; t < kTrainers; ++t) {
    trainers.emplace_back([&, t] {
      states[t] =
          train_predictor(data, num_layers, num_ops, &shared).export_state();
    });
  }
  for (std::thread& t : trainers) t.join();
  for (std::size_t t = 0; t < kTrainers; ++t) {
    ASSERT_EQ(states[t].tensors.size(), ref_state.tensors.size());
    for (std::size_t i = 0; i < ref_state.tensors.size(); ++i) {
      EXPECT_EQ(states[t].tensors[i], ref_state.tensors[i])
          << "trainer " << t << " tensor " << i;
    }
  }
}

// Regression for the configure_global race: the old implementation
// destroyed and rebuilt the global ThreadPool in place, so a dispatch
// racing a reconfigure could submit to a half-destroyed pool. The fix
// swaps a mutex-guarded shared_ptr slot — in-flight dispatches finish on
// the pool they snapshotted while new ones pick up the replacement. This is the
// second ThreadSanitizer target (build-tsan, LIGHTNAS_TSAN=ON); without
// TSan it still exercises the swap path and checks every result stays
// bit-identical to serial.
TEST(ParallelContextTest, ConfigureGlobalDuringDispatchIsSafeAndExact) {
  const Tensor a = random_tensor(37, 19, 21);
  const Tensor b = random_tensor(19, 23, 22);
  const ParallelContext serial;
  const Tensor reference = matmul(a, b, serial);

  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kSwaps = 120;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::size_t> dispatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      while (!stop.load()) {
        // Dispatches on the *global* context — the one being swapped.
        const Tensor c = matmul(a, b, ParallelContext::global());
        if (c.data() != reference.data()) mismatches.fetch_add(1);
        dispatches.fetch_add(1);
      }
    });
  }
  // Hammer reconfiguration while the workers dispatch: every iteration
  // tears down the previous pool and installs a fresh one.
  const std::size_t thread_counts[] = {1, 2, 4, 3};
  for (std::size_t s = 0; s < kSwaps; ++s) {
    ParallelContext::configure_global(
        eager_config(thread_counts[s % 4], 16 + (s % 3) * 24));
  }
  stop.store(true);
  for (std::thread& t : workers) t.join();
  ParallelContext::configure_global(ParallelConfig{});  // back to serial

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(dispatches.load(), 0u);
}

}  // namespace
}  // namespace lightnas::nn
