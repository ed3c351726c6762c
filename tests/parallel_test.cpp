// Tests of the job-level lanes (nn/parallel.hpp) and of the serial
// blocked kernels they never split: the k-block edge changes no bit,
// for_rows covers every row once and never nests into the pool, and
// jobs run on lanes (searches, predictor training) reproduce their
// serial results bit for bit.
//
// The concurrent-train stress test at the bottom is the
// ThreadSanitizer target (build-tsan, LIGHTNAS_TSAN=ON): several
// training loops run as jobs on one shared pool.

#include <gtest/gtest.h>

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

TEST(ParallelGemm, BlockedKernelMatchesNaiveTripleLoop) {
  // The blocked kernels must agree exactly with the textbook loop for
  // every k-block edge: per output element the accumulation chain is
  // identical (ascending k), so the fixed kGemmBlock changes no bit.
  const std::size_t m = 9, k = 31, n = 6;
  const Tensor a = random_tensor(m, k, 5);
  const Tensor b = random_tensor(k, n, 6);
  const Tensor a_t = random_tensor(k, m, 7);  // for _tn
  Tensor naive(m, n);
  Tensor naive_tn(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        naive.at(i, j) += a.at(i, p) * b.at(p, j);
        naive_tn.at(i, j) += a_t.at(p, i) * b.at(p, j);
      }
    }
  }
  EXPECT_EQ(matmul(a, b).data(), naive.data());
  EXPECT_EQ(matmul_tn(a_t, b).data(), naive_tn.data());
  for (const std::size_t block : {1u, 2u, 7u, 64u}) {
    Tensor c(m, n);
    matmul_rows_scalar(a.data().data(), b.data().data(), c.data().data(), k,
                       n, 0, m, block);
    EXPECT_EQ(c.data(), naive.data()) << "block=" << block;
    Tensor c_tn(m, n);
    matmul_tn_rows_scalar(a_t.data().data(), b.data().data(),
                          c_tn.data().data(), k, m, n, 0, m, block);
    EXPECT_EQ(c_tn.data(), naive_tn.data()) << "tn block=" << block;
  }
}

TEST(ParallelElementwise, BiasReluFusedBitIdentical) {
  // The fused bias + ReLU kernel is the same math as its two unfused
  // passes, for every row count.
  const Tensor bias = random_tensor(1, 33, 3);
  for (const std::size_t rows : {1u, 3u, 10u, 64u}) {
    const Tensor base = random_tensor(rows, 33, rows);

    Tensor expect_bias = base;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < 33; ++c) {
        expect_bias.at(r, c) = base.at(r, c) + bias.at(0, c);
      }
    }
    Tensor got_bias = base;
    got_bias.add_row_inplace(bias);
    EXPECT_EQ(got_bias.data(), expect_bias.data());

    Tensor expect_fused = expect_bias;
    expect_fused.relu_inplace();
    Tensor got_fused = base;
    got_fused.add_row_relu_inplace(bias);
    EXPECT_EQ(got_fused.data(), expect_fused.data());
  }
}

TEST(ParallelContextTest, PartitionCoversEveryRowExactlyOnce) {
  const ParallelContext ctx(ParallelConfig{8});
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
  const ParallelContext ctx(ParallelConfig{4});
  std::vector<int> outer_hits(8, 0);
  ctx.for_rows(8, [&](std::size_t begin, std::size_t end) {
    // A dispatch from inside a chunk must not re-enter the pool: it runs
    // as one serial chunk on the calling thread.
    const std::thread::id outer = std::this_thread::get_id();
    std::size_t inner_calls = 0;
    ctx.for_rows(4, [&](std::size_t b, std::size_t e) {
      ++inner_calls;
      EXPECT_EQ(b, 0u);
      EXPECT_EQ(e, 4u);
      EXPECT_EQ(std::this_thread::get_id(), outer);
    });
    EXPECT_EQ(inner_calls, 1u);
    for (std::size_t r = begin; r < end; ++r) ++outer_hits[r];
  });
  for (int h : outer_hits) EXPECT_EQ(h, 1);
}

TEST(ParallelMlp, ForwardAndInferenceMatchSerialUnderScope) {
  // Kernels run serially on the calling thread, so a lane scope changes
  // no result, and the graph-free inference path matches the graph.
  util::Rng rng(21);
  const Mlp mlp({19, 32, 16, 2}, rng, "par_test");
  const Tensor x = random_tensor(13, 19, 77);
  const Tensor serial_out = mlp.forward_inference(x);
  const VarPtr serial_graph = mlp.forward(make_const(x));
  EXPECT_EQ(serial_out.data(), serial_graph->value.data());

  const ParallelContext ctx(ParallelConfig{4});
  const ParallelScope scope(&ctx);
  EXPECT_EQ(&ParallelContext::current(), &ctx);
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
    std::vector<std::size_t> ops(num_layers);
    double target = 1.0;
    for (std::size_t l = 0; l < num_layers; ++l) {
      ops[l] = rng.uniform_index(num_ops);
      target += static_cast<double>(ops[l]) * 0.7 + rng.normal(0.0, 0.05);
    }
    data.architectures.emplace_back(ops);
    data.targets.push_back(target);
  }
  return data;
}

predictors::MlpPredictor train_predictor(
    const predictors::MeasurementDataset& data, std::size_t num_layers,
    std::size_t num_ops) {
  predictors::MlpPredictor predictor(num_layers, num_ops, /*seed=*/5);
  predictors::MlpTrainConfig config;
  config.epochs = 5;
  config.batch_size = 32;
  predictor.train(data, config);
  return predictor;
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

  // Two searches run side by side as jobs on the lanes they are given,
  // sharing the trained predictor read-only; each must reproduce the
  // serial run exactly.
  const ParallelContext lanes(ParallelConfig{2});
  config.parallel = &lanes;
  std::vector<core::SearchResult> jobs(2);
  lanes.for_rows(jobs.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                            config);
      jobs[j] = engine.search();
    }
  });

  for (const core::SearchResult& threaded : jobs) {
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
}

// ThreadSanitizer target: several independent training loops run as jobs
// on the lanes of one shared ParallelContext. Must be race-free and every
// trainer must still reproduce the serial weights bit-for-bit.
TEST(ParallelPredictor, ConcurrentTrainSharedPoolIsRaceFreeAndExact) {
  const std::size_t num_layers = 5, num_ops = 3;
  const predictors::MeasurementDataset data =
      synthetic_dataset(96, num_layers, num_ops, 13);
  const predictors::MlpPredictor reference =
      train_predictor(data, num_layers, num_ops);
  const auto ref_state = reference.export_state();

  const ParallelContext shared(ParallelConfig{4});
  constexpr std::size_t kTrainers = 4;
  std::vector<predictors::MlpPredictor::State> states(kTrainers);
  shared.for_rows(kTrainers, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      states[t] = train_predictor(data, num_layers, num_ops).export_state();
    }
  });
  for (std::size_t t = 0; t < kTrainers; ++t) {
    ASSERT_EQ(states[t].tensors.size(), ref_state.tensors.size());
    for (std::size_t i = 0; i < ref_state.tensors.size(); ++i) {
      EXPECT_EQ(states[t].tensors[i], ref_state.tensors[i])
          << "trainer " << t << " tensor " << i;
    }
  }
}

}  // namespace
}  // namespace lightnas::nn
