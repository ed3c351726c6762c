// Zero-miss steady state: after a one-train warmup of the tensor pool,
// further same-shape training must take every tensor buffer from the
// pool. Autograd nodes are plain heap objects and are not counted.
//
// Gates (exit 1 on violation):
//  - Zero-miss (always enforced): a second predictor training run under
//    a warmed pool adds zero buffer misses; a search run stops adding
//    buffer misses after its first post-warmup epochs (the last quarter
//    of epochs must add none).
//  - Bit-identity (always enforced): search trajectories and trained
//    predictor weights are bit-identical with pooling on or off.
//  - Throughput (full mode only): steady-state pooled *search* steps
//    must be >= 1.3x the steps/s of the pooling-disabled arm at the
//    paper's small-batch operating point (batch 8). On a 4-vCPU AVX2
//    host full mode reads 1.05-1.31x (median 1.07x), so this gate
//    fails in most runs: buffer churn is not what dominates a step
//    (see ROADMAP). The
//    pooling-off arm was measured against a build of the pre-pool
//    commit at identical workloads and matches it, so in-binary
//    pooled-vs-off is a faithful proxy for "vs the previous engine";
//    the first-k-block assign peel in the GEMM kernels speeds the off
//    arm up slightly too, making the proxy conservative. Predictor
//    training throughput is reported as well but not gated: its step
//    cost is dominated by O(params) weight-gradient GEMMs and Adam
//    updates, so buffer recycling is neutral-to-mildly-positive there
//    (~1.05-1.10x) — see EXPERIMENTS.md. Skipped in `--smoke` /
//    LIGHTNAS_FAST runs.
//
// Results are also emitted machine-readably to BENCH_alloc.json; the
// timed readings are null (with "measured": false) in smoke runs.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lightnas.hpp"
#include "hw/cost_model.hpp"
#include "io/json.hpp"
#include "nn/pool.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/table.hpp"

using namespace lightnas;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

predictors::MeasurementDataset make_dataset(const space::SearchSpace& space,
                                            std::size_t count) {
  const hw::CostModel model(hw::DeviceProfile::jetson_xavier_maxn(), 8);
  util::Rng rng(1234);
  predictors::MeasurementDataset data;
  data.architectures.reserve(count);
  data.targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    space::Architecture arch = space.random_architecture(rng);
    data.targets.push_back(model.network_latency_ms(space, arch));
    data.architectures.push_back(std::move(arch));
  }
  return data;
}

struct TrainRun {
  double seconds = 0.0;
  predictors::MlpPredictor::State state;
};

TrainRun run_training(const space::SearchSpace& space,
                      const predictors::MeasurementDataset& data,
                      std::size_t epochs, std::size_t batch, bool pooled) {
  // train() inherits this scope: the outer pool when pooled, else none.
  const nn::PooledScope scope(pooled ? nn::PoolMode::kInherit
                                     : nn::PoolMode::kDisabled);
  predictors::MlpPredictor predictor(space.num_layers(), space.num_ops(),
                                     /*seed=*/7);
  predictors::MlpTrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch;
  const double start = now_seconds();
  predictor.train(data, config);
  TrainRun run;
  run.seconds = now_seconds() - start;
  run.state = predictor.export_state();
  return run;
}

bool states_identical(const predictors::MlpPredictor::State& a,
                      const predictors::MlpPredictor::State& b) {
  if (a.tensors.size() != b.tensors.size()) return false;
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    if (a.tensors[i] != b.tensors[i]) return false;  // exact float equality
  }
  return a.target_mean == b.target_mean && a.target_std == b.target_std;
}

core::LightNasConfig search_config(bool smoke) {
  core::LightNasConfig config;
  config.seed = 3;
  config.epochs = smoke ? 4 : 8;
  config.warmup_epochs = 1;
  config.w_steps_per_epoch = smoke ? 8 : 16;
  config.alpha_steps_per_epoch = smoke ? 4 : 8;
  config.batch_size = smoke ? 16 : 32;
  config.target = 24.0;
  return config;
}

/// The throughput workload: many short search epochs at the paper's
/// embedded operating point (batch 8). Small batches keep per-step
/// tensors small, which is exactly where allocator traffic dominates a
/// step — the regime the pool is built for.
core::LightNasConfig throughput_search_config() {
  core::LightNasConfig config;
  config.seed = 3;
  config.epochs = 40;
  config.warmup_epochs = 1;
  config.w_steps_per_epoch = 16;
  config.alpha_steps_per_epoch = 8;
  config.batch_size = 8;
  config.target = 24.0;
  return config;
}

bool search_results_identical(const core::SearchResult& a,
                              const core::SearchResult& b) {
  if (a.trace.size() != b.trace.size()) return false;
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    if (a.trace[e].derived.ops() != b.trace[e].derived.ops() ||
        a.trace[e].lambda != b.trace[e].lambda ||
        a.trace[e].predicted_cost != b.trace[e].predicted_cost ||
        a.trace[e].valid_loss != b.trace[e].valid_loss) {
      return false;
    }
  }
  return a.architecture.ops() == b.architecture.ops() &&
         a.final_predicted_cost == b.final_predicted_cost &&
         a.final_lambda == b.final_lambda;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  smoke = smoke || bench::fast_mode();

  bench::banner("alloc_steady_state",
                "pooled tensor buffers: zero-miss gate, "
                "bit-identity, steady-state throughput");

  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const std::size_t samples = smoke ? 768 : 4000;
  const std::size_t throughput_epochs = smoke ? 4 : 12;
  const std::size_t batch = 16;
  const std::size_t steps_per_run =
      throughput_epochs * ((samples + batch - 1) / batch);
  const predictors::MeasurementDataset data = make_dataset(space, samples);

  bool all_pass = true;

  // --- 1. zero-miss steady state: predictor training -------------------
  nn::PoolStats train_steady;
  {
    nn::PooledScope scope(nn::PoolMode::kFresh);
    run_training(space, data, throughput_epochs, batch, true);
    const nn::PoolStats warm = scope.pool().stats();
    run_training(space, data, throughput_epochs, batch, true);
    train_steady = scope.pool().stats() - warm;
  }
  const bool train_zero_miss = train_steady.buffer_misses == 0;
  std::printf("steady-state training (warmed pool, %zu steps):\n",
              steps_per_run);
  std::printf("  buffer misses: %llu (required 0)\n",
              static_cast<unsigned long long>(train_steady.buffer_misses));
  std::printf("  buffer hits: %llu   recycled: %.1f MB\n",
              static_cast<unsigned long long>(train_steady.buffer_hits),
              static_cast<double>(train_steady.bytes_recycled) / 1e6);
  if (!train_zero_miss) {
    std::printf("  FAIL: warmed pool still misses\n");
    all_pass = false;
  }

  // The predictor + task used by the search sections below.
  predictors::MlpPredictor predictor = predictors::MlpPredictor::from_state(
      run_training(space, data, smoke ? 4 : 8, 64, true).state);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = smoke ? 512 : 2048;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  // --- 2. throughput: pooled steady state vs pooling disabled ----------
  //
  // Gated workload: search steps at batch 8 (see
  // throughput_search_config). Reported workload: predictor training,
  // where the pool is neutral-to-mildly-positive because step cost is
  // O(params) GEMM/Adam arithmetic. Both arms take the best of three
  // reps; the pooled arm is warmed first so the gate measures the
  // steady state, not the bucket-discovery transient.
  double pooled_steps_per_s = 0.0;
  double unpooled_steps_per_s = 0.0;
  double train_speedup = 0.0;
  double search_pooled_steps_per_s = 0.0;
  double search_unpooled_steps_per_s = 0.0;
  double search_speedup = 0.0;
  double hit_rate = 0.0;
  bool throughput_pass = true;
  if (smoke) {
    std::printf("\nthroughput gate: SKIPPED (smoke mode)\n");
  } else {
    double unpooled_seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      unpooled_seconds = std::min(
          unpooled_seconds,
          run_training(space, data, throughput_epochs, batch, false).seconds);
    }
    double pooled_seconds = 1e300;
    {
      nn::PooledScope scope(nn::PoolMode::kFresh);
      run_training(space, data, throughput_epochs, batch, true);
      const nn::PoolStats warm = scope.pool().stats();
      for (int rep = 0; rep < 3; ++rep) {
        pooled_seconds = std::min(
            pooled_seconds,
            run_training(space, data, throughput_epochs, batch, true).seconds);
      }
      const nn::PoolStats timed = scope.pool().stats() - warm;
      hit_rate = timed.buffer_hit_rate();
    }
    pooled_steps_per_s = static_cast<double>(steps_per_run) / pooled_seconds;
    unpooled_steps_per_s =
        static_cast<double>(steps_per_run) / unpooled_seconds;
    train_speedup = pooled_steps_per_s / unpooled_steps_per_s;

    const core::LightNasConfig tp_config = throughput_search_config();
    const std::size_t search_steps =
        tp_config.epochs *
        (tp_config.w_steps_per_epoch + tp_config.alpha_steps_per_epoch);
    double search_unpooled_seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const nn::PooledScope off(nn::PoolMode::kDisabled);
      core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                            tp_config);
      const double start = now_seconds();
      (void)engine.search();
      search_unpooled_seconds =
          std::min(search_unpooled_seconds, now_seconds() - start);
    }
    double search_pooled_seconds = 1e300;
    {
      nn::PooledScope scope(nn::PoolMode::kFresh);
      {
        core::LightNas warm_engine(space, predictor, task,
                                   core::SupernetConfig{}, tp_config);
        (void)warm_engine.search();
      }
      for (int rep = 0; rep < 3; ++rep) {
        core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                              tp_config);
        const double start = now_seconds();
        (void)engine.search();
        search_pooled_seconds =
            std::min(search_pooled_seconds, now_seconds() - start);
      }
    }
    search_pooled_steps_per_s =
        static_cast<double>(search_steps) / search_pooled_seconds;
    search_unpooled_steps_per_s =
        static_cast<double>(search_steps) / search_unpooled_seconds;
    search_speedup = search_pooled_steps_per_s / search_unpooled_steps_per_s;

    util::Table table({"workload", "off steps/s", "pooled steps/s",
                       "speedup", "gate"});
    table.add_row({"search (batch 8)",
                   util::fmt_double(search_unpooled_steps_per_s, 1),
                   util::fmt_double(search_pooled_steps_per_s, 1),
                   util::fmt_double(search_speedup, 2), ">= 1.3x"});
    table.add_row({"training (batch " + std::to_string(batch) + ")",
                   util::fmt_double(unpooled_steps_per_s, 1),
                   util::fmt_double(pooled_steps_per_s, 1),
                   util::fmt_double(train_speedup, 2), "reported"});
    std::printf("\nsteady-state throughput (pool hit rate %.1f%%):\n",
                100.0 * hit_rate);
    table.print(std::cout);
    std::printf("search-step speedup: %.2fx (required >= 1.3x)\n",
                search_speedup);
    if (search_speedup < 1.3) {
      std::printf("FAIL: pooled search steps below 1.3x\n");
      throughput_pass = false;
      all_pass = false;
    }
  }

  // --- 3. zero-miss steady state: search epochs ------------------------
  // Sampled op choices change the activation widths step to step, so a
  // single search keeps discovering new bucket sizes for several epochs
  // (the per-epoch trace below decays fast but stochastically). The
  // steady-state claim is therefore gated on a *repeat* of the same
  // search under the warmed pool: same seed, same draws, same shapes —
  // it must not miss at all.
  std::vector<std::uint64_t> misses_by_epoch;
  nn::PoolStats search_steady;
  std::size_t search_pool_free_bytes = 0;
  {
    nn::PooledScope scope(nn::PoolMode::kFresh);
    core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                          search_config(smoke));
    core::SearchHooks hooks;
    hooks.checkpoint_every = 1;
    hooks.on_checkpoint = [&](const core::SearchCheckpoint&) {
      misses_by_epoch.push_back(
          nn::TensorPool::global_stats().buffer_misses);
    };
    engine.search(hooks);

    const nn::PoolStats warm = scope.pool().stats();
    core::LightNas repeat(space, predictor, task, core::SupernetConfig{},
                          search_config(smoke));
    repeat.search();
    search_steady = scope.pool().stats() - warm;
    search_pool_free_bytes = scope.pool().free_bytes();
  }
  std::printf("\nsearch buffer misses by epoch, first run (cumulative):");
  for (const std::uint64_t m : misses_by_epoch) {
    std::printf(" %llu", static_cast<unsigned long long>(m));
  }
  std::printf("\n");
  const bool search_zero_miss = search_steady.buffer_misses == 0;
  std::printf("repeat search under warmed pool: %llu buffer misses "
              "(required 0)\n",
              static_cast<unsigned long long>(search_steady.buffer_misses));
  std::printf("pool retention after the repeat search: %.2f MB\n",
              static_cast<double>(search_pool_free_bytes) / 1e6);
  if (!search_zero_miss) {
    std::printf("FAIL: warmed pool still misses during search\n");
    all_pass = false;
  }

  // --- 4. bit-identity: pooled vs unpooled ------------------------------
  const std::size_t identity_epochs = smoke ? 3 : 6;
  const bool train_same = states_identical(
      run_training(space, data, identity_epochs, 64, false).state,
      run_training(space, data, identity_epochs, 64, true).state);

  auto search_once = [&](bool pooled) {
    const nn::PooledScope scope(pooled ? nn::PoolMode::kInherit
                                       : nn::PoolMode::kDisabled);
    core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                          search_config(smoke));
    return engine.search();
  };
  const bool search_same =
      search_results_identical(search_once(false), search_once(true));

  util::Table identity({"comparison", "identical"});
  identity.add_row({"trained predictor weights", train_same ? "yes" : "NO"});
  identity.add_row({"search trajectory", search_same ? "yes" : "NO"});
  std::printf("\nbit-identity pooled vs unpooled:\n");
  identity.print(std::cout);
  const bool identity_pass = train_same && search_same;
  if (!identity_pass) {
    std::printf("FAIL: pooling changed an observable result\n");
    all_pass = false;
  }

  // --- machine-readable summary ----------------------------------------
  io::Json out = io::Json::object();
  out.set("bench", io::Json("alloc_steady_state"));
  out.set("smoke", io::Json(smoke));
  const bool measured = !smoke;
  out.set("measured", io::Json(measured));
  out.set("train_steps_per_s_pooled",
          bench::reading(measured, pooled_steps_per_s));
  out.set("train_steps_per_s_unpooled",
          bench::reading(measured, unpooled_steps_per_s));
  out.set("train_speedup", bench::reading(measured, train_speedup));
  out.set("search_steps_per_s_pooled",
          bench::reading(measured, search_pooled_steps_per_s));
  out.set("search_steps_per_s_unpooled",
          bench::reading(measured, search_unpooled_steps_per_s));
  out.set("search_speedup", bench::reading(measured, search_speedup));
  out.set("throughput_pass", io::Json(throughput_pass));
  out.set("pool_hit_rate", bench::reading(measured, hit_rate));
  out.set("steady_buffer_misses",
          io::Json(static_cast<std::size_t>(train_steady.buffer_misses)));
  out.set("train_zero_miss", io::Json(train_zero_miss));
  out.set("search_zero_miss", io::Json(search_zero_miss));
  out.set("search_pool_free_bytes", io::Json(search_pool_free_bytes));
  out.set("bit_identical", io::Json(identity_pass));
  out.set("peak_rss_bytes", io::Json(peak_rss_bytes()));
  bench::update_bench_json("BENCH_alloc.json", "steady_state", out);
  std::printf("\nupdated BENCH_alloc.json (section: steady_state, peak RSS "
              "%.1f MB)\n",
              static_cast<double>(peak_rss_bytes()) / 1e6);

  if (!all_pass) {
    std::printf("FAIL\n");
    return 1;
  }
  std::printf(smoke ? "PASS (smoke: throughput gate skipped)\n" : "PASS\n");
  return 0;
}
