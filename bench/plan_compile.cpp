// Compiled-plan gate: the shape-specialized execution plan
// (nn/plan.hpp) against the recycled-graph dynamic path.
//
// Gates (exit 1 on violation):
//  - Throughput (full mode only): steady-state *planned* w-steps must be
//    >= 1.3x the steps/s of the warmed dynamic path (buffer pool and
//    node recycling both active — the strongest dynamic configuration) at the paper's
//    embedded operating point (batch 8, fixed path), where Var/pool
//    bookkeeping — not GEMM arithmetic — dominates a step.
//  - Zero overhead (always enforced): once a plan is compiled, further
//    planned steps perform zero heap allocations (operator new is
//    instrumented in this binary) and zero tensor-pool traffic.
//  - Bit-identity (always enforced): full search trajectories with
//    plans enabled are bit-identical to the dynamic engine, including
//    through a checkpoint kill + resume.
//  - Artifact round-trip (always enforced): recorded programs survive
//    save_plan -> load_plan -> bind_program_params -> compile with
//    bit-identical execution, and a cache warmed from the artifact
//    serves hits from the first lookup (no dynamic steps needed).
//  - Predictor plans (always enforced): a forward-only plan of the MLP
//    predictor matches forward_var bit-for-bit.
//
// Results are emitted machine-readably to BENCH_plan.json; the timed
// readings are null (with "measured": false) in smoke runs.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lightnas.hpp"
#include "core/search_step.hpp"
#include "hw/cost_model.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "nn/ops.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

// --- heap-allocation instrumentation -----------------------------------
// Replacing the global allocation functions lets the zero-overhead gate
// observe *every* heap allocation in the steady-state window, from any
// translation unit. Counting is flipped on only around the measured
// steps; the counter itself is lock-free.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace lightnas;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::LightNasConfig trainer_config(bool planned) {
  core::LightNasConfig config;
  config.seed = 3;
  config.plan = nn::plan::PlanSettings{};
  config.plan.enabled = planned;
  config.plan.compile_after = 2;
  return config;
}

/// Fixed batch at the embedded operating point (batch 8): the plan-hit
/// regime is a recurring (path, batch shape) key.
nn::Dataset make_batch(const nn::SyntheticTask& task, std::size_t rows) {
  nn::Dataset batch;
  batch.features =
      nn::Tensor::uninitialized(rows, task.train.feature_dim());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < batch.features.cols(); ++c) {
      batch.features.at(r, c) = task.train.features.at(r, c);
    }
    batch.labels.push_back(task.train.labels[r]);
  }
  return batch;
}

/// Best-of-`reps` timing of `steps` fixed-path w-steps on a fresh
/// trainer (warmed first so compiles / bucket discovery stay off the
/// clock).
double time_steps(const core::SearchTopology& topology,
                  const nn::SyntheticTask& task, const nn::Dataset& batch,
                  const std::vector<std::size_t>& path, bool planned,
                  std::size_t steps, int reps) {
  nn::PooledScope scope(nn::PoolMode::kFresh);
  core::SharedWTrainer trainer(topology, task, core::SupernetConfig{},
                               trainer_config(planned),
                               steps * static_cast<std::size_t>(reps) + 16);
  for (int i = 0; i < 8; ++i) (void)trainer.step(batch, path);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double start = now_seconds();
    for (std::size_t s = 0; s < steps; ++s) (void)trainer.step(batch, path);
    best = std::min(best, now_seconds() - start);
  }
  return best;
}

core::LightNasConfig search_config(bool smoke, bool planned) {
  core::LightNasConfig config;
  config.seed = 3;
  config.epochs = smoke ? 4 : 8;
  config.warmup_epochs = 1;
  config.w_steps_per_epoch = smoke ? 8 : 16;
  config.alpha_steps_per_epoch = smoke ? 4 : 8;
  config.batch_size = smoke ? 16 : 32;
  config.target = 24.0;
  config.plan = nn::plan::PlanSettings{};
  config.plan.enabled = planned;
  config.plan.compile_after = 1;
  config.plan.max_plans = 64;
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

// --- artifact round-trip fixtures ---------------------------------------

nn::Tensor random_tensor(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor t = nn::Tensor::uninitialized(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

struct MlpSpec {
  std::size_t batch, in, hidden, classes;
};

struct MlpModel {
  nn::VarPtr W1, b1, W2, b2;
  std::vector<nn::VarPtr> params() const { return {W1, b1, W2, b2}; }
};

MlpModel make_mlp(const MlpSpec& spec, std::uint64_t seed) {
  MlpModel m;
  m.W1 = nn::make_leaf(random_tensor(spec.in, spec.hidden, seed + 1), "W1");
  m.b1 = nn::make_leaf(random_tensor(1, spec.hidden, seed + 2), "b1");
  m.W2 =
      nn::make_leaf(random_tensor(spec.hidden, spec.classes, seed + 3), "W2");
  m.b2 = nn::make_leaf(random_tensor(1, spec.classes, seed + 4), "b2");
  return m;
}

nn::VarPtr mlp_loss(const MlpModel& m, const nn::VarPtr& x,
                    const std::vector<std::size_t>& labels) {
  using namespace nn::ops;  // NOLINT
  const nn::VarPtr h = relu(add_bias(matmul(x, m.W1), m.b1));
  return softmax_cross_entropy(add_bias(matmul(h, m.W2), m.b2), labels);
}

bool grads_equal(const std::vector<nn::VarPtr>& a,
                 const std::vector<nn::VarPtr>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const nn::Tensor& ga = a[i]->grad;
    const nn::Tensor& gb = b[i]->grad;
    if (ga.rows() != gb.rows() || ga.cols() != gb.cols() ||
        std::memcmp(ga.data().data(), gb.data().data(),
                    ga.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool float_bits_equal(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(float));
  std::memcpy(&ub, &b, sizeof(float));
  return ua == ub;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  smoke = smoke || bench::fast_mode();

  bench::banner("plan_compile",
                "shape-specialized execution plans: throughput, zero "
                "overhead, bit-identity, compiled-model artifacts");

  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const core::SearchTopology topology(space);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = smoke ? 256 : 1024;
  task_config.valid_size = smoke ? 128 : 512;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);
  const nn::Dataset batch = make_batch(task, 8);
  const std::vector<std::size_t> path = space.uniform_architecture(0).ops();

  const nn::plan::PlanStats bench_start = nn::plan::global_stats();
  bool all_pass = true;

  // --- 1. throughput: planned vs warmed dynamic w-steps ----------------
  double steps_per_s_dynamic = 0.0;
  double steps_per_s_planned = 0.0;
  double speedup = 0.0;
  bool throughput_pass = true;
  if (smoke) {
    std::printf("throughput gate: SKIPPED (smoke mode)\n");
  } else {
    const std::size_t steps = 1200;
    const double dynamic_s =
        time_steps(topology, task, batch, path, false, steps, 3);
    const double planned_s =
        time_steps(topology, task, batch, path, true, steps, 3);
    steps_per_s_dynamic = static_cast<double>(steps) / dynamic_s;
    steps_per_s_planned = static_cast<double>(steps) / planned_s;
    speedup = steps_per_s_planned / steps_per_s_dynamic;

    util::Table table({"path", "steps/s", "speedup", "gate"});
    table.add_row({"dynamic (pooled)",
                   util::fmt_double(steps_per_s_dynamic, 1), "1.0",
                   "reference"});
    table.add_row({"planned", util::fmt_double(steps_per_s_planned, 1),
                   util::fmt_double(speedup, 2), ">= 1.3x"});
    std::printf("steady-state w-steps (batch 8, fixed path, best of 3):\n");
    table.print(std::cout);
    if (speedup < 1.3) {
      std::printf("FAIL: planned steps below 1.3x dynamic\n");
      throughput_pass = false;
      all_pass = false;
    }
  }

  // --- 2. zero overhead: no heap, no pool traffic under the plan -------
  //
  // Two windows:
  //  - plan->execute() alone must perform zero heap allocations and zero
  //    pool operations of any kind — the plan's own contract (no Var
  //    machinery, no buckets, no heap);
  //  - a full planned trainer step (key build + cache lookup + execute +
  //    sparse SGD) must do the same: the fused Sgd::step_on path reads
  //    and writes parameters in place, so even the optimizer touches no
  //    pooled buffers.
  std::uint64_t exec_heap_allocs = 1;
  std::uint64_t exec_pool_ops = 1;
  std::uint64_t steady_heap_allocs = 0;
  std::uint64_t steady_pool_misses = 0;
  std::uint64_t steady_pool_hits = 0;
  std::uint64_t steady_plan_hits = 0;
  const std::size_t steady_steps = smoke ? 32 : 256;
  {
    nn::PooledScope scope(nn::PoolMode::kFresh);
    core::SharedWTrainer trainer(topology, task, core::SupernetConfig{},
                                 trainer_config(true), steady_steps + 16);
    // Warm until the plan is compiled and serving (compile_after = 2).
    for (int i = 0; i < 4; ++i) (void)trainer.step(batch, path);

    // Pure-execute window: record the same forward on this supernet,
    // compile a standalone plan, and drive execute() directly.
    {
      std::unique_ptr<nn::plan::Program> program;
      {
        nn::plan::Recording recording;
        const nn::VarPtr logits =
            trainer.supernet().forward_single_path(batch.features, path);
        const nn::VarPtr loss =
            nn::ops::softmax_cross_entropy(logits, batch.labels);
        program = recording.capture(loss);
      }
      std::unique_ptr<nn::plan::ExecutionPlan> plan =
          program != nullptr ? nn::plan::ExecutionPlan::compile(
                                   *program, nn::plan::CompileOptions{})
                             : nullptr;
      if (plan != nullptr) {
        const std::vector<const nn::Tensor*> inputs = {&batch.features};
        const std::vector<const std::vector<std::size_t>*> labels = {
            &batch.labels};
        (void)plan->execute(inputs, labels);  // ensure_grad warmup
        const nn::PoolStats pool_before = nn::TensorPool::global_stats();
        g_heap_allocs.store(0, std::memory_order_relaxed);
        g_count_allocs.store(true, std::memory_order_relaxed);
        for (std::size_t s = 0; s < steady_steps; ++s) {
          (void)plan->execute(inputs, labels);
        }
        g_count_allocs.store(false, std::memory_order_relaxed);
        const nn::PoolStats pd =
            nn::TensorPool::global_stats() - pool_before;
        exec_heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
        exec_pool_ops = pd.buffer_hits + pd.buffer_misses + pd.node_hits +
                        pd.node_misses;
      }
    }

    // Full planned-step window: key build + lookup + execute + SGD.
    const nn::PoolStats pool_before = nn::TensorPool::global_stats();
    const nn::plan::PlanStats plan_before = nn::plan::global_stats();
    g_heap_allocs.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (std::size_t s = 0; s < steady_steps; ++s) {
      (void)trainer.step(batch, path);
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    const nn::PoolStats pool_delta =
        nn::TensorPool::global_stats() - pool_before;
    steady_heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
    steady_pool_misses = pool_delta.buffer_misses + pool_delta.node_misses;
    steady_pool_hits = pool_delta.buffer_hits + pool_delta.node_hits;
    steady_plan_hits = (nn::plan::global_stats() - plan_before).hits;
  }
  const bool zero_overhead =
      exec_heap_allocs == 0 && exec_pool_ops == 0 &&
      steady_heap_allocs == 0 && steady_pool_misses == 0 &&
      steady_pool_hits == 0 && steady_plan_hits == steady_steps;
  std::printf("\npure execute() x%zu: %llu heap allocs, %llu pool ops "
              "(required 0/0)\n",
              steady_steps,
              static_cast<unsigned long long>(exec_heap_allocs),
              static_cast<unsigned long long>(exec_pool_ops));
  std::printf("planned trainer steps x%zu: %llu plan hits, %llu heap "
              "allocs, %llu pool misses, %llu pool hits (required "
              "%zu/0/0/0)\n",
              steady_steps,
              static_cast<unsigned long long>(steady_plan_hits),
              static_cast<unsigned long long>(steady_heap_allocs),
              static_cast<unsigned long long>(steady_pool_misses),
              static_cast<unsigned long long>(steady_pool_hits),
              steady_steps);
  if (!zero_overhead) {
    std::printf("FAIL: planned steps still touch the heap or miss the "
                "pool\n");
    all_pass = false;
  }

  // --- 3. bit-identity: planned vs dynamic search, incl. kill/resume ---
  predictors::MlpPredictor::State pstate =
      predictors::MlpPredictor(space.num_layers(), space.num_ops(), 7)
          .export_state();
  pstate.trained = true;
  pstate.target_mean = 12.0;
  pstate.target_std = 2.5;
  const predictors::MlpPredictor predictor =
      predictors::MlpPredictor::from_state(pstate);

  auto run_search = [&](bool planned,
                        const core::SearchHooks* hooks) {
    core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                          search_config(smoke, planned));
    return hooks != nullptr ? engine.search(*hooks) : engine.search();
  };
  const core::SearchResult dynamic_run = run_search(false, nullptr);
  const core::SearchResult planned_run = run_search(true, nullptr);
  const bool full_identical =
      search_results_identical(dynamic_run, planned_run);

  // Kill after epoch 3, resume from the checkpoint, plans on throughout.
  std::optional<core::SearchCheckpoint> saved;
  core::SearchHooks kill;
  kill.on_checkpoint = [&](const core::SearchCheckpoint& ck) { saved = ck; };
  kill.should_stop = [](std::size_t done) { return done >= 3; };
  (void)run_search(true, &kill);
  bool resume_identical = false;
  if (saved.has_value()) {
    core::SearchHooks resume;
    resume.resume = &*saved;
    resume_identical =
        search_results_identical(planned_run, run_search(true, &resume));
  }
  const bool search_bit_identical = full_identical && resume_identical;
  std::printf("\nsearch trajectory, plans on vs off: %s\n",
              full_identical ? "bit-identical" : "MISMATCH");
  std::printf("kill/resume with plans on: %s\n",
              resume_identical ? "bit-identical" : "MISMATCH");
  std::printf("planned run plan telemetry: hits=%llu misses=%llu "
              "compiles=%llu fused=%llu arena=%llu B\n",
              static_cast<unsigned long long>(planned_run.health.plan_hits),
              static_cast<unsigned long long>(
                  planned_run.health.plan_misses),
              static_cast<unsigned long long>(
                  planned_run.health.plan_compiles),
              static_cast<unsigned long long>(
                  planned_run.health.plan_fused_ops),
              static_cast<unsigned long long>(
                  planned_run.health.plan_arena_bytes));
  if (!search_bit_identical) {
    std::printf("FAIL: plans changed an observable search result\n");
    all_pass = false;
  }

  // --- 4. compiled-model artifact round-trip ---------------------------
  const std::vector<MlpSpec> specs = {
      {8, 16, 32, 10}, {4, 7, 9, 3}, {16, 24, 24, 5}, {1, 12, 8, 2}};
  bool roundtrip_bit_identical = true;
  bool roundtrip_cold_hits = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MlpSpec& spec = specs[i];
    const nn::Tensor features =
        random_tensor(spec.batch, spec.in, 100 + i);
    std::vector<std::size_t> labels;
    for (std::size_t r = 0; r < spec.batch; ++r) {
      labels.push_back(r % spec.classes);
    }
    // Dynamic reference.
    const MlpModel reference = make_mlp(spec, 50 + i);
    const nn::VarPtr loss =
        mlp_loss(reference, nn::make_const(features), labels);
    nn::backward(loss);

    // Record, serialize, reload, bind to a fresh same-seed model.
    const MlpModel recorded = make_mlp(spec, 50 + i);
    std::unique_ptr<nn::plan::Program> program;
    {
      nn::plan::Recording recording;
      const nn::VarPtr traced =
          mlp_loss(recorded, nn::make_const(features), labels);
      program = recording.capture(traced);
    }
    if (program == nullptr) {
      roundtrip_bit_identical = false;
      continue;
    }
    const std::string file =
        (std::filesystem::temp_directory_path() /
         ("lightnas_plan_bench_" + std::to_string(i) + ".json"))
            .string();
    io::save_plan(file, *program);
    nn::plan::Program loaded = io::load_plan(file);
    std::filesystem::remove(file);
    const MlpModel host = make_mlp(spec, 50 + i);
    io::bind_program_params(loaded, host.params());
    std::unique_ptr<nn::plan::ExecutionPlan> plan =
        nn::plan::ExecutionPlan::compile(loaded, nn::plan::CompileOptions{});
    if (plan == nullptr || !plan->execute({&features}, {&labels})) {
      roundtrip_bit_identical = false;
      continue;
    }
    roundtrip_bit_identical =
        roundtrip_bit_identical &&
        float_bits_equal(loss->value.item(), plan->root_data()[0]) &&
        grads_equal(reference.params(), host.params());

    // A cache warmed from the artifact must serve hits cold: no
    // dynamic steps, no compile trigger.
    nn::plan::PlanSettings settings;
    settings.enabled = true;
    nn::plan::PlanCache cache(settings);
    cache.store("artifact", std::move(plan));
    roundtrip_cold_hits =
        roundtrip_cold_hits && cache.lookup("artifact") != nullptr;
  }
  std::printf("\nartifact round-trip over %zu specs: %s, cold cache hits: "
              "%s\n",
              specs.size(), roundtrip_bit_identical ? "bit-identical" : "FAIL",
              roundtrip_cold_hits ? "yes" : "NO");
  if (!roundtrip_bit_identical || !roundtrip_cold_hits) {
    std::printf("FAIL: compiled-model artifact round-trip broken\n");
    all_pass = false;
  }

  // --- 5. forward-only predictor plans ---------------------------------
  bool predictor_bit_identical = true;
  {
    util::Rng rng(9);
    for (int rep = 0; rep < 8; ++rep) {
      const space::Architecture arch = space.random_architecture(rng);
      const std::vector<float> one_hot =
          arch.encode_one_hot(space.num_ops());
      nn::Tensor encoding(1, one_hot.size());
      for (std::size_t i = 0; i < one_hot.size(); ++i) {
        encoding[i] = one_hot[i];
      }
      const nn::VarPtr dynamic =
          predictor.forward_var(nn::make_const(encoding));
      nn::plan::Recording recording;
      const nn::VarPtr traced =
          predictor.forward_var(nn::make_const(encoding));
      const std::unique_ptr<nn::plan::Program> program =
          recording.capture(traced);
      if (program == nullptr) {
        predictor_bit_identical = false;
        break;
      }
      nn::plan::CompileOptions opts;
      opts.backward = false;
      const auto plan = nn::plan::ExecutionPlan::compile(*program, opts);
      if (plan == nullptr || !plan->execute({&encoding}, {}) ||
          !float_bits_equal(dynamic->value.item(), plan->root_data()[0])) {
        predictor_bit_identical = false;
        break;
      }
    }
  }
  std::printf("forward-only predictor plans: %s\n",
              predictor_bit_identical ? "bit-identical" : "MISMATCH");
  if (!predictor_bit_identical) {
    std::printf("FAIL: predictor plan diverged from forward_var\n");
    all_pass = false;
  }

  // --- machine-readable summary ----------------------------------------
  const nn::plan::PlanStats delta =
      nn::plan::global_stats() - bench_start;
  io::Json out = io::Json::object();
  out.set("bench", io::Json("plan_compile"));
  out.set("smoke", io::Json(smoke));
  const bool measured = !smoke;
  out.set("measured", io::Json(measured));
  out.set("steps_per_s_dynamic",
          bench::reading(measured, steps_per_s_dynamic));
  out.set("steps_per_s_planned",
          bench::reading(measured, steps_per_s_planned));
  out.set("speedup", bench::reading(measured, speedup));
  out.set("throughput_pass", io::Json(throughput_pass));
  out.set("exec_heap_allocs",
          io::Json(static_cast<std::size_t>(exec_heap_allocs)));
  out.set("exec_pool_ops",
          io::Json(static_cast<std::size_t>(exec_pool_ops)));
  out.set("steady_heap_allocs",
          io::Json(static_cast<std::size_t>(steady_heap_allocs)));
  out.set("steady_pool_misses",
          io::Json(static_cast<std::size_t>(steady_pool_misses)));
  out.set("steady_pool_hits",
          io::Json(static_cast<std::size_t>(steady_pool_hits)));
  out.set("steady_plan_hits",
          io::Json(static_cast<std::size_t>(steady_plan_hits)));
  out.set("zero_overhead", io::Json(zero_overhead));
  out.set("search_bit_identical", io::Json(search_bit_identical));
  out.set("roundtrip_bit_identical", io::Json(roundtrip_bit_identical));
  out.set("roundtrip_cold_hits", io::Json(roundtrip_cold_hits));
  out.set("roundtrip_specs", io::Json(specs.size()));
  out.set("predictor_bit_identical", io::Json(predictor_bit_identical));
  out.set("plan_hits", io::Json(static_cast<std::size_t>(delta.hits)));
  out.set("plan_misses", io::Json(static_cast<std::size_t>(delta.misses)));
  out.set("plan_compiles",
          io::Json(static_cast<std::size_t>(delta.compiles)));
  out.set("plan_fused_ops",
          io::Json(static_cast<std::size_t>(delta.fused_ops)));
  out.set("plan_arena_bytes",
          io::Json(static_cast<std::size_t>(delta.arena_bytes)));
  bench::update_bench_json("BENCH_plan.json", "plan_compile", out);
  std::printf("\nupdated BENCH_plan.json (section: plan_compile)\n");

  if (!all_pass) {
    std::printf("FAIL\n");
    return 1;
  }
  std::printf(smoke ? "PASS (smoke: throughput gate skipped)\n" : "PASS\n");
  return 0;
}
