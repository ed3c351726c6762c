// Compiled-plan gate: the shape-specialized execution plan
// (nn/plan.hpp) against the recycled-graph dynamic path.
//
// Gates (exit 1 on violation):
//  - Throughput (full mode only): steady-state *planned* w-steps
//    (ExecutionPlan::execute + Sgd::step_on over the plan's parameter
//    table) must be >= 1.3x the steps/s of a warmed dynamic
//    SharedWTrainer::step on the same fixed path (buffer pool and node
//    recycling both active — the strongest dynamic configuration) at the
//    paper's embedded operating point (batch 8), where Var/pool
//    bookkeeping — not GEMM arithmetic — dominates a step.
//  - Zero overhead (always enforced): once a plan is compiled, execute()
//    alone and a full planned step (execute + sparse SGD + grad zero)
//    perform zero heap allocations (operator new is instrumented in this
//    binary) and zero tensor-pool traffic.
//  - Artifact round-trip (always enforced): recorded programs survive
//    save_plan -> load_plan -> bind_program_params -> compile with
//    bit-identical execution.
//  - Predictor plans (always enforced): a forward-only plan of the MLP
//    predictor matches forward_var bit-for-bit.
//
// Results are emitted machine-readably to BENCH_plan.json; the timed
// readings are null (with "measured": false) in smoke runs.

#include <algorithm>
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
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "nn/ops.hpp"
#include "nn/optim.hpp"
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

core::LightNasConfig trainer_config() {
  core::LightNasConfig config;
  config.seed = 3;
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

/// A w-step driven by a compiled plan of one fixed path: execute()
/// for forward + backward, then the same cosine-scheduled sparse SGD
/// and grad zero that SharedWTrainer::step runs, over the plan's
/// parameter table. Steps the weights of `trainer`'s supernet with its
/// own optimizer state.
class PlannedStepper {
 public:
  PlannedStepper(const core::SharedWTrainer& trainer,
                 const core::LightNasConfig& config, std::size_t total_steps,
                 const nn::Dataset& batch,
                 const std::vector<std::size_t>& path)
      : weights_(trainer.weight_parameters()),
        optimizer_(weights_, config.w_lr, config.w_momentum,
                   config.w_weight_decay, /*clip_norm=*/5.0),
        schedule_(config.w_lr, total_steps),
        inputs_{&batch.features},
        labels_{&batch.labels} {
    std::unique_ptr<nn::plan::Program> program;
    {
      nn::plan::Recording recording;
      const nn::VarPtr loss = nn::ops::softmax_cross_entropy(
          trainer.supernet().forward_single_path(batch.features, path),
          batch.labels);
      program = recording.capture(loss);
    }
    if (program == nullptr) return;
    plan_ = nn::plan::ExecutionPlan::compile(*program,
                                             nn::plan::CompileOptions{});
    for (const nn::plan::ProgramSlot& slot : program->slots) {
      if (slot.kind != nn::plan::SlotKind::kParam) continue;
      for (std::uint32_t i = 0; i < weights_.size(); ++i) {
        if (weights_[i] == slot.param) active_.push_back(i);
      }
    }
    std::sort(active_.begin(), active_.end());
    active_.erase(std::unique(active_.begin(), active_.end()),
                  active_.end());
  }

  nn::plan::ExecutionPlan* plan() { return plan_.get(); }
  const std::vector<const nn::Tensor*>& inputs() const { return inputs_; }
  const std::vector<const std::vector<std::size_t>*>& labels() const {
    return labels_;
  }

  bool step() {
    if (!plan_->execute(inputs_, labels_)) return false;
    optimizer_.set_lr(schedule_.lr_at(step_counter_++));
    optimizer_.step_on(active_);
    for (const std::uint32_t i : active_) weights_[i]->zero_grad();
    return true;
  }

 private:
  std::vector<nn::VarPtr> weights_;
  nn::Sgd optimizer_;
  nn::CosineSchedule schedule_;
  std::vector<const nn::Tensor*> inputs_;
  std::vector<const std::vector<std::size_t>*> labels_;
  std::unique_ptr<nn::plan::ExecutionPlan> plan_;
  std::vector<std::uint32_t> active_;
  std::size_t step_counter_ = 0;
};

/// Best-of-`reps` timing of `steps` fixed-path w-steps on a fresh
/// trainer (warmed first so compiles / bucket discovery stay off the
/// clock): dynamic SharedWTrainer::step, or a PlannedStepper over the
/// same supernet. Returns 0 if the plan cannot be built or executed.
double time_steps(const core::SearchTopology& topology,
                  const nn::SyntheticTask& task, const nn::Dataset& batch,
                  const std::vector<std::size_t>& path, bool planned,
                  std::size_t steps, int reps) {
  nn::PooledScope scope(nn::PoolMode::kFresh);
  const std::size_t total = steps * static_cast<std::size_t>(reps) + 16;
  core::SharedWTrainer trainer(topology, task, core::SupernetConfig{},
                               trainer_config(), total);
  std::optional<PlannedStepper> stepper;
  if (planned) {
    stepper.emplace(trainer, trainer_config(), total, batch, path);
    if (stepper->plan() == nullptr) return 0.0;
  }
  bool ok = true;
  const auto run = [&](std::size_t n) {
    for (std::size_t s = 0; s < n; ++s) {
      if (stepper.has_value()) {
        ok = stepper->step() && ok;
      } else {
        (void)trainer.step(batch, path);
      }
    }
  };
  run(8);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double start = now_seconds();
    run(steps);
    best = std::min(best, now_seconds() - start);
  }
  return ok ? best : 0.0;
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
                "overhead, compiled-model artifacts");

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
    steps_per_s_planned =
        planned_s > 0.0 ? static_cast<double>(steps) / planned_s : 0.0;
    speedup = steps_per_s_planned / steps_per_s_dynamic;

    util::Table table({"path", "steps/s", "speedup", "gate"});
    table.add_row({"dynamic trainer.step (pooled)",
                   util::fmt_double(steps_per_s_dynamic, 1), "1.0",
                   "reference"});
    table.add_row({"execute + step_on",
                   util::fmt_double(steps_per_s_planned, 1),
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
  //  - a full planned step (execute + sparse SGD + grad zero) must do
  //    the same: the fused Sgd::step_on path reads and writes parameters
  //    in place, so even the optimizer touches no pooled buffers.
  std::uint64_t exec_heap_allocs = 1;
  std::uint64_t exec_pool_ops = 1;
  std::uint64_t steady_heap_allocs = 1;
  std::uint64_t steady_pool_misses = 1;
  std::uint64_t steady_pool_hits = 1;
  std::uint64_t steady_plan_hits = 0;
  const std::size_t steady_steps = smoke ? 32 : 256;
  {
    nn::PooledScope scope(nn::PoolMode::kFresh);
    core::SharedWTrainer trainer(topology, task, core::SupernetConfig{},
                                 trainer_config(), steady_steps + 16);
    PlannedStepper stepper(trainer, trainer_config(), steady_steps + 16,
                           batch, path);
    if (stepper.plan() != nullptr) {
      // Warm: ensure_grad allocations happen on the first steps only.
      for (int i = 0; i < 4; ++i) (void)stepper.step();

      // Pure-execute window.
      nn::PoolStats pool_before = nn::TensorPool::global_stats();
      g_heap_allocs.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      for (std::size_t s = 0; s < steady_steps; ++s) {
        (void)stepper.plan()->execute(stepper.inputs(), stepper.labels());
      }
      g_count_allocs.store(false, std::memory_order_relaxed);
      const nn::PoolStats pd = nn::TensorPool::global_stats() - pool_before;
      exec_heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
      exec_pool_ops = pd.buffer_hits + pd.buffer_misses + pd.node_hits +
                      pd.node_misses;

      // Full planned-step window: execute + step_on + grad zero.
      pool_before = nn::TensorPool::global_stats();
      const nn::plan::PlanStats plan_before = nn::plan::global_stats();
      g_heap_allocs.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      for (std::size_t s = 0; s < steady_steps; ++s) (void)stepper.step();
      g_count_allocs.store(false, std::memory_order_relaxed);
      const nn::PoolStats pool_delta =
          nn::TensorPool::global_stats() - pool_before;
      steady_heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
      steady_pool_misses = pool_delta.buffer_misses + pool_delta.node_misses;
      steady_pool_hits = pool_delta.buffer_hits + pool_delta.node_hits;
      steady_plan_hits = (nn::plan::global_stats() - plan_before).hits;
    }
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
  std::printf("planned steps x%zu: %llu plan hits, %llu heap "
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

  // --- 3. compiled-model artifact round-trip ---------------------------
  const std::vector<MlpSpec> specs = {
      {8, 16, 32, 10}, {4, 7, 9, 3}, {16, 24, 24, 5}, {1, 12, 8, 2}};
  bool roundtrip_bit_identical = true;
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

  }
  std::printf("\nartifact round-trip over %zu specs: %s\n", specs.size(),
              roundtrip_bit_identical ? "bit-identical" : "FAIL");
  if (!roundtrip_bit_identical) {
    std::printf("FAIL: compiled-model artifact round-trip broken\n");
    all_pass = false;
  }

  // --- 4. forward-only predictor plans ---------------------------------
  // A fabricated trained predictor: only determinism matters here.
  predictors::MlpPredictor::State pstate =
      predictors::MlpPredictor(space.num_layers(), space.num_ops(), 7)
          .export_state();
  pstate.trained = true;
  pstate.target_mean = 12.0;
  pstate.target_std = 2.5;
  const predictors::MlpPredictor predictor =
      predictors::MlpPredictor::from_state(pstate);

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
  out.set("roundtrip_bit_identical", io::Json(roundtrip_bit_identical));
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
