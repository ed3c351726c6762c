// Roofline microbenchmark + gate for the SIMD microkernel layer
// (src/nn/simd.hpp): the dense hot-path kernels — matmul (NN),
// matmul_tn, matmul_nt, the one-hot matmul_zero_skip, the Adam step and
// the fused add_row_relu — timed per ISA tier against the machine's
// measured roofline.
//
// Method (HPC measurement discipline, not google-benchmark vibes):
//  - every kernel arm runs `warmup` untimed reps, then 30+ timed reps
//    inside a warmed TensorPool (so the timer sees arithmetic, not the
//    allocator); median and p95 of the per-rep times are reported
//  - the machine roofline is probed directly: peak one-core GFLOP/s from
//    a register-tiled FMA loop and sustained bandwidth from a
//    STREAM-triad sweep (simd::peak_gflops_probe / stream_bandwidth_probe)
//  - each kernel reports achieved GFLOP/s (GB/s for the bandwidth-bound
//    relu), its arithmetic intensity, and percent of its roofline bound
//    min(peak, bandwidth * intensity)
//
// Gates (exit 1 on violation):
//  - bit-identity (always enforced): scalar vs AVX2 on an odd-shape
//    matrix sweep including NaN/inf propagation, and full scalar-vs-AVX2
//    search-step trajectory + trained-predictor-state identity — the
//    accumulation-order contract that keeps checkpoints portable across
//    hosts. Skipped (reported as such) only when no AVX2 tier exists.
//  - speedup (AVX2 hosts): vectorized matmul median throughput >= 2x the
//    scalar tier. Gracefully SKIPPED when AVX2 is not compiled in or not
//    supported by the CPU.
//
// Results land machine-readably in BENCH_micro.json (section "roofline")
// through bench::update_bench_json, next to BENCH_train/alloc/serve.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lightnas.hpp"
#include "hw/cost_model.hpp"
#include "io/json.hpp"
#include "nn/optim.hpp"
#include "nn/pool.hpp"
#include "nn/simd.hpp"
#include "nn/tensor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace lightnas;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RepStats {
  double median_ms = 0.0;
  double p95_ms = 0.0;
};

RepStats summarize(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  RepStats stats;
  stats.median_ms = seconds[seconds.size() / 2] * 1e3;
  const std::size_t p95 =
      std::min(seconds.size() - 1,
               static_cast<std::size_t>(
                   std::ceil(0.95 * static_cast<double>(seconds.size()))));
  stats.p95_ms = seconds[p95] * 1e3;
  return stats;
}

/// One benchmark arm: `reps` timed calls of `fn` under a warmed pool,
/// forced to the given ISA tier for the whole arm.
template <typename Fn>
RepStats time_kernel(nn::simd::IsaLevel isa, std::size_t warmup,
                     std::size_t reps, Fn&& fn) {
  const nn::simd::ScopedIsa forced(isa);
  nn::PooledScope pool(nn::PoolMode::kFresh);
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> seconds;
  seconds.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double start = now_seconds();
    fn();
    seconds.push_back(now_seconds() - start);
  }
  return summarize(std::move(seconds));
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

/// Scalar-vs-forced-ISA bitwise identity over an odd-shape sweep of all
/// four kernels, including a NaN/inf propagation shape (the relu max and
/// the no-zero-skip GEMM contract must not launder non-finite values).
bool identity_sweep(nn::simd::IsaLevel isa) {
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
  bool pass = true;
  for (const std::size_t m : dims) {
    for (const std::size_t k : dims) {
      for (const std::size_t n : dims) {
        const nn::Tensor a = random_tensor(m, k, 1000 + m * 37 + k);
        const nn::Tensor b = random_tensor(k, n, 2000 + k * 37 + n);
        const nn::Tensor at = random_tensor(k, m, 3000 + m + k);
        const nn::Tensor bt = random_tensor(n, k, 4000 + n + k);
        nn::Tensor scalar_nn, scalar_tn, scalar_nt, forced_nn, forced_tn,
            forced_nt;
        {
          const nn::simd::ScopedIsa forced(nn::simd::IsaLevel::kScalar);
          scalar_nn = nn::matmul(a, b);
          scalar_tn = nn::matmul_tn(at, b);
          scalar_nt = nn::matmul_nt(a, bt);
        }
        {
          const nn::simd::ScopedIsa forced_scope(isa);
          forced_nn = nn::matmul(a, b);
          forced_tn = nn::matmul_tn(at, b);
          forced_nt = nn::matmul_nt(a, bt);
        }
        if (!bits_equal(scalar_nn, forced_nn) ||
            !bits_equal(scalar_tn, forced_tn) ||
            !bits_equal(scalar_nt, forced_nt)) {
          std::printf("  identity FAIL at m=%zu k=%zu n=%zu\n", m, k, n);
          pass = false;
        }
      }
    }
  }
  // Fused add_row_relu over odd widths, with non-finite values mixed in.
  for (const std::size_t rows : dims) {
    for (const std::size_t cols : dims) {
      nn::Tensor x = random_tensor(rows, cols, 5000 + rows * 41 + cols);
      nn::Tensor bias = random_tensor(1, cols, 6000 + cols);
      x[0] = std::numeric_limits<float>::quiet_NaN();
      if (x.size() > 1) x[x.size() - 1] = -std::numeric_limits<float>::infinity();
      nn::Tensor x_scalar = x;
      nn::Tensor x_forced = x;
      {
        const nn::simd::ScopedIsa forced(nn::simd::IsaLevel::kScalar);
        x_scalar.add_row_relu_inplace(bias);
      }
      {
        const nn::simd::ScopedIsa forced_scope(isa);
        x_forced.add_row_relu_inplace(bias);
      }
      if (!bits_equal(x_scalar, x_forced)) {
        std::printf("  identity FAIL add_row_relu rows=%zu cols=%zu\n", rows,
                    cols);
        pass = false;
      }
    }
  }
  return pass;
}

predictors::MlpPredictor::State train_tiny_predictor(
    const space::SearchSpace& space, nn::simd::IsaLevel isa, bool smoke) {
  const nn::simd::ScopedIsa forced(isa);
  const hw::CostModel model(hw::DeviceProfile::jetson_xavier_maxn(), 8);
  util::Rng rng(99);
  predictors::MeasurementDataset data;
  const std::size_t samples = smoke ? 256 : 1024;
  for (std::size_t i = 0; i < samples; ++i) {
    space::Architecture arch = space.random_architecture(rng);
    data.targets.push_back(model.network_latency_ms(space, arch));
    data.architectures.push_back(std::move(arch));
  }
  predictors::MlpPredictor predictor(space.num_layers(), space.num_ops(),
                                     /*seed=*/11);
  predictors::MlpTrainConfig config;
  config.epochs = smoke ? 3 : 6;
  config.batch_size = 32;
  predictor.train(data, config);
  return predictor.export_state();
}

bool states_identical(const predictors::MlpPredictor::State& a,
                      const predictors::MlpPredictor::State& b) {
  if (a.tensors.size() != b.tensors.size()) return false;
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    if (a.tensors[i] != b.tensors[i]) return false;  // exact float equality
  }
  return a.target_mean == b.target_mean && a.target_std == b.target_std;
}

core::SearchResult run_tiny_search(const space::SearchSpace& space,
                                   const predictors::MlpPredictor& predictor,
                                   const nn::SyntheticTask& task,
                                   nn::simd::IsaLevel isa, bool smoke) {
  const nn::simd::ScopedIsa forced(isa);
  core::LightNasConfig config;
  config.seed = 5;
  config.epochs = smoke ? 3 : 6;
  config.warmup_epochs = 1;
  config.w_steps_per_epoch = smoke ? 6 : 12;
  config.alpha_steps_per_epoch = smoke ? 3 : 6;
  config.batch_size = smoke ? 16 : 32;
  config.target = 24.0;
  core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                        config);
  return engine.search();
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

struct KernelReport {
  std::string name;
  double flops = 0.0;         // per call (or bytes for bandwidth kernels)
  double bytes = 0.0;         // memory traffic per call
  RepStats scalar;
  RepStats simd;              // zeroed when no AVX2 tier
  double speedup = 0.0;       // scalar_median / simd_median
  double gflops_simd = 0.0;   // best tier achieved
  double gflops_scalar = 0.0;
  double intensity = 0.0;     // flops / bytes
  double roof_gflops = 0.0;   // min(peak, bw * intensity)
  double pct_roof = 0.0;
};

io::Json arm_json(const RepStats& stats, double flops) {
  io::Json arm = io::Json::object();
  arm.set("median_ms", io::Json(stats.median_ms));
  arm.set("p95_ms", io::Json(stats.p95_ms));
  if (stats.median_ms > 0.0 && flops > 0.0) {
    arm.set("gflops", io::Json(flops / (stats.median_ms * 1e-3) / 1e9));
  }
  return arm;
}

/// True when the CPU has FMA, so the peak probe fuses its multiply-adds
/// (no kernel tier does).
bool cpu_has_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  smoke = smoke || bench::fast_mode();

  bench::banner("micro_benchmarks",
                "SIMD microkernel roofline: per-kernel GFLOPs/bandwidth, "
                "scalar-vs-AVX2 speedup gate, bit-identity gate");

  const bool avx2 = nn::simd::avx2_compiled() &&
                    nn::simd::cpu_supports(nn::simd::IsaLevel::kAvx2);
  const bool fma = avx2 && cpu_has_fma();
  std::printf("isa: compiled_avx2=%d cpu_avx2=%d cpu_fma=%d -> default "
              "tier %s\n",
              nn::simd::avx2_compiled() ? 1 : 0, avx2 ? 1 : 0, fma ? 1 : 0,
              nn::simd::isa_name(nn::simd::detect_best()));

  bool all_pass = true;

  // --- machine roofline -------------------------------------------------
  const double probe_seconds = smoke ? 0.08 : 0.25;
  const double peak_gflops = avx2
                                 ? nn::simd::peak_gflops_probe(probe_seconds)
                                 : 0.0;
  const double bandwidth_gbs = nn::simd::stream_bandwidth_probe(probe_seconds);
  std::printf("roofline probes: peak %.1f GFLOP/s (one core%s), triad "
              "bandwidth %.1f GB/s\n",
              peak_gflops, avx2 ? (fma ? ", fma" : ", avx2") : ", n/a",
              bandwidth_gbs);

  // --- kernel arms ------------------------------------------------------
  const std::size_t dim = smoke ? 160 : 256;
  // Sized well past any LLC (256 MB vs ~100-400 MB server L3; adaptive
  // replacement policies retain slices of a barely-larger working set)
  // so the bandwidth-bound kernel is actually DRAM-resident — otherwise
  // "% roof" compares cache throughput against the DRAM triad roof and
  // reads above 100.
  const std::size_t relu_rows = 16384;
  const std::size_t relu_cols = 4096;
  const std::size_t warmup = 3;
  const std::size_t reps = smoke ? 30 : 40;

  const nn::Tensor a = random_tensor(dim, dim, 1);
  const nn::Tensor b = random_tensor(dim, dim, 2);
  const double d = static_cast<double>(dim);

  std::vector<KernelReport> reports;
  const auto bench_kernel = [&](const std::string& name, double flops,
                                double bytes, const auto& fn) {
    KernelReport report;
    report.name = name;
    report.flops = flops;
    report.bytes = bytes;
    report.scalar = time_kernel(nn::simd::IsaLevel::kScalar, warmup, reps, fn);
    report.gflops_scalar =
        flops / (report.scalar.median_ms * 1e-3) / 1e9;
    if (avx2) {
      report.simd = time_kernel(nn::simd::IsaLevel::kAvx2, warmup, reps, fn);
      report.speedup = report.scalar.median_ms / report.simd.median_ms;
      report.gflops_simd = flops / (report.simd.median_ms * 1e-3) / 1e9;
    }
    report.intensity = bytes > 0.0 ? flops / bytes : 0.0;
    if (peak_gflops > 0.0 && bandwidth_gbs > 0.0) {
      report.roof_gflops =
          std::min(peak_gflops, bandwidth_gbs * report.intensity);
      const double achieved = avx2 ? report.gflops_simd : report.gflops_scalar;
      report.pct_roof = 100.0 * achieved / report.roof_gflops;
    }
    reports.push_back(report);
  };

  // 2mnk flops; traffic approximated as the three operand matrices once
  // (cache-resident blocking makes this the compulsory lower bound, which
  // is the standard roofline convention).
  bench_kernel("matmul_nn", 2.0 * d * d * d, 3.0 * d * d * 4.0,
               [&] { (void)nn::matmul(a, b); });
  bench_kernel("matmul_tn", 2.0 * d * d * d, 3.0 * d * d * 4.0,
               [&] { (void)nn::matmul_tn(a, b); });
  bench_kernel("matmul_nt", 2.0 * d * d * d, 3.0 * d * d * 4.0,
               [&] { (void)nn::matmul_nt(a, b); });
  {
    // One nonzero in each group of 7 columns, the density of the latency
    // predictor's one-hot encodings; flops are the products formed.
    nn::Tensor onehot = nn::Tensor::zeros(dim, dim);
    util::Rng rng(5);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c + 7 <= dim; c += 7) {
        onehot.at(r, c + rng.uniform_index(7)) = 1.0f;
      }
    }
    const double nonzero = static_cast<double>(dim * (dim / 7));
    bench_kernel("matmul_zero_skip", 2.0 * nonzero * d, 3.0 * d * d * 4.0,
                 [&] { (void)nn::matmul_zero_skip(onehot, b); });
  }
  {
    // Adam over dim*dim parameters: ~13 double ops per element; reads w,
    // m, v, g and writes w, m, v.
    nn::VarPtr param = nn::make_leaf(random_tensor(dim, dim, 6));
    param->ensure_grad();
    param->grad = random_tensor(dim, dim, 7);
    nn::Adam adam({param}, 1e-3, 0.9, 0.999, 1e-8, 1e-4);
    bench_kernel("adam", 13.0 * d * d, 7.0 * d * d * 4.0,
                 [&] { adam.step(); });
  }
  {
    const double rr = static_cast<double>(relu_rows);
    const double rc = static_cast<double>(relu_cols);
    nn::Tensor x = random_tensor(relu_rows, relu_cols, 3);
    const nn::Tensor bias = random_tensor(1, relu_cols, 4);
    // add + max per element; read + write of x, bias stays cached.
    bench_kernel("add_row_relu", 2.0 * rr * rc, 2.0 * rr * rc * 4.0,
                 [&] { x.add_row_relu_inplace(bias); });
  }

  util::Table table({"kernel", "scalar ms (p50/p95)", "avx2 ms (p50/p95)",
                     "speedup", "GFLOP/s", "roof", "% roof"});
  for (const KernelReport& r : reports) {
    table.add_row(
        {r.name,
         util::fmt_double(r.scalar.median_ms, 3) + " / " +
             util::fmt_double(r.scalar.p95_ms, 3),
         avx2 ? util::fmt_double(r.simd.median_ms, 3) + " / " +
                    util::fmt_double(r.simd.p95_ms, 3)
              : "n/a",
         avx2 ? util::fmt_double(r.speedup, 2) + "x" : "n/a",
         util::fmt_double(avx2 ? r.gflops_simd : r.gflops_scalar, 2),
         r.roof_gflops > 0.0 ? util::fmt_double(r.roof_gflops, 1) : "n/a",
         r.pct_roof > 0.0 ? util::fmt_double(r.pct_roof, 1) : "n/a"});
  }
  std::printf("\nkernel roofline (%zux%zux%zu GEMMs, %zux%zu relu, %zu reps "
              "median):\n",
              dim, dim, dim, relu_rows, relu_cols, reps);
  table.print(std::cout);

  // --- gate: vectorized matmul >= 2x scalar -----------------------------
  bool speedup_pass = true;
  double matmul_speedup = 0.0;
  if (!avx2) {
    std::printf("\nspeedup gate: SKIPPED (no AVX2 tier on this host/build)\n");
  } else {
    matmul_speedup = reports[0].speedup;
    std::printf("\nmatmul speedup: %.2fx (required >= 2x)\n", matmul_speedup);
    if (matmul_speedup < 2.0) {
      std::printf("FAIL: vectorized matmul below 2x scalar\n");
      speedup_pass = false;
      all_pass = false;
    }
  }

  // --- gate: bit-identity -----------------------------------------------
  bool identity_pass = true;
  bool trajectory_pass = true;
  if (!avx2) {
    std::printf("identity gates: SKIPPED (no AVX2 tier on this host/build)\n");
  } else {
    identity_pass = identity_sweep(nn::simd::IsaLevel::kAvx2);
    std::printf("odd-shape scalar-vs-avx2 bit-identity: %s\n",
                identity_pass ? "ok" : "FAIL");

    const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
    const bool predictor_same = states_identical(
        train_tiny_predictor(space, nn::simd::IsaLevel::kScalar, smoke),
        train_tiny_predictor(space, nn::simd::IsaLevel::kAvx2, smoke));
    predictors::MlpPredictor predictor = predictors::MlpPredictor::from_state(
        train_tiny_predictor(space, nn::simd::IsaLevel::kScalar, smoke));
    nn::SyntheticTaskConfig task_config;
    task_config.train_size = smoke ? 384 : 1024;
    const nn::SyntheticTask task = nn::make_synthetic_task(task_config);
    const bool search_same = search_results_identical(
        run_tiny_search(space, predictor, task, nn::simd::IsaLevel::kScalar,
                        smoke),
        run_tiny_search(space, predictor, task, nn::simd::IsaLevel::kAvx2,
                        smoke));
    std::printf("predictor-training trajectory identity: %s\n",
                predictor_same ? "ok" : "FAIL");
    std::printf("search-step trajectory identity: %s\n",
                search_same ? "ok" : "FAIL");
    trajectory_pass = predictor_same && search_same;
    if (!identity_pass || !trajectory_pass) all_pass = false;
  }

  // --- machine-readable summary ----------------------------------------
  io::Json out = io::Json::object();
  out.set("bench", io::Json("micro_benchmarks"));
  out.set("smoke", io::Json(smoke));
  out.set("avx2_compiled", io::Json(nn::simd::avx2_compiled()));
  out.set("avx2_available", io::Json(avx2));
  out.set("fma_available", io::Json(fma));
  out.set("default_isa",
          io::Json(nn::simd::isa_name(nn::simd::detect_best())));
  out.set("peak_gflops", io::Json(peak_gflops));
  out.set("bandwidth_gbs", io::Json(bandwidth_gbs));
  io::Json kernels = io::Json::object();
  for (const KernelReport& r : reports) {
    io::Json k = io::Json::object();
    k.set("flops_per_call", io::Json(r.flops));
    k.set("bytes_per_call", io::Json(r.bytes));
    k.set("arithmetic_intensity", io::Json(r.intensity));
    k.set("scalar", arm_json(r.scalar, r.flops));
    if (avx2) {
      k.set("avx2", arm_json(r.simd, r.flops));
      k.set("speedup", io::Json(r.speedup));
    }
    if (r.roof_gflops > 0.0) {
      k.set("roof_gflops", io::Json(r.roof_gflops));
      k.set("pct_roof", io::Json(r.pct_roof));
    }
    kernels.set(r.name, std::move(k));
  }
  out.set("kernels", std::move(kernels));
  out.set("matmul_speedup", io::Json(matmul_speedup));
  out.set("speedup_pass", io::Json(speedup_pass));
  out.set("identity_pass", io::Json(identity_pass));
  out.set("trajectory_identical", io::Json(trajectory_pass));
  bench::update_bench_json("BENCH_micro.json", "roofline", out);
  std::printf("\nupdated BENCH_micro.json (section: roofline)\n");

  if (!all_pass) {
    std::printf("FAIL\n");
    return 1;
  }
  std::printf(avx2 ? "PASS\n" : "PASS (AVX2 gates skipped on this host)\n");
  return 0;
}
