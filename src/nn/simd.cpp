#include "nn/simd.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace lightnas::nn::simd {

namespace {

thread_local bool tl_has_override = false;
thread_local IsaLevel tl_override = IsaLevel::kScalar;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Startup resolution: explicit LIGHTNAS_ISA wins (with a stderr warning
/// and fallback when the host cannot honour it), else the best
/// bit-identity-preserving tier the host supports.
IsaLevel resolve_startup_isa() {
  const char* env = std::getenv("LIGHTNAS_ISA");
  if (env != nullptr && env[0] != '\0') {
    IsaLevel requested;
    if (!parse_isa(env, &requested)) {
      std::fprintf(stderr,
                   "lightnas: ignoring unknown LIGHTNAS_ISA='%s' "
                   "(expected scalar|avx2|avx2fma)\n",
                   env);
    } else if (requested != IsaLevel::kScalar &&
               (!avx2_compiled() || !cpu_supports(requested))) {
      std::fprintf(stderr,
                   "lightnas: LIGHTNAS_ISA=%s unavailable on this "
                   "host/build, using %s\n",
                   isa_name(requested), isa_name(detect_best()));
    } else {
      return requested;
    }
  }
  return detect_best();
}

std::atomic<IsaLevel>& global_slot() {
  // Magic static: the first kernel call (or CLI flag) resolves the
  // level exactly once, thread-safely.
  static std::atomic<IsaLevel> slot{resolve_startup_isa()};
  return slot;
}

}  // namespace

bool avx2_compiled() {
#ifdef LIGHTNAS_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool cpu_supports(IsaLevel level) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (level) {
    case IsaLevel::kScalar:
      return true;
    case IsaLevel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case IsaLevel::kAvx2Fma:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
  }
  return false;
#else
  return level == IsaLevel::kScalar;
#endif
}

IsaLevel detect_best() {
  if (avx2_compiled() && cpu_supports(IsaLevel::kAvx2)) {
    return IsaLevel::kAvx2;  // never auto-select FMA: it changes results
  }
  return IsaLevel::kScalar;
}

IsaLevel global_isa() {
  return global_slot().load(std::memory_order_relaxed);
}

void set_global_isa(IsaLevel level) {
  if (level != IsaLevel::kScalar) {
    if (!avx2_compiled()) {
      throw std::runtime_error(
          std::string("--isa ") + isa_name(level) +
          ": SIMD kernels were not compiled in (LIGHTNAS_SIMD=OFF or "
          "unsupported compiler)");
    }
    if (!cpu_supports(level)) {
      throw std::runtime_error(std::string("--isa ") + isa_name(level) +
                               ": this CPU does not support it");
    }
  }
  global_slot().store(level, std::memory_order_relaxed);
}

IsaLevel active_isa() {
  return tl_has_override ? tl_override : global_isa();
}

bool parse_isa(const std::string& text, IsaLevel* out) {
  if (text == "scalar") {
    *out = IsaLevel::kScalar;
  } else if (text == "avx2") {
    *out = IsaLevel::kAvx2;
  } else if (text == "avx2fma") {
    *out = IsaLevel::kAvx2Fma;
  } else {
    return false;
  }
  return true;
}

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx2Fma:
      return "avx2fma";
  }
  return "?";
}

ScopedIsa::ScopedIsa(IsaLevel level)
    : previous_(tl_override), had_previous_(tl_has_override) {
  tl_override = level;
  tl_has_override = true;
}

ScopedIsa::~ScopedIsa() {
  tl_override = previous_;
  tl_has_override = had_previous_;
}

#ifndef LIGHTNAS_HAVE_AVX2

// LIGHTNAS_SIMD=OFF build: the dispatch layer never routes here (see
// active_isa() / detect_best()), so these exist only to satisfy the
// linker — and to fail loudly if a future caller bypasses dispatch.
namespace {
[[noreturn]] void no_avx2() {
  std::fprintf(stderr, "lightnas: AVX2 kernel called in a scalar-only "
                       "build\n");
  std::abort();
}
}  // namespace

void matmul_rows_avx2(const float*, const float*, float*, std::size_t,
                      std::size_t, std::size_t, std::size_t, std::size_t,
                      bool) {
  no_avx2();
}
void matmul_tn_rows_avx2(const float*, const float*, float*, std::size_t,
                         std::size_t, std::size_t, std::size_t,
                         std::size_t, std::size_t, bool) {
  no_avx2();
}
void matmul_nt_rows_avx2(const float*, const float*, float*, std::size_t,
                         std::size_t, std::size_t, std::size_t, bool) {
  no_avx2();
}
void matmul_zero_skip_rows_avx2(const float*, std::size_t, std::size_t,
                                const float*, float*, std::size_t,
                                std::size_t, std::size_t, std::size_t) {
  no_avx2();
}
std::size_t adam_update_avx2(float*, float*, float*, const float*,
                             std::size_t, const AdamStep&) {
  no_avx2();
}
void add_row_relu_rows_avx2(float*, const float*, std::size_t, std::size_t,
                            std::size_t) {
  no_avx2();
}
double peak_gflops_probe(double) { return 0.0; }

#endif  // !LIGHTNAS_HAVE_AVX2

double stream_bandwidth_probe(double seconds) {
  // Triad over 3 x 128 MiB — past even a large server L3 (modern Xeon/
  // EPYC parts reach ~100-400 MB), so this measures DRAM, not cache.
  // The scalar loop auto-vectorizes; bandwidth is insensitive to the
  // ISA tier anyway.
  constexpr std::size_t kCount = std::size_t{32} << 20;
  std::vector<float> a(kCount, 1.0f), b(kCount, 2.0f), c(kCount, 3.0f);
  const float s = 0.5f;
  const double deadline = now_seconds() + seconds;
  double best_gbs = 0.0;
  do {
    // Triad pass: 2 streams read, 1 written — and the write misses, so
    // the hardware also reads a[] in (write-allocate): 4 DRAM streams.
    {
      const double start = now_seconds();
      for (std::size_t i = 0; i < kCount; ++i) a[i] = b[i] + s * c[i];
      const double dt = now_seconds() - start;
      const double bytes = static_cast<double>(kCount) * 4.0 * sizeof(float);
      if (dt > 0.0) best_gbs = std::max(best_gbs, bytes / dt / 1e9);
    }
    // In-place scale pass: read + writeback of one stream (no separate
    // write-allocate — the read brings the line in). A single address
    // stream prefetches better than the triad's three, so this usually
    // sustains a higher rate; the probe reports the best of both because
    // the kernels it calibrates (fused in-place bias+relu) are exactly
    // this access pattern.
    {
      const double start = now_seconds();
      for (std::size_t i = 0; i < kCount; ++i) a[i] = s * a[i] + 1.0f;
      const double dt = now_seconds() - start;
      const double bytes = static_cast<double>(kCount) * 2.0 * sizeof(float);
      if (dt > 0.0) best_gbs = std::max(best_gbs, bytes / dt / 1e9);
    }
  } while (now_seconds() < deadline);
  // Defeat dead-store elimination.
  volatile float sink = a[kCount / 2];
  (void)sink;
  return best_gbs;
}

}  // namespace lightnas::nn::simd
