#pragma once

#include <cstddef>
#include <string>

namespace lightnas::nn::simd {

/// Instruction-set tier of the dense microkernels (see kernels_avx2.cpp
/// and the scalar kernels in tensor.cpp).
///
/// Accumulation-order contract: kScalar and kAvx2 produce bit-identical
/// results. Both accumulate every output element along a single
/// ascending-k chain with separately rounded multiply and add (the AVX2
/// tier vectorizes across output *columns*, which changes nothing about
/// any one element's chain, and is compiled with -ffp-contract=off so
/// the compiler cannot fuse the chain behind our back). kAvx2Fma swaps
/// the chain's mul+add pairs for fused multiply-adds — one rounding per
/// product instead of two. That is faster and *more* accurate, but not
/// bit-identical to scalar, so it is never selected by default: search
/// trajectories and checkpoints stay exactly reproducible across hosts
/// unless the user opts in with --isa avx2fma / LIGHTNAS_ISA=avx2fma.
enum class IsaLevel {
  kScalar,   ///< portable C++ kernels; the identity reference
  kAvx2,     ///< 8-wide AVX2, separate mul+add (bit-identical to scalar)
  kAvx2Fma,  ///< 8-wide AVX2 with FMA (opt-in; not bit-identical)
};

/// True when the AVX2 kernels were compiled in (LIGHTNAS_SIMD=AVX2 and
/// the compiler supports -mavx2). Runtime selection additionally
/// requires CPUID support — see detect_best().
bool avx2_compiled();

/// True when the running CPU reports AVX2 (and FMA for kAvx2Fma).
bool cpu_supports(IsaLevel level);

/// Best level that is both compiled in and supported by this CPU.
/// Never returns kAvx2Fma: FMA changes results, so it is opt-in only.
IsaLevel detect_best();

/// Process-wide selected level. Resolved once on first use:
/// LIGHTNAS_ISA=scalar|avx2|avx2fma in the environment wins (falling
/// back to detect_best() with a warning if unsupported), else
/// detect_best(). Thread-safe reads.
IsaLevel global_isa();

/// Install a process-wide level (the CLI's --isa flag). Call during
/// single-threaded startup. Throws std::runtime_error if the level is
/// not compiled in / not supported by this CPU.
void set_global_isa(IsaLevel level);

/// The level the kernels dispatch on: the innermost ScopedIsa override
/// on this thread when one is active, else global_isa(). GEMM entry
/// points read this once per call.
IsaLevel active_isa();

/// Parse "scalar" / "avx2" / "avx2fma"; returns false on anything else.
bool parse_isa(const std::string& text, IsaLevel* out);

const char* isa_name(IsaLevel level);

/// RAII thread-local override of active_isa() — how the tests and the
/// roofline bench force a specific tier regardless of host/env. Nests;
/// destruction restores the previous override. Unlike set_global_isa()
/// this does not validate hardware support: forcing an unsupported
/// tier is the caller's own SIGILL to keep.
class ScopedIsa {
 public:
  explicit ScopedIsa(IsaLevel level);
  ~ScopedIsa();

  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  IsaLevel previous_;
  bool had_previous_;
};

// --- AVX2 kernel entry points (defined in kernels_avx2.cpp) -----------
//
// Same row-range semantics as the scalar kernels in tensor.cpp: each
// writes rows [r0, r1) of C and is safe to run concurrently on disjoint
// row ranges. All pointers are to dense row-major storage. When
// avx2_compiled() is false these abort — the dispatch layer never calls
// them in that configuration.

/// C(r0..r1, :) = A(r0..r1, :) * B, A (m x k), B (k x n), kc = k-tile.
void matmul_rows_avx2(const float* a, const float* b, float* c,
                      std::size_t k, std::size_t n, std::size_t r0,
                      std::size_t r1, std::size_t kc, bool fma);

/// C(i0..i1, :) = A^T(i0..i1, :) * B, A (k x m), B (k x n).
void matmul_tn_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t m, std::size_t n,
                         std::size_t i0, std::size_t i1, std::size_t kc,
                         bool fma);

/// C(r0..r1, :) = A(r0..r1, :) * B^T, A (m x k), B (n x k). B is packed
/// into column panels internally (its k-tile is fixed), so there is no
/// kc parameter.
void matmul_nt_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t n, std::size_t r0,
                         std::size_t r1, bool fma);

/// C(r0..r1, :) = A * B with A's zero entries skipped; A(i, p) at
/// a[i * row_stride + p * col_stride]. The AVX2 (non-FMA) twin of the
/// scalar zero-skip kernel in tensor.cpp, bit-identical to it.
void matmul_zero_skip_rows_avx2(const float* a, std::size_t row_stride,
                                std::size_t col_stride, const float* b,
                                float* c, std::size_t k, std::size_t n,
                                std::size_t r0, std::size_t r1);

/// Coefficients of one Adam step (see nn::Adam::step): bc1 and bc2 are
/// the bias corrections 1 - beta^t.
struct AdamStep {
  double beta1, beta2, lr, eps, weight_decay, bc1, bc2;
};

/// Adam update of elements [0, n - n % 4) of (w, m, v) from gradient g,
/// four doubles per vector; returns the count it updated. Every element
/// runs the scalar step's double-precision op sequence (mul, add, div
/// and sqrt are correctly rounded in both), so it is bit-identical to
/// the scalar loop in optim.cpp on every tier.
std::size_t adam_update_avx2(float* w, float* m, float* v, const float* g,
                             std::size_t n, const AdamStep& step);

/// Fused v = max(v + bias[c], 0) over rows [r0, r1) of data (rows x cols).
void add_row_relu_rows_avx2(float* data, const float* bias,
                            std::size_t cols, std::size_t r0,
                            std::size_t r1);

// --- roofline probes (bench/micro_benchmarks) --------------------------

/// Peak sustained single-precision GFLOP/s of one core: a register-tiled
/// FMA (or mul+add when FMA is unavailable) throughput loop. Returns 0
/// when AVX2 is not compiled in / supported — the bench then reports the
/// scalar probe instead.
double peak_gflops_probe(double seconds);

/// Sustained read+write memory bandwidth in GB/s (STREAM-triad-style
/// a[i] = b[i] + s * c[i] over a buffer far larger than L2).
double stream_bandwidth_probe(double seconds);

}  // namespace lightnas::nn::simd
