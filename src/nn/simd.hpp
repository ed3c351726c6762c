#pragma once

#include <cstddef>

namespace lightnas::nn::simd {

/// Instruction-set tier of the dense microkernels (see kernels_avx2.cpp
/// and the scalar kernels in tensor.cpp).
///
/// Accumulation-order contract: kScalar and kAvx2 produce bit-identical
/// results. Both accumulate every output element along a single
/// ascending-k chain with separately rounded multiply and add (the AVX2
/// tier vectorizes across output *columns*, which changes nothing about
/// any one element's chain, and is compiled with -ffp-contract=off so
/// the compiler cannot fuse the chain behind our back). So the host's
/// tier is never a choice that shows in a result: search trajectories
/// and checkpoints reproduce exactly across hosts with and without AVX2.
enum class IsaLevel {
  kScalar,  ///< portable C++ kernels; the identity reference
  kAvx2,    ///< 8-wide AVX2, separate mul+add (bit-identical to scalar)
};

/// True when the AVX2 kernels were compiled in (LIGHTNAS_SIMD=AVX2 and
/// the compiler supports -mavx2). Runtime selection additionally
/// requires CPUID support — see detect_best().
bool avx2_compiled();

/// True when the running CPU reports the level's instructions.
bool cpu_supports(IsaLevel level);

/// Best level that is both compiled in and supported by this CPU.
IsaLevel detect_best();

/// Process-wide level: detect_best(), resolved once on first use.
/// Thread-safe reads.
IsaLevel global_isa();

/// The level the kernels dispatch on: the innermost ScopedIsa override
/// on this thread when one is active, else global_isa(). GEMM entry
/// points read this once per call.
IsaLevel active_isa();

const char* isa_name(IsaLevel level);

/// RAII thread-local override of active_isa() — how the tests and the
/// roofline bench run the scalar reference next to the host's tier.
/// Nests; destruction restores the previous override. It does not
/// validate hardware support: forcing an unsupported tier is the
/// caller's own SIGILL to keep.
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
                      std::size_t r1, std::size_t kc);

/// C(i0..i1, :) = A^T(i0..i1, :) * B, A (k x m), B (k x n).
void matmul_tn_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t m, std::size_t n,
                         std::size_t i0, std::size_t i1, std::size_t kc);

/// C(r0..r1, :) = A(r0..r1, :) * B^T, A (m x k), B (n x k). B is packed
/// into column panels internally (its k-tile is fixed), so there is no
/// kc parameter.
void matmul_nt_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t n, std::size_t r0,
                         std::size_t r1);

/// C(r0..r1, :) = A * B with A's zero entries skipped; A(i, p) at
/// a[i * row_stride + p * col_stride]. The AVX2 twin of the scalar
/// zero-skip kernel in tensor.cpp, bit-identical to it.
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
/// FMA (or mul+add when the CPU lacks FMA) throughput loop: it measures
/// the machine, not a kernel tier. Returns 0 when AVX2 is not compiled
/// in / supported — the bench then reports the scalar probe instead.
double peak_gflops_probe(double seconds);

/// Sustained read+write memory bandwidth in GB/s (STREAM-triad-style
/// a[i] = b[i] + s * c[i] over a buffer far larger than L2).
double stream_bandwidth_probe(double seconds);

}  // namespace lightnas::nn::simd
