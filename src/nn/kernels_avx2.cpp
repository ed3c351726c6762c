// AVX2 microkernels for the dense hot paths. This translation unit is
// compiled with -mavx2 -mfma -ffp-contract=off (see src/nn/CMakeLists)
// and only ever entered through the ISA dispatch in tensor.cpp, which
// has already checked CPUID.
//
// Bit-identity contract (see simd.hpp): every output element is produced by the exact IEEE op sequence of the scalar
// kernels — a single ascending-k chain of separately rounded mul then
// add, starting from 0.0f on the first k-tile. Vectorization is across
// output columns (8 lanes = 8 independent chains) and row micro-tiling
// is across output rows (independent chains again), so lane/row
// grouping never reorders any one element's chain. -ffp-contract=off
// keeps the compiler from fusing the separate mul/add intrinsics into
// FMAs behind our back. (Only the roofline probe issues FMAs.)
//
// Tail handling is explicit everywhere: columns are processed in tiles
// of 16 and 8 with a masked epilogue for n % 8 (maskload/maskstore
// touch only in-bounds lanes), and row micro-tiles of 4 fall back to
// single rows for the remainder — so odd shapes take the same code
// path, just with masks, rather than a separate scalar loop.

#ifdef LIGHTNAS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "nn/simd.hpp"

namespace lightnas::nn::simd {

namespace {

/// Lane masks for a column tail of `rem` (1..7) active lanes:
/// loadu from (kTailMask + 8 - rem) yields rem set lanes then zeros.
alignas(32) constexpr int kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i tail_mask(std::size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 8 - rem));
}

/// acc <- acc + av * bv, the product rounded before the add.
inline __m256 accumulate(__m256 acc, __m256 av, __m256 bv) {
  return _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
}

/// One k-tile of C(i, j..j+15) for up to 4 rows, accumulators held in
/// registers across the tile. `AStride` abstracts the A layout:
/// NN reads a[i * k + p], TN reads a[p * m + i].
struct ANormal {
  const float* a;
  std::size_t k;
  inline float at(std::size_t i, std::size_t p) const { return a[i * k + p]; }
};
struct ATransposed {
  const float* a;
  std::size_t m;
  inline float at(std::size_t i, std::size_t p) const { return a[p * m + i]; }
};

/// Full 16-column tile over rows [i, i+ir), ir in 1..4.
template <typename AView>
inline void tile16(const AView& av, const float* b, float* c, std::size_t n,
                   std::size_t i, std::size_t ir, std::size_t j,
                   std::size_t pb, std::size_t pe) {
  __m256 acc[4][2];
  for (std::size_t r = 0; r < ir; ++r) {
    if (pb == 0) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    } else {
      acc[r][0] = _mm256_loadu_ps(c + (i + r) * n + j);
      acc[r][1] = _mm256_loadu_ps(c + (i + r) * n + j + 8);
    }
  }
  for (std::size_t p = pb; p < pe; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
    const __m256 b1 = _mm256_loadu_ps(b + p * n + j + 8);
    for (std::size_t r = 0; r < ir; ++r) {
      const __m256 as = _mm256_set1_ps(av.at(i + r, p));
      acc[r][0] = accumulate(acc[r][0], as, b0);
      acc[r][1] = accumulate(acc[r][1], as, b1);
    }
  }
  for (std::size_t r = 0; r < ir; ++r) {
    _mm256_storeu_ps(c + (i + r) * n + j, acc[r][0]);
    _mm256_storeu_ps(c + (i + r) * n + j + 8, acc[r][1]);
  }
}

/// One 8-column tile (full vector) over rows [i, i+ir).
template <typename AView>
inline void tile8(const AView& av, const float* b, float* c, std::size_t n,
                  std::size_t i, std::size_t ir, std::size_t j,
                  std::size_t pb, std::size_t pe) {
  __m256 acc[4];
  for (std::size_t r = 0; r < ir; ++r) {
    acc[r] = pb == 0 ? _mm256_setzero_ps()
                     : _mm256_loadu_ps(c + (i + r) * n + j);
  }
  for (std::size_t p = pb; p < pe; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
    for (std::size_t r = 0; r < ir; ++r) {
      const __m256 as = _mm256_set1_ps(av.at(i + r, p));
      acc[r] = accumulate(acc[r], as, b0);
    }
  }
  for (std::size_t r = 0; r < ir; ++r) {
    _mm256_storeu_ps(c + (i + r) * n + j, acc[r]);
  }
}

/// Masked column tail (rem = n % 8 active lanes) over rows [i, i+ir).
template <typename AView>
inline void tile_tail(const AView& av, const float* b, float* c,
                      std::size_t n, std::size_t i, std::size_t ir,
                      std::size_t j, std::size_t rem, std::size_t pb,
                      std::size_t pe) {
  const __m256i mask = tail_mask(rem);
  __m256 acc[4];
  for (std::size_t r = 0; r < ir; ++r) {
    acc[r] = pb == 0 ? _mm256_setzero_ps()
                     : _mm256_maskload_ps(c + (i + r) * n + j, mask);
  }
  for (std::size_t p = pb; p < pe; ++p) {
    const __m256 b0 = _mm256_maskload_ps(b + p * n + j, mask);
    for (std::size_t r = 0; r < ir; ++r) {
      const __m256 as = _mm256_set1_ps(av.at(i + r, p));
      acc[r] = accumulate(acc[r], as, b0);
    }
  }
  for (std::size_t r = 0; r < ir; ++r) {
    _mm256_maskstore_ps(c + (i + r) * n + j, mask, acc[r]);
  }
}

/// Shared driver: rows [r0, r1) of C = A(view) * B with k-tiling `kc`.
template <typename AView>
void gemm_rows(const AView& av, const float* b, float* c, std::size_t k,
               std::size_t n, std::size_t r0, std::size_t r1,
               std::size_t kc) {
  const std::size_t rem = n % 8;
  const std::size_t n16 = n - (n % 16);
  const std::size_t n8 = n - rem;
  for (std::size_t pb = 0; pb < k; pb += kc) {
    const std::size_t pe = std::min(pb + kc, k);
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      std::size_t j = 0;
      for (; j < n16; j += 16) tile16(av, b, c, n, i, 4, j, pb, pe);
      for (; j < n8; j += 8) tile8(av, b, c, n, i, 4, j, pb, pe);
      if (rem != 0) tile_tail(av, b, c, n, i, 4, j, rem, pb, pe);
    }
    for (; i < r1; ++i) {
      std::size_t j = 0;
      for (; j < n16; j += 16) tile16(av, b, c, n, i, 1, j, pb, pe);
      for (; j < n8; j += 8) tile8(av, b, c, n, i, 1, j, pb, pe);
      if (rem != 0) tile_tail(av, b, c, n, i, 1, j, rem, pb, pe);
    }
  }
}

}  // namespace

void matmul_rows_avx2(const float* a, const float* b, float* c,
                      std::size_t k, std::size_t n, std::size_t r0,
                      std::size_t r1, std::size_t kc) {
  gemm_rows(ANormal{a, k}, b, c, k, n, r0, r1, kc);
}

void matmul_tn_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t m, std::size_t n,
                         std::size_t i0, std::size_t i1, std::size_t kc) {
  gemm_rows(ATransposed{a, m}, b, c, k, n, i0, i1, kc);
}

namespace {

/// NT layout: C(i, j) = dot(A row i, B row j), B is (n x k) row-major.
/// Vectorizing the dot along k would split one element's chain across
/// lanes (a horizontal reduction — different rounding order), so like
/// the NN/TN kernels this vectorizes across output COLUMNS: lane l owns
/// the full ascending-p chain of C(i, j + l). The B rows of one panel of
/// kW columns are first packed p-major into a (k-tile x kW) buffer, so
/// the inner loop reads B as aligned vectors, exactly like the NN
/// kernel's B row: one pack per panel and k-tile serves every row of
/// [r0, r1). Between k-tiles the accumulators round-trip through C,
/// which changes no chain.
constexpr std::size_t kNtPanelK = 256;

/// Rows [i, i+ir) of one packed panel's k-tile [pb, pe), ir in 1..4.
template <std::size_t kVecs>
inline void nt_tile(const float* a, const float* panel, float* c,
                    std::size_t k, std::size_t n, std::size_t i,
                    std::size_t ir, std::size_t j, std::size_t pb,
                    std::size_t pe) {
  constexpr std::size_t kW = 8 * kVecs;
  __m256 acc[4][kVecs];
  for (std::size_t r = 0; r < ir; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[r][v] = pb == 0 ? _mm256_setzero_ps()
                          : _mm256_loadu_ps(c + (i + r) * n + j + 8 * v);
    }
  }
  for (std::size_t p = pb; p < pe; ++p) {
    __m256 bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = _mm256_load_ps(panel + (p - pb) * kW + 8 * v);
    }
    for (std::size_t r = 0; r < ir; ++r) {
      const __m256 as = _mm256_set1_ps(a[(i + r) * k + p]);
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = accumulate(acc[r][v], as, bv[v]);
      }
    }
  }
  for (std::size_t r = 0; r < ir; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      _mm256_storeu_ps(c + (i + r) * n + j + 8 * v, acc[r][v]);
    }
  }
}

/// Columns [j, j + 8 * kVecs) of rows [r0, r1), panel by k-tile.
template <std::size_t kVecs>
void nt_panel(const float* a, const float* b, float* c, std::size_t k,
              std::size_t n, std::size_t r0, std::size_t r1, std::size_t j,
              float* panel) {
  constexpr std::size_t kW = 8 * kVecs;
  for (std::size_t pb = 0; pb < k; pb += kNtPanelK) {
    const std::size_t pe = std::min(pb + kNtPanelK, k);
    for (std::size_t l = 0; l < kW; ++l) {
      const float* brow = b + (j + l) * k;
      for (std::size_t p = pb; p < pe; ++p) panel[(p - pb) * kW + l] = brow[p];
    }
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      nt_tile<kVecs>(a, panel, c, k, n, i, 4, j, pb, pe);
    }
    for (; i < r1; ++i) {
      nt_tile<kVecs>(a, panel, c, k, n, i, 1, j, pb, pe);
    }
  }
}

}  // namespace

void matmul_nt_rows_avx2(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t n, std::size_t r0,
                         std::size_t r1) {
  if (k == 0) {  // no k-tiles: every dot is its initial 0.0f
    std::fill(c + r0 * n, c + r1 * n, 0.0f);
    return;
  }
  alignas(32) float panel[kNtPanelK * 16];
  const std::size_t n8 = n - n % 8;
  const std::size_t n16 = n - n % 16;
  std::size_t j = 0;
  for (; j < n16; j += 16) nt_panel<2>(a, b, c, k, n, r0, r1, j, panel);
  for (; j < n8; j += 8) nt_panel<1>(a, b, c, k, n, r0, r1, j, panel);
  // Column tail: plain dots (each its own ascending-p chain).
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    for (std::size_t col = n8; col < n; ++col) {
      const float* brow = b + col * k;
      float dot = 0.0f;
      for (std::size_t p = 0; p < k; ++p) dot += arow[p] * brow[p];
      c[i * n + col] = dot;
    }
  }
}

namespace {

/// 8 * kVecs columns of one C row over the gathered nonzeros of a k-tile.
/// Eight independent chains (kVecs = 8) keep the adds' latency hidden.
template <std::size_t kVecs>
inline void skip_tile(float* crow, const float* b, std::size_t n,
                      const std::size_t* idx, const float* val,
                      std::size_t count, bool first) {
  __m256 acc[kVecs];
  for (std::size_t t = 0; t < kVecs; ++t) {
    acc[t] = first ? _mm256_setzero_ps() : _mm256_loadu_ps(crow + 8 * t);
  }
  for (std::size_t q = 0; q < count; ++q) {
    const __m256 as = _mm256_set1_ps(val[q]);
    const float* brow = b + idx[q] * n;
    for (std::size_t t = 0; t < kVecs; ++t) {
      acc[t] = accumulate(acc[t], as, _mm256_loadu_ps(brow + 8 * t));
    }
  }
  for (std::size_t t = 0; t < kVecs; ++t) {
    _mm256_storeu_ps(crow + 8 * t, acc[t]);
  }
}

}  // namespace

void matmul_zero_skip_rows_avx2(const float* a, std::size_t row_stride,
                                std::size_t col_stride, const float* b,
                                float* c, std::size_t k, std::size_t n,
                                std::size_t r0, std::size_t r1) {
  // Per row: gather the nonzero A entries of a k-tile (ascending p), then
  // run each column tile's chains over just those B rows.
  constexpr std::size_t kChunk = 256;
  std::size_t idx[kChunk];
  float val[kChunk];
  const std::size_t rem = n % 8;
  const std::size_t n8 = n - rem;
  const std::size_t n64 = n - n % 64;
  const __m256i mask = rem != 0 ? tail_mask(rem) : _mm256_setzero_si256();
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * row_stride;
    float* crow = c + i * n;
    for (std::size_t pb = 0; pb < k; pb += kChunk) {
      const std::size_t pe = std::min(pb + kChunk, k);
      // Branch-free gather: a one-hot row's nonzeros sit at positions a
      // branch predictor cannot learn.
      std::size_t count = 0;
      for (std::size_t p = pb; p < pe; ++p) {
        const float av = arow[p * col_stride];
        idx[count] = p;
        val[count] = av;
        count += av != 0.0f;
      }
      const bool first = pb == 0;
      if (!first && count == 0) continue;
      std::size_t j = 0;
      for (; j < n64; j += 64) {
        skip_tile<8>(crow + j, b + j, n, idx, val, count, first);
      }
      for (; j < n8; j += 8) {
        skip_tile<1>(crow + j, b + j, n, idx, val, count, first);
      }
      if (rem != 0) {
        __m256 acc = first ? _mm256_setzero_ps()
                           : _mm256_maskload_ps(crow + j, mask);
        for (std::size_t q = 0; q < count; ++q) {
          acc = accumulate(acc, _mm256_set1_ps(val[q]),
                                  _mm256_maskload_ps(b + idx[q] * n + j,
                                                     mask));
        }
        _mm256_maskstore_ps(crow + j, mask, acc);
      }
    }
  }
}

std::size_t adam_update_avx2(float* w, float* m, float* v, const float* g,
                             std::size_t n, const AdamStep& step) {
  // The scalar step, four lanes at a time, op for op:
  //   g' = g + wd * w                       (only when wd != 0)
  //   m  = float(b1 * m + (1 - b1) * g')
  //   v  = float(b2 * v + ((1 - b2) * g') * g')
  //   w -= float((lr * (m / bc1)) / (sqrt(v / bc2) + eps))
  // float <-> double conversions are exact widening / round-to-nearest
  // narrowing, the same as the scalar casts.
  const __m256d b1 = _mm256_set1_pd(step.beta1);
  const __m256d b1c = _mm256_set1_pd(1.0 - step.beta1);
  const __m256d b2 = _mm256_set1_pd(step.beta2);
  const __m256d b2c = _mm256_set1_pd(1.0 - step.beta2);
  const __m256d bc1 = _mm256_set1_pd(step.bc1);
  const __m256d bc2 = _mm256_set1_pd(step.bc2);
  const __m256d lr = _mm256_set1_pd(step.lr);
  const __m256d eps = _mm256_set1_pd(step.eps);
  const __m256d wd = _mm256_set1_pd(step.weight_decay);
  const bool use_wd = step.weight_decay != 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 wf = _mm_loadu_ps(w + j);
    __m256d gd = _mm256_cvtps_pd(_mm_loadu_ps(g + j));
    if (use_wd) {
      gd = _mm256_add_pd(gd, _mm256_mul_pd(wd, _mm256_cvtps_pd(wf)));
    }
    const __m128 mf = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(b1, _mm256_cvtps_pd(_mm_loadu_ps(m + j))),
                      _mm256_mul_pd(b1c, gd)));
    const __m128 vf = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_cvtps_pd(_mm_loadu_ps(v + j))),
                      _mm256_mul_pd(_mm256_mul_pd(b2c, gd), gd)));
    _mm_storeu_ps(m + j, mf);
    _mm_storeu_ps(v + j, vf);
    const __m256d mhat = _mm256_div_pd(_mm256_cvtps_pd(mf), bc1);
    const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(vf), bc2);
    const __m256d delta =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm_storeu_ps(w + j, _mm_sub_ps(wf, _mm256_cvtpd_ps(delta)));
  }
  return j;
}

void add_row_relu_rows_avx2(float* data, const float* bias,
                            std::size_t cols, std::size_t r0,
                            std::size_t r1) {
  // Operand order matters: vmaxps returns the SECOND operand when either
  // is NaN, and the scalar tier's std::max(v, 0.0f) = (v < 0) ? 0 : v
  // keeps a NaN v. max_ps(zero, v) matches that exactly (including
  // max(+0, -0) == -0); max_ps(v, zero) would silently launder NaN
  // activations into zeros — the same poisoned-value masking PR 3
  // scrubbed out of the GEMM kernels.
  const __m256 zero = _mm256_setzero_ps();
  const std::size_t rem = cols % 8;
  const std::size_t c8 = cols - rem;
  const __m256i mask = rem != 0 ? tail_mask(rem) : _mm256_setzero_si256();
  for (std::size_t r = r0; r < r1; ++r) {
    float* out = data + r * cols;
    std::size_t c = 0;
    for (; c < c8; c += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(out + c),
                                     _mm256_loadu_ps(bias + c));
      _mm256_storeu_ps(out + c, _mm256_max_ps(zero, v));
    }
    if (rem != 0) {
      const __m256 v = _mm256_add_ps(_mm256_maskload_ps(out + c, mask),
                                     _mm256_maskload_ps(bias + c, mask));
      _mm256_maskstore_ps(out + c, mask, _mm256_max_ps(zero, v));
    }
  }
}

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double peak_gflops_probe(double seconds) {
  if (!cpu_supports(IsaLevel::kAvx2)) return 0.0;
  // The probe measures the machine, so it fuses when the CPU can; no
  // kernel tier does.
  const bool fma = __builtin_cpu_supports("fma") != 0;
  // 8 independent accumulator chains hide the FMA/add latency; per
  // iteration each chain retires 8 lanes x (2 flops fused or 2 separate
  // ops) = 16 flops.
  __m256 acc[8];
  for (auto& v : acc) v = _mm256_set1_ps(1.0f);
  const __m256 x = _mm256_set1_ps(0.999999f);
  const __m256 y = _mm256_set1_ps(1e-7f);
  double best = 0.0;
  const double deadline = now_seconds() + seconds;
  do {
    constexpr std::size_t kIters = 1u << 20;
    const double start = now_seconds();
    if (fma) {
      for (std::size_t it = 0; it < kIters; ++it) {
        for (auto& v : acc) v = _mm256_fmadd_ps(v, x, y);
      }
    } else {
      for (std::size_t it = 0; it < kIters; ++it) {
        for (auto& v : acc) v = _mm256_add_ps(_mm256_mul_ps(v, x), y);
      }
    }
    const double dt = now_seconds() - start;
    const double flops = static_cast<double>(kIters) * 8.0 * 8.0 * 2.0;
    if (dt > 0.0) best = std::max(best, flops / dt / 1e9);
  } while (now_seconds() < deadline);
  // Keep the accumulators alive past the optimizer.
  float sink[8];
  _mm256_storeu_ps(sink, _mm256_add_ps(acc[0], acc[7]));
  volatile float keep = sink[0];
  (void)keep;
  return best;
}

}  // namespace lightnas::nn::simd

#endif  // LIGHTNAS_HAVE_AVX2
