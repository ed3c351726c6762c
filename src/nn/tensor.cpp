#include "nn/tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nn/pool.hpp"
#include "nn/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols) {
  const std::size_t count = rows * cols;
  if (TensorPool* pool = TensorPool::active()) {
    data_ = pool->acquire(count);
    std::fill(data_.begin(), data_.end(), fill);
  } else {
    data_.assign(count, fill);
  }
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  if (TensorPool* pool = TensorPool::active()) {
    data_ = pool->acquire(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  } else {
    data_ = other.data_;
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  TensorPool* pool = TensorPool::active();
  if (pool == nullptr || data_.capacity() >= other.data_.size()) {
    // Fits in place (or pooling is off): plain vector copy-assign, which
    // reuses the existing buffer when the capacity suffices.
    data_ = other.data_;
  } else {
    release_buffer(std::move(data_));
    data_ = pool->acquire(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  release_buffer(std::move(data_));
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
  return *this;
}

Tensor::~Tensor() { release_buffer(std::move(data_)); }

void Tensor::release_buffer(AlignedVector&& buffer) noexcept {
  if (buffer.capacity() == 0) return;
  if (TensorPool* pool = TensorPool::active()) {
    pool->release(std::move(buffer));
  }
  // No active pool (or the pool declined): the vector destructor frees.
}

Tensor Tensor::uninitialized(std::size_t rows, std::size_t cols) {
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  const std::size_t count = rows * cols;
  if (TensorPool* pool = TensorPool::active()) {
    t.data_ = pool->acquire(count);  // contents stale by contract
  } else {
    t.data_.assign(count, 0.0f);
  }
  return t;
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 0.0f);
}

Tensor Tensor::ones(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 1.0f);
}

Tensor Tensor::full(std::size_t rows, std::size_t cols, float value) {
  return Tensor(rows, cols, value);
}

Tensor Tensor::scalar(float value) {
  return Tensor(1, 1, value);
}

Tensor Tensor::randn(std::size_t rows, std::size_t cols,
                     lightnas::util::Rng& rng, float stddev) {
  Tensor t = Tensor::uninitialized(rows, cols);
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::from_rows(const std::vector<std::vector<float>>& rows) {
  // Validate before allocating: a ragged longer row would otherwise copy
  // past its slice and corrupt the heap in builds where assert is a
  // no-op.
  if (rows.empty()) {
    throw std::invalid_argument("Tensor::from_rows: empty row list");
  }
  const std::size_t cols = rows.front().size();
  if (cols == 0) {
    throw std::invalid_argument("Tensor::from_rows: rows have no columns");
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols) {
      std::ostringstream oss;
      oss << "Tensor::from_rows: ragged input, row " << r << " has "
          << rows[r].size() << " columns, expected " << cols;
      throw std::invalid_argument(oss.str());
    }
  }
  Tensor t = Tensor::uninitialized(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(),
              t.data_.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Tensor::item() const {
  assert(rows_ == 1 && cols_ == 1);
  return data_[0];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_inplace(const Tensor& other) {
  LIGHTNAS_CHECK(same_shape(other), "add_inplace: " + shape_string() +
                                        " += " + other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::sub_inplace(const Tensor& other) {
  LIGHTNAS_CHECK(same_shape(other), "sub_inplace: " + shape_string() +
                                        " -= " + other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Tensor::scale_inplace(float s) {
  for (auto& v : data_) v *= s;
}

void Tensor::axpy_inplace(float s, const Tensor& other) {
  LIGHTNAS_CHECK(same_shape(other), "axpy_inplace: " + shape_string() +
                                        " += s * " + other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += s * other.data_[i];
  }
}

void Tensor::add_row_inplace(const Tensor& row) {
  LIGHTNAS_CHECK(row.rows() == 1 && row.cols() == cols_,
                 "add_row_inplace: " + shape_string() + " += row " +
                     row.shape_string());
  add_row_into(data_.data(), row.data_.data(), rows_, cols_);
}

void Tensor::relu_inplace() {
  for (auto& v : data_) v = std::max(v, 0.0f);
}

void Tensor::add_row_relu_inplace(const Tensor& row) {
  LIGHTNAS_CHECK(row.rows() == 1 && row.cols() == cols_,
                 "add_row_relu_inplace: " + shape_string() + " += row " +
                     row.shape_string());
  add_row_relu_into(data_.data(), row.data_.data(), rows_, cols_);
}

Tensor Tensor::reshaped(std::size_t rows, std::size_t cols) const {
  assert(rows * cols == data_.size());
  Tensor t(*this);  // pooled copy when a pool is active
  t.rows_ = rows;
  t.cols_ = cols;
  return t;
}

float Tensor::sum() const {
  float total = 0.0f;
  for (float v : data_) total += v;
  return total;
}

float Tensor::mean() const {
  assert(!data_.empty());
  return sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

std::size_t Tensor::argmax_row(std::size_t r) const {
  assert(r < rows_);
  std::size_t best = 0;
  float best_v = at(r, 0);
  for (std::size_t c = 1; c < cols_; ++c) {
    if (at(r, c) > best_v) {
      best_v = at(r, c);
      best = c;
    }
  }
  return best;
}

std::string Tensor::shape_string() const {
  std::ostringstream oss;
  oss << '(' << rows_ << " x " << cols_ << ')';
  return oss.str();
}

// ---------------------------------------------------------------------
// Blocked GEMM kernels.
//
// All three variants share one determinism contract: for every output
// element C(i, j), products are accumulated in strictly ascending-p
// order with a single accumulation chain. Cache blocking tiles the k
// dimension (so a block of B rows stays hot across several C rows) and
// register blocking unrolls p in pairs / keeps several independent dot
// accumulators — neither changes the per-element accumulation order, so
// the blocked kernels are bit-identical to the naive triple loop, and a
// row range [r0, r1) computes exactly what the full kernel would
// compute for those rows.
//
// Note there is deliberately NO zero-operand skip: `0 * NaN` must stay
// NaN and `0 * inf` must stay NaN for IEEE propagation (the old kernels
// silently dropped non-finite values through an `av == 0` fast path,
// which let poisoned activations masquerade as healthy zeros).
//
// The accumulating kernels peel the first write per element into an
// assignment of `0.0f + products` — the exact chain the accumulate form
// produces over a zeroed C — so the output buffer may come from
// Tensor::uninitialized and a pooled hit never pays a zero-fill pass.
// ---------------------------------------------------------------------

/// C(r0..r1, :) = A(r0..r1, :) * B for row-major A (m x k), B (k x n).
/// Fully overwrites the row range; C may start uninitialized (k >= 1).
void matmul_rows_scalar(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t n, std::size_t r0,
                        std::size_t r1, std::size_t kc) {
  for (std::size_t pb = 0; pb < k; pb += kc) {
    const std::size_t pe = std::min(pb + kc, k);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      std::size_t p = pb;
      if (pb == 0) {
        // First touch of this row: assign, don't read stale C.
        if (p + 1 < pe) {
          const float a0 = arow[p];
          const float a1 = arow[p + 1];
          const float* b0 = b + p * n;
          const float* b1 = b0 + n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + a0 * b0[j] + a1 * b1[j];
          }
          p += 2;
        } else {
          const float av = arow[p];
          const float* brow = b + p * n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + av * brow[j];
          }
          ++p;
        }
      }
      for (; p + 1 < pe; p += 2) {
        const float a0 = arow[p];
        const float a1 = arow[p + 1];
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        for (std::size_t j = 0; j < n; ++j) {
          // Left-to-right: (crow + a0*b0) + a1*b1 — the same chain the
          // one-p-at-a-time loop produces.
          crow[j] = crow[j] + a0 * b0[j] + a1 * b1[j];
        }
      }
      for (; p < pe; ++p) {
        const float av = arow[p];
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// C(i0..i1, :) = A^T(i0..i1, :) * B for row-major A (k x m), B (k x n);
/// row i of C reads column i of A (stride m). Fully overwrites the row
/// range; C may start uninitialized (k >= 1).
void matmul_tn_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t m, std::size_t n,
                           std::size_t i0, std::size_t i1, std::size_t kc) {
  for (std::size_t pb = 0; pb < k; pb += kc) {
    const std::size_t pe = std::min(pb + kc, k);
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      std::size_t p = pb;
      if (pb == 0) {
        // First touch of this row: assign, don't read stale C.
        if (p + 1 < pe) {
          const float a0 = a[p * m + i];
          const float a1 = a[(p + 1) * m + i];
          const float* b0 = b + p * n;
          const float* b1 = b0 + n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + a0 * b0[j] + a1 * b1[j];
          }
          p += 2;
        } else {
          const float av = a[p * m + i];
          const float* brow = b + p * n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + av * brow[j];
          }
          ++p;
        }
      }
      for (; p + 1 < pe; p += 2) {
        const float a0 = a[p * m + i];
        const float a1 = a[(p + 1) * m + i];
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] = crow[j] + a0 * b0[j] + a1 * b1[j];
        }
      }
      for (; p < pe; ++p) {
        const float av = a[p * m + i];
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// C(r0..r1, :) = A(r0..r1, :) * B^T for row-major A (m x k), B (n x k).
/// Four independent dot accumulators per j-tile; each is its own
/// ascending-p chain, so per-element order matches the naive dot.
void matmul_nt_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t n, std::size_t r0,
                           std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 3 < n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        d0 += av * b0[p];
        d1 += av * b1[p];
        d2 += av * b2[p];
        d3 += av * b3[p];
      }
      crow[j] = d0;
      crow[j + 1] = d1;
      crow[j + 2] = d2;
      crow[j + 3] = d3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float dot = 0.0f;
      for (std::size_t p = 0; p < k; ++p) dot += arow[p] * brow[p];
      crow[j] = dot;
    }
  }
}

void matmul_into(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  if (k == 0) {  // no k-blocks: the kernel never writes C
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  // ISA resolved once per call (see simd.hpp).
  const simd::IsaLevel isa = simd::active_isa();
  if (isa != simd::IsaLevel::kScalar) {
    simd::matmul_rows_avx2(a, b, c, k, n, 0, m, kGemmBlock,
                           isa == simd::IsaLevel::kAvx2Fma);
  } else {
    matmul_rows_scalar(a, b, c, k, n, 0, m, kGemmBlock);
  }
}

void matmul_tn_into(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n) {
  if (k == 0) {  // no k-blocks: the kernel never writes C
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  const simd::IsaLevel isa = simd::active_isa();
  if (isa != simd::IsaLevel::kScalar) {
    simd::matmul_tn_rows_avx2(a, b, c, k, m, n, 0, m, kGemmBlock,
                              isa == simd::IsaLevel::kAvx2Fma);
  } else {
    matmul_tn_rows_scalar(a, b, c, k, m, n, 0, m, kGemmBlock);
  }
}

void matmul_nt_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  // The NT kernel assigns every element (dot accumulators start at 0),
  // so the output never needs a pre-fill, even for k == 0.
  const simd::IsaLevel isa = simd::active_isa();
  if (isa != simd::IsaLevel::kScalar) {
    simd::matmul_nt_rows_avx2(a, b, c, k, n, 0, m,
                              isa == simd::IsaLevel::kAvx2Fma);
  } else {
    matmul_nt_rows_scalar(a, b, c, k, n, 0, m);
  }
}

void add_row_into(float* data, const float* bias, std::size_t rows,
                  std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* out = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) out[c] += bias[c];
  }
}

void add_row_relu_into(float* data, const float* bias, std::size_t rows,
                       std::size_t cols) {
  // Both tiers compute max(v + bias, 0) with one rounding per element —
  // bit-identical by construction.
  if (simd::active_isa() != simd::IsaLevel::kScalar) {
    simd::add_row_relu_rows_avx2(data, bias, cols, 0, rows);
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float* out = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = std::max(out[c] + bias[c], 0.0f);
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  LIGHTNAS_CHECK(a.cols() == b.rows(),
                 "matmul: " + a.shape_string() + " * " + b.shape_string());
  Tensor c = Tensor::uninitialized(a.rows(), b.cols());
  matmul_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
              a.cols(), b.cols());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  LIGHTNAS_CHECK(a.rows() == b.rows(), "matmul_tn: " + a.shape_string() +
                                           "^T * " + b.shape_string());
  Tensor c = Tensor::uninitialized(a.cols(), b.cols());
  matmul_tn_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
                 a.cols(), b.cols());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  LIGHTNAS_CHECK(a.cols() == b.cols(), "matmul_nt: " + a.shape_string() +
                                           " * " + b.shape_string() + "^T");
  Tensor c = Tensor::uninitialized(a.rows(), b.rows());
  matmul_nt_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
                 a.cols(), b.rows());
  return c;
}

namespace {

bool all_finite(const float* v, std::size_t count) {
  // Branch-free so the scan vectorizes: an all-ones exponent is inf/NaN.
  std::uint32_t special = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, v + i, sizeof bits);
    special |= static_cast<std::uint32_t>((bits & 0x7f800000u) ==
                                          0x7f800000u);
  }
  return special == 0;
}

std::size_t count_nonzero(const float* v, std::size_t count) {
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < count; ++i) nonzero += v[i] != 0.0f;
  return nonzero;
}

/// Rows [r0, r1) of C = A * B with A's zero entries skipped, A(i, p) at
/// a[i * row_stride + p * col_stride] (so one kernel serves both the NN
/// layout, strides (k, 1), and the TN layout, strides (1, m)). The
/// scalar twin of simd::matmul_zero_skip_rows_avx2.
void matmul_zero_skip_rows_scalar(const float* a, std::size_t row_stride,
                                  std::size_t col_stride, const float* b,
                                  float* c, std::size_t k, std::size_t n,
                                  std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * row_stride;
    float* crow = c + i * n;
    // 0.0f + first product, then ascending adds: the dense chain minus
    // its zero terms.
    std::fill(crow, crow + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p * col_stride];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C = A * B with A(i, p) at a[i * row_stride + p * col_stride], A
/// logically (m x k): the zero-skip kernels when they are exact and pay
/// (see matmul_zero_skip), else `dense()`.
template <typename Dense>
void zero_skip_into(const float* a, std::size_t row_stride,
                    std::size_t col_stride, const float* b, float* c,
                    std::size_t m, std::size_t k, std::size_t n,
                    Dense dense) {
  const simd::IsaLevel isa = simd::active_isa();
  const std::size_t nonzero = count_nonzero(a, m * k);
  // The skip pays when its work, n products per nonzero plus the k * n
  // scan of B, is at most a quarter of the dense m * k * n.
  if (isa == simd::IsaLevel::kAvx2Fma || k == 0 ||
      4 * (nonzero + k) > m * k || !all_finite(b, k * n)) {
    dense();
    return;
  }
  if (isa != simd::IsaLevel::kScalar) {
    simd::matmul_zero_skip_rows_avx2(a, row_stride, col_stride, b, c, k, n,
                                     0, m);
  } else {
    matmul_zero_skip_rows_scalar(a, row_stride, col_stride, b, c, k, n, 0,
                                 m);
  }
}

}  // namespace

Tensor matmul_zero_skip(const Tensor& a, const Tensor& b) {
  LIGHTNAS_CHECK(a.cols() == b.rows(), "matmul_zero_skip: " +
                                           a.shape_string() + " * " +
                                           b.shape_string());
  Tensor c = Tensor::uninitialized(a.rows(), b.cols());
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* cp = c.data().data();
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  zero_skip_into(ap, k, 1, bp, cp, m, k, n,
                 [&] { matmul_into(ap, bp, cp, m, k, n); });
  return c;
}

Tensor matmul_tn_zero_skip(const Tensor& a, const Tensor& b) {
  LIGHTNAS_CHECK(a.rows() == b.rows(), "matmul_tn_zero_skip: " +
                                           a.shape_string() + "^T * " +
                                           b.shape_string());
  Tensor c = Tensor::uninitialized(a.cols(), b.cols());
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* cp = c.data().data();
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  zero_skip_into(ap, 1, m, bp, cp, m, k, n,
                 [&] { matmul_tn_into(ap, bp, cp, k, m, n); });
  return c;
}

}  // namespace lightnas::nn
