#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/aligned.hpp"

namespace lightnas::util {
class Rng;
}

namespace lightnas::nn {

/// Dense row-major 2-D float tensor.
///
/// The whole reproduction only needs rank-2 math (batch x features):
/// the latency predictor is an MLP over flattened one-hot encodings and
/// the supernet surrogate blocks are residual linear blocks. Scalars are
/// represented as 1x1 tensors. Keeping the tensor rank-2 keeps every op
/// kernel simple and auditable.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f);

  /// All special members route the underlying buffer through the
  /// thread's active TensorPool (see pool.hpp) when one is installed:
  /// construction acquires a recycled buffer and overwrites every
  /// element; destruction / overwrite donates the buffer back to the
  /// pool. Without an active pool behavior is the plain std::vector
  /// one. Either way the element values are identical — pooling only
  /// changes where the bytes live.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// Storage whose contents are UNSPECIFIED when drawn from an active
  /// TensorPool — the caller must overwrite every element before any
  /// read. This is the fast path for kernels that fully overwrite their
  /// output (GEMM, batch assembly, stacking): a pooled hit skips the
  /// zero/fill pass entirely. Without an active pool the buffer is
  /// zero-initialized, because std::vector cannot hand out raw storage;
  /// init-free handout is precisely what buffer recycling enables.
  static Tensor uninitialized(std::size_t rows, std::size_t cols);
  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor ones(std::size_t rows, std::size_t cols);
  static Tensor full(std::size_t rows, std::size_t cols, float value);
  static Tensor scalar(float value);
  /// I.i.d. normal entries (Kaiming-style init is built on top of this).
  static Tensor randn(std::size_t rows, std::size_t cols,
                      lightnas::util::Rng& rng, float stddev = 1.0f);
  static Tensor from_rows(const std::vector<std::vector<float>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Underlying storage: a std::vector<float> over a 32-byte-aligned
  /// allocator (see aligned.hpp), so kernel code can assume the buffer
  /// base is AVX2-vector-aligned whether it came from the pool or the
  /// heap.
  const AlignedVector& data() const { return data_; }
  AlignedVector& data() { return data_; }

  /// Scalar accessor; requires a 1x1 tensor.
  float item() const;

  void fill(float value);
  void add_inplace(const Tensor& other);
  void sub_inplace(const Tensor& other);
  void scale_inplace(float s);
  /// this += s * other (axpy), the core optimizer update primitive.
  void axpy_inplace(float s, const Tensor& other);
  /// Broadcast-add a 1 x cols row over every row (bias application).
  void add_row_inplace(const Tensor& row);
  /// Elementwise max(v, 0) — the inference-path counterpart of ops::relu.
  void relu_inplace();
  /// Fused bias + ReLU: v = max(v + row[c], 0), one pass over memory.
  /// Identical math to add_row_inplace followed by relu_inplace; the
  /// hidden-layer hot path of Mlp::forward_inference.
  void add_row_relu_inplace(const Tensor& row);

  /// Reinterpret the elements under a new shape (copies the buffer —
  /// through the pool when one is active); total size must be preserved.
  Tensor reshaped(std::size_t rows, std::size_t cols) const;

  float sum() const;
  float mean() const;
  float abs_max() const;
  /// Column index of the maximum entry in the given row.
  std::size_t argmax_row(std::size_t r) const;

  std::string shape_string() const;

 private:
  /// Donate the buffer to the active pool (plain free otherwise).
  static void release_buffer(AlignedVector&& buffer) noexcept;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector data_;
};

/// Cache-blocked, register-blocked GEMM kernels with full IEEE
/// NaN/Inf propagation (no zero-operand skips). They run their rows
/// serially on the calling thread, and every output element keeps a
/// single ascending-k accumulation chain.
///
/// On AVX2-capable hosts the row kernels dispatch (once per call) to
/// the SIMD microkernels of simd.hpp. The `avx2` tier vectorizes across
/// output columns with separately rounded mul+add, so it preserves the
/// per-element accumulation chain exactly — results stay bit-identical
/// to the scalar tier (and hence to every prior release); see simd.hpp.

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// matmul / matmul_tn for a mostly-zero A, such as the one-hot
/// architecture encodings the latency predictor trains and serves on.
/// Each output element runs the dense kernels' ascending-k chain with
/// the terms whose A factor is zero left out, which is exact: the chain
/// starts at +0.0f and adds separately rounded products, so it never
/// holds -0.0f, and adding a +-0 product to anything else leaves it
/// unchanged. That needs the B factor to be finite (0 * inf is NaN), so
/// these forms run the dense kernels instead when B holds a non-finite
/// value, and when skipping would not pay: when the nonzero terms plus
/// the scan of B come to more than a quarter of the dense work (few
/// rows, or a dense A).
/// Results are bit-identical to matmul / matmul_tn on every input.
Tensor matmul_zero_skip(const Tensor& a, const Tensor& b);
/// C = A^T * B with A's zero entries skipped; A is (k x m).
Tensor matmul_tn_zero_skip(const Tensor& a, const Tensor& b);

/// Edge of the k-dimension cache block of the blocked GEMM kernels.
/// Any edge gives the same bits: blocking never reorders an element's
/// accumulation chain.
constexpr std::size_t kGemmBlock = 64;

/// Row-range scalar GEMM kernels (the serial reference tier) with the
/// k-block edge as a parameter: rows [r0, r1) of C = A * B and of
/// C = A^T * B, fully overwritten. matmul / matmul_tn run them at
/// kGemmBlock when the scalar tier is active. They are public so tests
/// can check the blocked chain against the textbook loop at any block
/// edge; the SIMD microkernels of simd.hpp share the same
/// accumulation-chain contract, so any row partition is bit-identical.
void matmul_rows_scalar(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t n, std::size_t r0,
                        std::size_t r1, std::size_t kc);
void matmul_tn_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t m, std::size_t n,
                           std::size_t i0, std::size_t i1, std::size_t kc);

}  // namespace lightnas::nn
