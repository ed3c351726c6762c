#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/aligned.hpp"

namespace lightnas::nn {

/// Allocation-telemetry counters of the memory-reuse layer. A "buffer"
/// event is one Tensor storage acquisition (hit = recycled from a free
/// list, miss = fresh heap allocation). In the steady state of a
/// fixed-shape training loop the miss counter should stop moving —
/// bench/alloc_steady_state gates exactly that.
struct PoolStats {
  std::uint64_t buffer_hits = 0;
  std::uint64_t buffer_misses = 0;
  std::uint64_t bytes_recycled = 0;
  /// Always 0: backward() caches no tape. Kept for report readers.
  std::uint64_t tape_hits = 0;
  std::uint64_t tape_misses = 0;

  double buffer_hit_rate() const {
    const std::uint64_t total = buffer_hits + buffer_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(buffer_hits) /
                            static_cast<double>(total);
  }

  PoolStats operator-(const PoolStats& other) const;
  std::string to_string() const;
};

/// Shape-bucketed free-list pool for Tensor storage — the one
/// allocation-reuse layer. Autograd Var nodes are plain heap objects;
/// only their tensors' buffers recycle.
///
/// A pool is *thread-confined*: it is installed on the current thread
/// with a PooledScope and consulted through TensorPool::active() by the
/// Tensor special members. Buffers are keyed by element count, so a
/// training loop whose tensor shapes repeat step over step reaches a
/// steady state where every buffer acquisition is a hit. Because handout
/// and recycling only move buffers between free lists — every element
/// of an acquired buffer is overwritten before it is read — pooled and
/// unpooled runs are bit-identical.
///
/// Buffers may migrate between threads: a Tensor created under one
/// thread's pool and destroyed on another thread is simply donated to
/// the destroying thread's pool (or freed when none is active). No
/// locks are involved; the counters mirrored into the process-wide
/// aggregate are lock-free relaxed atomics.
class TensorPool {
 public:
  TensorPool();
  ~TensorPool();

  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;

  /// A buffer with size() == count, drawn from the matching free list
  /// when possible. Contents are UNSPECIFIED (stale values from the
  /// previous user) — the caller must overwrite every element. The
  /// buffer base is always kTensorAlignment-aligned (recycled buffers
  /// were allocated through the same aligned allocator).
  AlignedVector acquire(std::size_t count);

  /// Return a buffer to its capacity-keyed free list. Never throws;
  /// drops the buffer on the floor (plain free) if the pool is at its
  /// retention cap (kMaxFreeBytes) or bookkeeping cannot allocate.
  void release(AlignedVector&& buffer) noexcept;

  /// Counters since this pool was created (thread-confined reads).
  PoolStats stats() const;

  std::size_t free_buffers() const;
  std::size_t free_bytes() const { return free_bytes_; }

  /// Retention cap: release() beyond this many free bytes frees instead
  /// of pooling (512 MiB). Generous — steady-state working sets are MBs.
  static constexpr std::size_t kMaxFreeBytes = std::size_t{1} << 29;

  /// The pool installed on this thread by the innermost PooledScope
  /// (null when none is active — all pooling is then bypassed).
  static TensorPool* active();

  /// Process-wide aggregate across every pool that ever lived, live or
  /// destroyed, all threads. Lock-free relaxed reads.
  static PoolStats global_stats();

 private:
  std::unordered_map<std::size_t, std::vector<AlignedVector>> buckets_;
  std::size_t free_bytes_ = 0;
  std::size_t free_count_ = 0;
  PoolStats stats_;
};

/// How a PooledScope changes the thread's active pool.
enum class PoolMode {
  /// Keep the already-active pool if there is one; otherwise install a
  /// fresh pool owned by this scope, unless an enclosing kDisabled scope
  /// turned pooling off on this thread. What engines, the predictor's
  /// train() and the serve workers open, so a caller-provided pool (e.g.
  /// a bench's long-lived scope) is reused across engine invocations and
  /// reaches a shared steady state.
  kInherit,
  /// Always install a fresh pool owned by this scope, shadowing any
  /// outer one or an outer kDisabled (tests that need isolated
  /// counters).
  kFresh,
  /// Turn pooling off on this thread: TensorPool::active() is null
  /// inside the scope and in every kInherit scope nested in it, so
  /// every allocation takes the plain heap path. The one way to run
  /// unpooled: the "pooling off" arm of the bit-identity comparisons
  /// wraps its call in this scope.
  kDisabled,
};

/// RAII activation of a TensorPool on the current thread. Scopes nest;
/// destruction restores the previous active pool. The scope (and any
/// pool it owns) must be destroyed on the thread that created it.
class PooledScope {
 public:
  explicit PooledScope(PoolMode mode = PoolMode::kInherit);
  ~PooledScope();

  PooledScope(const PooledScope&) = delete;
  PooledScope& operator=(const PooledScope&) = delete;

  /// The pool active inside this scope. Must not be called when none is:
  /// on a kDisabled scope or a kInherit scope nested in one.
  TensorPool& pool();

 private:
  TensorPool* previous_ = nullptr;
  bool previous_disabled_ = false;
  TensorPool* owned_ = nullptr;
  TensorPool* effective_ = nullptr;
};

}  // namespace lightnas::nn
