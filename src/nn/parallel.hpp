#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace lightnas::util {
class ThreadPool;
}

namespace lightnas::nn {

/// Lane count of a ParallelContext.
struct ParallelConfig {
  /// Total compute lanes, including the calling thread. 1 means fully
  /// serial (no pool is created).
  std::size_t threads = 1;
};

/// Job-level lanes: a thread pool that runs independent jobs side by
/// side, such as a campaign's per-target epoch evaluations. Tensor
/// kernels never dispatch on it; they always run their rows serially on
/// the calling thread, because the GEMMs of one search step are too
/// small to pay for a pool latch. Concurrent `for_rows` calls from
/// different threads are safe and simply interleave their chunks on the
/// same workers. The pool is fixed at construction.
///
/// Determinism contract: `for_rows(rows, fn)` always cuts [0, rows) into
/// the same `min(threads, rows)` contiguous chunks, and each chunk is
/// executed by exactly one thread. As long as `fn` writes only the
/// output slots of its own rows, results are bit-identical to the
/// serial path for every lane count.
class ParallelContext {
 public:
  /// Serial context (threads = 1).
  ParallelContext();
  explicit ParallelContext(const ParallelConfig& config);
  ~ParallelContext();

  ParallelContext(const ParallelContext&) = delete;
  ParallelContext& operator=(const ParallelContext&) = delete;

  /// Run fn(begin, end) over a fixed contiguous partition of [0, rows).
  /// The caller executes the first chunk itself; the call returns only
  /// after every chunk has finished. Falls back to fn(0, rows) when the
  /// context is serial or the caller is already inside a chunk (nested
  /// dispatch runs serial rather than deadlocking the pool).
  void for_rows(std::size_t rows,
                const std::function<void(std::size_t, std::size_t)>& fn)
      const;

  /// The innermost active ParallelScope on this thread, else a
  /// process-wide serial context.
  static const ParallelContext& current();

 private:
  std::size_t threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
};

/// RAII thread-local override: while alive, ParallelContext::current()
/// on this thread returns *ctx. A null ctx is a no-op, so call sites can
/// thread an optional "const ParallelContext*" config field through
/// without branching.
class ParallelScope {
 public:
  explicit ParallelScope(const ParallelContext* ctx);
  ~ParallelScope();

  ParallelScope(const ParallelScope&) = delete;
  ParallelScope& operator=(const ParallelScope&) = delete;

 private:
  const ParallelContext* previous_ = nullptr;
  bool active_ = false;
};

}  // namespace lightnas::nn
