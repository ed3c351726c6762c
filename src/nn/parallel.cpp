#include "nn/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "util/thread_pool.hpp"

namespace lightnas::nn {

namespace {

/// Innermost ParallelScope override for this thread (null = serial).
thread_local const ParallelContext* tl_override = nullptr;

/// Set while this thread is executing a dispatched chunk. A chunk that
/// dispatches again must not re-enter the pool: with every worker
/// blocked waiting on sub-chunks nobody would be left to run them.
thread_local bool tl_in_chunk = false;

struct ChunkGuard {
  bool saved;
  ChunkGuard() : saved(tl_in_chunk) { tl_in_chunk = true; }
  ~ChunkGuard() { tl_in_chunk = saved; }
};

}  // namespace

ParallelContext::ParallelContext() : ParallelContext(ParallelConfig{}) {}

ParallelContext::ParallelContext(const ParallelConfig& config)
    : threads_(std::max<std::size_t>(config.threads, 1)) {
  // The caller always runs the first chunk, so the pool only needs
  // threads - 1 workers to reach the configured lane count.
  if (threads_ > 1) pool_ = std::make_unique<util::ThreadPool>(threads_ - 1);
}

ParallelContext::~ParallelContext() = default;

void ParallelContext::for_rows(
    std::size_t rows,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  const std::size_t chunks = std::min(threads_, rows);
  if (pool_ == nullptr || tl_in_chunk || chunks <= 1) {
    fn(0, rows);
    return;
  }

  // Per-call completion latch; the pool is shared, so waiting on the
  // pool's own idle state would entangle unrelated dispatches.
  std::mutex mu;
  std::condition_variable done;
  std::size_t remaining = chunks - 1;

  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t begin = c * rows / chunks;
    const std::size_t end = (c + 1) * rows / chunks;
    pool_->submit([&, begin, end] {
      {
        ChunkGuard guard;
        fn(begin, end);
      }
      // Notify while holding the lock: mu and done live on the caller's
      // stack, and the caller may return (destroying both) the moment it
      // can observe remaining == 0. Holding mu across the signal keeps
      // the caller from reacquiring it until the signal has completed.
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_one();
    });
  }
  {
    ChunkGuard guard;
    fn(0, rows / chunks);
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
}

const ParallelContext& ParallelContext::current() {
  static const ParallelContext serial;
  return tl_override != nullptr ? *tl_override : serial;
}

ParallelScope::ParallelScope(const ParallelContext* ctx) {
  if (ctx == nullptr) return;
  previous_ = tl_override;
  tl_override = ctx;
  active_ = true;
}

ParallelScope::~ParallelScope() {
  if (active_) tl_override = previous_;
}

}  // namespace lightnas::nn
