#include "nn/pool.hpp"

#include <cassert>
#include <sstream>
#include <utility>

#include "util/metrics.hpp"

namespace lightnas::nn {

namespace {

// Innermost active pool on this thread. A plain pointer (trivially
// destructible) so it stays readable during thread-exit destruction of
// other thread_locals; scopes are stack-based, so by then it is null.
thread_local TensorPool* tl_active_pool = nullptr;
// Set inside a kDisabled scope (until a kFresh one shadows it), so a
// nested kInherit scope stays unpooled instead of installing a pool.
thread_local bool tl_pool_disabled = false;

// Process-wide aggregates. Every per-pool counter bump mirrors into
// these relaxed atomics, so a cross-thread reader (serve-bench, the CLI)
// never touches a thread-confined pool.
struct GlobalCounters {
  util::Counter buffer_hits;
  util::Counter buffer_misses;
  util::Counter bytes_recycled;
};

GlobalCounters& global_counters() {
  static GlobalCounters counters;
  return counters;
}

}  // namespace

PoolStats PoolStats::operator-(const PoolStats& other) const {
  PoolStats d;
  d.buffer_hits = buffer_hits - other.buffer_hits;
  d.buffer_misses = buffer_misses - other.buffer_misses;
  d.bytes_recycled = bytes_recycled - other.bytes_recycled;
  return d;
}

std::string PoolStats::to_string() const {
  std::ostringstream oss;
  oss.precision(4);
  oss << "buf_hit=" << buffer_hits << " buf_miss=" << buffer_misses
      << " hit_rate=" << buffer_hit_rate()
      << " recycled_mb=" << static_cast<double>(bytes_recycled) / (1 << 20);
  return oss.str();
}

TensorPool::TensorPool() = default;
TensorPool::~TensorPool() = default;

AlignedVector TensorPool::acquire(std::size_t count) {
  if (count == 0) return {};
  const auto it = buckets_.find(count);
  if (it != buckets_.end() && !it->second.empty()) {
    AlignedVector buffer = std::move(it->second.back());
    it->second.pop_back();
    free_bytes_ -= buffer.capacity() * sizeof(float);
    --free_count_;
    buffer.resize(count);
    ++stats_.buffer_hits;
    const std::uint64_t bytes = count * sizeof(float);
    stats_.bytes_recycled += bytes;
    global_counters().buffer_hits.add();
    global_counters().bytes_recycled.add(bytes);
    return buffer;
  }
  ++stats_.buffer_misses;
  global_counters().buffer_misses.add();
  AlignedVector buffer(count);
  return buffer;
}

void TensorPool::release(AlignedVector&& buffer) noexcept {
  const std::size_t capacity = buffer.capacity();
  if (capacity == 0) return;
  if (free_bytes_ + capacity * sizeof(float) > kMaxFreeBytes) return;
  try {
    buckets_[capacity].push_back(std::move(buffer));
  } catch (...) {
    return;  // bookkeeping OOM: let the buffer free normally
  }
  free_bytes_ += capacity * sizeof(float);
  ++free_count_;
}

PoolStats TensorPool::stats() const { return stats_; }

std::size_t TensorPool::free_buffers() const { return free_count_; }

TensorPool* TensorPool::active() { return tl_active_pool; }

PoolStats TensorPool::global_stats() {
  const GlobalCounters& counters = global_counters();
  PoolStats stats;
  stats.buffer_hits = counters.buffer_hits.value();
  stats.buffer_misses = counters.buffer_misses.value();
  stats.bytes_recycled = counters.bytes_recycled.value();
  return stats;
}

PooledScope::PooledScope(PoolMode mode)
    : previous_(tl_active_pool), previous_disabled_(tl_pool_disabled) {
  switch (mode) {
    case PoolMode::kInherit:
      if (tl_active_pool == nullptr && !tl_pool_disabled) {
        owned_ = new TensorPool();
        tl_active_pool = owned_;
      }
      break;
    case PoolMode::kFresh:
      owned_ = new TensorPool();
      tl_active_pool = owned_;
      tl_pool_disabled = false;
      break;
    case PoolMode::kDisabled:
      tl_active_pool = nullptr;
      tl_pool_disabled = true;
      break;
  }
  effective_ = tl_active_pool;
}

PooledScope::~PooledScope() {
  tl_active_pool = previous_;
  tl_pool_disabled = previous_disabled_;
  delete owned_;
}

TensorPool& PooledScope::pool() {
  assert(effective_ != nullptr && "pool() called where pooling is off");
  return *effective_;
}

}  // namespace lightnas::nn
