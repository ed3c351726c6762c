#include "nn/pool.hpp"

#include <cassert>
#include <new>
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
  util::Counter node_hits;
  util::Counter node_misses;
};

GlobalCounters& global_counters() {
  static GlobalCounters counters;
  return counters;
}

// Thread-local free lists for fixed-size blocks (Var nodes, shared_ptr
// control blocks). Separate from TensorPool so recycled blocks survive
// scope churn within a thread; memory is bounded by the peak live graph.
struct BlockBuckets {
  std::unordered_map<std::size_t, std::vector<void*>> by_size;

  ~BlockBuckets() {
    for (auto& [size, blocks] : by_size) {
      (void)size;
      for (void* block : blocks) ::operator delete(block);
    }
  }
};

BlockBuckets& block_buckets() {
  thread_local BlockBuckets buckets;
  return buckets;
}

}  // namespace

PoolStats PoolStats::operator-(const PoolStats& other) const {
  PoolStats d;
  d.buffer_hits = buffer_hits - other.buffer_hits;
  d.buffer_misses = buffer_misses - other.buffer_misses;
  d.bytes_recycled = bytes_recycled - other.bytes_recycled;
  d.node_hits = node_hits - other.node_hits;
  d.node_misses = node_misses - other.node_misses;
  return d;
}

std::string PoolStats::to_string() const {
  std::ostringstream oss;
  oss.precision(4);
  oss << "buf_hit=" << buffer_hits << " buf_miss=" << buffer_misses
      << " hit_rate=" << buffer_hit_rate()
      << " recycled_mb=" << static_cast<double>(bytes_recycled) / (1 << 20)
      << " node_hit=" << node_hits << " node_miss=" << node_misses;
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

void TensorPool::note_node_hit() {
  ++stats_.node_hits;
  global_counters().node_hits.add();
}

void TensorPool::note_node_miss() {
  ++stats_.node_misses;
  global_counters().node_misses.add();
}

TensorPool* TensorPool::active() { return tl_active_pool; }

PoolStats TensorPool::global_stats() {
  const GlobalCounters& counters = global_counters();
  PoolStats stats;
  stats.buffer_hits = counters.buffer_hits.value();
  stats.buffer_misses = counters.buffer_misses.value();
  stats.bytes_recycled = counters.bytes_recycled.value();
  stats.node_hits = counters.node_hits.value();
  stats.node_misses = counters.node_misses.value();
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

void* pooled_block_acquire(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (tl_active_pool != nullptr) {
    auto& bucket = block_buckets().by_size[bytes];
    if (!bucket.empty()) {
      void* block = bucket.back();
      bucket.pop_back();
      return block;
    }
  }
  return ::operator new(bytes);
}

void pooled_block_release(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (tl_active_pool != nullptr) {
    try {
      block_buckets().by_size[bytes].push_back(block);
      return;
    } catch (...) {
      // fall through to plain delete
    }
  }
  ::operator delete(block);
}

}  // namespace lightnas::nn
