#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/pool.hpp"
#include "predictors/predictor.hpp"
#include "serve/cache.hpp"
#include "serve/fallback.hpp"
#include "serve/resilience.hpp"
#include "space/architecture.hpp"
#include "util/metrics.hpp"

namespace lightnas::serve {

/// What submit() does when the request queue is at capacity.
enum class OverflowPolicy {
  /// Park the caller until space frees up (backpressure; the
  /// pre-resilience behavior and the default).
  kBlock,
  /// Wait at most until the request's deadline, then resolve *this*
  /// request with a typed shed error. Bounds every client's worst case.
  kShedNewest,
  /// Evict the oldest queued request (resolving it with a typed shed
  /// error) and enqueue this one without waiting. Keeps the queue fresh
  /// under sustained overload — the oldest entry is the one most likely
  /// to miss its deadline anyway.
  kShedOldest,
};

const char* to_string(OverflowPolicy policy);

/// Tuning knobs for the prediction service. Every resilience feature
/// defaults off, so a default-constructed config reproduces the
/// pre-resilience service bit for bit.
struct ServiceConfig {
  /// Micro-batching worker threads draining the request queue.
  std::size_t num_workers = 2;
  /// Upper bound on how many pending requests one worker coalesces into
  /// a single batched MLP forward.
  std::size_t max_batch = 32;
  /// Bounded request queue: submit() blocks (or sheds, per `overflow`)
  /// when this many requests are pending.
  std::size_t queue_capacity = 1024;
  /// Total LRU entries across shards; 0 disables caching entirely.
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Fresh-read TTL for cache entries; 0 = entries never expire.
  /// Expired entries are revalidated through the oracle on the next
  /// miss and remain servable by the degraded-mode stale tier.
  std::chrono::milliseconds cache_ttl{0};
  /// Give each worker a thread-local nn::TensorPool so steady-state
  /// batched forwards recycle their buffers instead of allocating.
  /// Predictions are bit-identical with pooling on or off.
  bool pool_tensors = true;

  // --- overload resilience -------------------------------------------
  /// Deadline applied to submit(arch) (overridable per request via
  /// submit(arch, deadline)); 0 = no deadline. Workers drop requests
  /// that expire in the queue and resolve them with a typed error.
  std::chrono::milliseconds default_deadline{0};
  /// Queue-overflow policy. Shed policies require a finite
  /// default_deadline (it bounds the kShedNewest wait).
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Circuit breaker around CostOracle::predict_batch.
  BreakerConfig breaker;
  /// Serve stale cache entries when degraded (only observable with a
  /// finite cache_ttl — unexpired entries are served fresh anyway).
  bool fallback_stale = true;
  /// Optional analytic proxy tier for degraded answers (e.g. a
  /// calibrated predictors::FlopsProxyOracle). Non-owning; must be
  /// const-thread-safe and outlive the service. Null disables the tier.
  const predictors::CostOracle* fallback_oracle = nullptr;
  /// A worker whose heartbeat is older than this is presumed stuck in
  /// the oracle; the watchdog retires it and spawns a replacement.
  /// 0 disables the watchdog entirely.
  std::chrono::milliseconds worker_stall_timeout{0};
  /// How often the watchdog scans worker heartbeats.
  std::chrono::milliseconds watchdog_interval{20};

  /// Throws std::invalid_argument (naming the field) on nonsensical
  /// settings — run at construction, mirroring LightNasConfig.
  void validate() const;
};

/// Point-in-time service telemetry. Latencies are end-to-end
/// (submit -> fulfilled promise) in microseconds.
struct ServiceStats {
  std::uint64_t submitted = 0;
  /// Requests resolved with a value (fresh, stale, or proxy).
  std::uint64_t completed = 0;
  /// Requests resolved with a typed ServiceError.
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  CacheStats cache;
  /// Tensor-pool activity since the service started (process-wide
  /// counter deltas; with pooling disabled all fields stay zero).
  nn::PoolStats pool;
  util::HistogramSnapshot latency_us;
  util::HistogramSnapshot batch_size;
  util::HistogramSnapshot queue_depth;

  // --- resilience ----------------------------------------------------
  /// Requests dropped by the overflow policy.
  std::uint64_t shed = 0;
  /// Requests dropped at dequeue because their deadline had passed.
  std::uint64_t expired = 0;
  /// Degraded answers by source.
  std::uint64_t degraded_stale = 0;
  std::uint64_t degraded_proxy = 0;
  /// predict_batch calls that threw.
  std::uint64_t oracle_failures = 0;
  /// Breaker lifecycle.
  std::uint64_t breaker_opens = 0;
  BreakerState breaker_state = BreakerState::kClosed;
  /// Workers retired + replaced by the watchdog.
  std::uint64_t worker_respawns = 0;
  std::int64_t active_workers = 0;
  /// Of requests that carried a deadline and resolved with a value, the
  /// fraction that beat the deadline.
  std::uint64_t deadline_total = 0;
  std::uint64_t deadline_hits = 0;
  double deadline_hit_ratio() const {
    return deadline_total == 0
               ? 1.0
               : static_cast<double>(deadline_hits) / double(deadline_total);
  }
  std::uint64_t resolved() const { return completed + failed; }

  std::string to_string() const;
};

/// Concurrent batched prediction service over any CostOracle, with an
/// overload-and-failure resilience layer.
///
/// Architecture-cost queries flow through a bounded MPMC queue into a
/// small pool of micro-batching workers. Each worker pops up to
/// `max_batch` pending requests at once, answers what it can from the
/// sharded LRU cache (keyed by Architecture::fingerprint), deduplicates
/// the remaining misses, and pushes them through one batched
/// `CostOracle::predict_batch` call — for the MLP predictor a single
/// B x (L*K) graph-free forward instead of B sequential 1-row graphs.
///
/// Resilience (all opt-in via ServiceConfig):
///   - deadlines: requests expire in the queue instead of wedging
///     clients; expiry is a typed error, not a broken promise;
///   - admission control: Block / ShedNewest / ShedOldest overflow
///     policies bound submit()'s worst case;
///   - circuit breaker: a failing backend trips the breaker and the
///     service sheds fast (front door included) until a cooldown +
///     half-open probe sequence proves the backend healthy again;
///   - graceful degradation: while the backend is unavailable, answers
///     come from stale cache entries, then an analytic proxy oracle,
///     then a typed error — never a hang;
///   - worker watchdog: a worker stuck inside the oracle is retired and
///     replaced, so one hung batch cannot absorb the whole pool.
///
/// Threading model:
///   - any number of client threads may call submit()/predict();
///   - workers never lose requests: every future obtained from submit()
///     is eventually fulfilled with a value or a ServiceError, including
///     across worker exceptions, shedding, expiry and shutdown;
///   - shutdown() stops intake, drains the queue completely, then joins
///     the workers.
class PredictionService {
 public:
  /// The oracle must outlive the service and be const-thread-safe (both
  /// built-in predictors are). Throws std::invalid_argument when the
  /// config fails validation.
  explicit PredictionService(const predictors::CostOracle& oracle,
                             ServiceConfig config = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Submit a query with the config's default deadline. Cache hits are
  /// answered immediately on the calling thread (the returned future is
  /// already ready); misses enqueue per the overflow policy. Throws
  /// ServiceError{kShutdown} once the service is shutting down; every
  /// other failure is delivered through the future.
  std::future<double> submit(const space::Architecture& arch);

  /// Same, with an explicit deadline for this request (0 = none —
  /// overriding a configured default requires kBlock overflow).
  std::future<double> submit(const space::Architecture& arch,
                             std::chrono::milliseconds deadline);

  /// Synchronous convenience wrapper: submit + wait. Rethrows the
  /// typed error if the request failed.
  double predict(const space::Architecture& arch);

  /// Stop accepting new requests, drain everything already queued, and
  /// join the workers (clients parked in submit() are released with a
  /// typed shutdown error). Idempotent; also run by the destructor.
  void shutdown();

  ServiceStats stats() const;
  const ServiceConfig& config() const { return config_; }
  std::string unit() const { return oracle_.unit(); }

 private:
  struct Request {
    space::Architecture arch;
    std::uint64_t key = 0;
    std::promise<double> promise;
    std::chrono::steady_clock::time_point enqueued_at;
    /// time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
  };

  /// One worker thread's control block. Heap-allocated and only ever
  /// appended under workers_mu_, so the watchdog and shutdown can walk
  /// the list while workers run.
  struct WorkerSlot {
    std::thread thread;
    /// steady_clock ticks of the last liveness signal.
    std::atomic<std::int64_t> heartbeat{0};
    /// Set by the watchdog: finish the current batch, then exit.
    std::atomic<bool> retired{false};
    /// Set by the worker on exit (vanished-worker detection).
    std::atomic<bool> done{false};
  };

  void worker_loop(WorkerSlot* slot);
  void process_batch(std::vector<Request>& batch);
  void watchdog_loop();
  void spawn_worker_locked();

  void fulfill(Request& request, double value);
  void fulfill_error(Request& request, ServiceErrorCode code,
                     const std::string& detail);
  /// Stale-cache -> proxy-oracle -> typed error with `code`.
  void answer_degraded(Request& request, ServiceErrorCode code);

  static std::int64_t now_ticks() {
    return std::chrono::steady_clock::now().time_since_epoch().count();
  }

  const predictors::CostOracle& oracle_;
  ServiceConfig config_;
  ShardedLruCache cache_;
  std::unique_ptr<CircuitBreaker> breaker_;
  FallbackChain fallback_;

  mutable std::mutex mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Request> queue_;
  bool stopping_ = false;

  /// Baseline for the pool-counter deltas reported by stats().
  nn::PoolStats pool_start_;

  util::Counter submitted_;
  util::Counter completed_;
  util::Counter failed_;
  util::Counter batches_;
  util::Counter shed_;
  util::Counter expired_;
  util::Counter oracle_failures_;
  util::Counter respawns_;
  util::Counter deadline_total_;
  util::Counter deadline_hits_;
  util::Gauge active_workers_;
  util::Histogram latency_us_;
  util::Histogram batch_size_;
  util::Histogram queue_depth_;

  /// Guards workers_ growth (constructor + watchdog respawn) against
  /// shutdown's join walk. Separate from mu_: never held while touching
  /// the queue.
  mutable std::mutex workers_mu_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;

  /// Serializes concurrent shutdown() calls (join is not reentrant).
  std::mutex shutdown_mu_;
};

}  // namespace lightnas::serve
