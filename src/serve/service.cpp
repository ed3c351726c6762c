#include "serve/service.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace lightnas::serve {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

}  // namespace

const char* to_string(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kBlock: return "block";
    case OverflowPolicy::kShedNewest: return "shed-newest";
    case OverflowPolicy::kShedOldest: return "shed-oldest";
  }
  return "unknown";
}

void ServiceConfig::validate() const {
  if (num_workers == 0) {
    throw std::invalid_argument("ServiceConfig: num_workers must be >= 1");
  }
  if (max_batch == 0) {
    throw std::invalid_argument("ServiceConfig: max_batch must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServiceConfig: queue_capacity must be >= 1");
  }
  if (cache_shards == 0) {
    throw std::invalid_argument("ServiceConfig: cache_shards must be >= 1");
  }
  if (overflow != OverflowPolicy::kBlock && default_deadline.count() <= 0) {
    throw std::invalid_argument(
        std::string("ServiceConfig: overflow policy '") + to_string(overflow) +
        "' requires a finite default_deadline (it bounds the shed wait)");
  }
  if (breaker.enabled) {
    if (breaker.window == 0) {
      throw std::invalid_argument("ServiceConfig: breaker.window must be >= 1");
    }
    if (breaker.failure_threshold <= 0.0 || breaker.failure_threshold > 1.0) {
      throw std::invalid_argument(
          "ServiceConfig: breaker.failure_threshold must be in (0, 1]");
    }
    if (breaker.cooldown.count() <= 0) {
      throw std::invalid_argument(
          "ServiceConfig: breaker.cooldown must be positive");
    }
    if (breaker.half_open_probes == 0) {
      throw std::invalid_argument(
          "ServiceConfig: breaker.half_open_probes must be >= 1");
    }
  }
  if (worker_stall_timeout.count() > 0 && watchdog_interval.count() <= 0) {
    throw std::invalid_argument(
        "ServiceConfig: watchdog_interval must be positive when the "
        "worker watchdog is enabled");
  }
}

std::string ServiceStats::to_string() const {
  std::ostringstream oss;
  oss.precision(4);
  oss << "completed=" << completed << " failed=" << failed
      << " batches=" << batches << " mean_batch=" << batch_size.mean()
      << " cache{" << cache.to_string() << "} pool{" << pool.to_string()
      << "} latency_us{" << latency_us.to_string() << "}";
  if (shed > 0 || expired > 0 || degraded_stale > 0 || degraded_proxy > 0 ||
      oracle_failures > 0 || breaker_opens > 0 || worker_respawns > 0) {
    oss << " resilience{shed=" << shed << " expired=" << expired
        << " stale=" << degraded_stale << " proxy=" << degraded_proxy
        << " oracle_failures=" << oracle_failures
        << " breaker_opens=" << breaker_opens << " breaker="
        << serve::to_string(breaker_state)
        << " respawns=" << worker_respawns
        << " deadline_hit=" << deadline_hit_ratio() << "}";
  }
  return oss.str();
}

PredictionService::PredictionService(const predictors::CostOracle& oracle,
                                     ServiceConfig config)
    : oracle_(oracle),
      config_(config),
      cache_(std::max<std::size_t>(config.cache_capacity, 1),
             std::max<std::size_t>(config.cache_shards, 1),
             config.cache_ttl),
      breaker_(config.breaker.enabled
                   ? std::make_unique<CircuitBreaker>(config.breaker)
                   : nullptr),
      fallback_(config.fallback_stale && config.cache_capacity > 0 ? &cache_
                                                                   : nullptr,
                config.fallback_oracle),
      // 1 us .. 10 s covers everything from a cache hit to a cold
      // simulator query.
      latency_us_(util::Histogram::geometric(1.0, 1e7)),
      batch_size_(util::Histogram::linear(
          0.0, static_cast<double>(std::max<std::size_t>(config.max_batch, 1)),
          std::max<std::size_t>(config.max_batch, 1))),
      queue_depth_(util::Histogram::linear(
          0.0,
          static_cast<double>(std::max<std::size_t>(config.queue_capacity, 1)),
          64)) {
  config_.validate();
  pool_start_ = nn::TensorPool::global_stats();
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.reserve(config_.num_workers * 2);
    for (std::size_t i = 0; i < config_.num_workers; ++i) {
      spawn_worker_locked();
    }
  }
  if (config_.worker_stall_timeout.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

PredictionService::~PredictionService() { shutdown(); }

void PredictionService::spawn_worker_locked() {
  auto slot = std::make_unique<WorkerSlot>();
  slot->heartbeat.store(now_ticks(), std::memory_order_relaxed);
  WorkerSlot* raw = slot.get();
  workers_.push_back(std::move(slot));
  raw->thread = std::thread([this, raw] { worker_loop(raw); });
}

std::future<double> PredictionService::submit(
    const space::Architecture& arch) {
  return submit(arch, config_.default_deadline);
}

std::future<double> PredictionService::submit(
    const space::Architecture& arch, std::chrono::milliseconds deadline) {
  Request request;
  request.key = arch.fingerprint();
  request.enqueued_at = std::chrono::steady_clock::now();
  request.deadline = deadline.count() > 0 ? request.enqueued_at + deadline
                                          : kNoDeadline;
  std::future<double> future = request.promise.get_future();
  // Front-door cache hit: answer on the caller's thread without touching
  // the queue at all. Under Zipf-skewed traffic this is the common case,
  // and queue + wakeup synchronization (~100us) would otherwise dwarf
  // the lookup (~100ns). Only misses pay for micro-batching, and only
  // they copy the architecture into the request.
  if (config_.cache_capacity > 0) {
    if (const std::optional<double> hit = cache_.get(request.key)) {
      submitted_.add();
      fulfill(request, *hit);
      return future;
    }
  }
  request.arch = arch;
  // Fail fast while the breaker is open and cooling down: answer from
  // the fallback chain on the calling thread instead of queueing work
  // the backend cannot absorb.
  if (breaker_ && breaker_->should_shed()) {
    submitted_.add();
    answer_degraded(request, ServiceErrorCode::kCircuitOpen);
    return future;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto has_space = [this] {
      return stopping_ || queue_.size() < config_.queue_capacity;
    };
    switch (config_.overflow) {
      case OverflowPolicy::kBlock:
        queue_not_full_.wait(lock, has_space);
        break;
      case OverflowPolicy::kShedNewest: {
        // Bounded wait: the request's own deadline (validation
        // guarantees the config default is finite).
        const auto bound = request.deadline == kNoDeadline
                               ? request.enqueued_at + config_.default_deadline
                               : request.deadline;
        queue_not_full_.wait_until(lock, bound, has_space);
        break;
      }
      case OverflowPolicy::kShedOldest:
        break;  // never waits: evicts instead
    }
    if (stopping_) {
      throw ServiceError(ServiceErrorCode::kShutdown,
                         "prediction service is shut down");
    }
    if (queue_.size() >= config_.queue_capacity) {
      if (config_.overflow == OverflowPolicy::kShedNewest) {
        lock.unlock();
        submitted_.add();
        shed_.add();
        fulfill_error(request, ServiceErrorCode::kShed,
                      "queue stayed full past the request deadline");
        return future;
      }
      // kShedOldest. (kBlock cannot reach here: its wait only returns
      // with space or stopping.)
      Request oldest = std::move(queue_.front());
      queue_.pop_front();
      queue_.push_back(std::move(request));
      lock.unlock();
      submitted_.add();
      shed_.add();
      fulfill_error(oldest, ServiceErrorCode::kShed,
                    "evicted by a newer request (shed-oldest)");
      queue_not_empty_.notify_one();
      return future;
    }
    queue_.push_back(std::move(request));
  }
  queue_not_empty_.notify_one();
  submitted_.add();
  return future;
}

double PredictionService::predict(const space::Architecture& arch) {
  return submit(arch).get();
}

void PredictionService::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  // Stop the watchdog before joining workers so no replacement can be
  // spawned mid-join.
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  std::vector<std::unique_ptr<WorkerSlot>> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  for (const std::unique_ptr<WorkerSlot>& slot : workers) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

void PredictionService::fulfill(Request& request, double value) {
  const auto now = std::chrono::steady_clock::now();
  latency_us_.record(
      std::chrono::duration<double, std::micro>(now - request.enqueued_at)
          .count());
  if (request.deadline != kNoDeadline) {
    deadline_total_.add();
    if (now <= request.deadline) deadline_hits_.add();
  }
  // Count before waking the client: a caller that sees its future ready
  // must also see the completion reflected in stats().
  completed_.add();
  request.promise.set_value(value);
}

void PredictionService::fulfill_error(Request& request, ServiceErrorCode code,
                                      const std::string& detail) {
  if (request.deadline != kNoDeadline) deadline_total_.add();
  failed_.add();
  request.promise.set_exception(
      std::make_exception_ptr(ServiceError(code, detail)));
}

void PredictionService::answer_degraded(Request& request,
                                        ServiceErrorCode code) {
  if (fallback_.has_tier()) {
    if (const std::optional<FallbackChain::Answer> answer =
            fallback_.answer(request.key, request.arch)) {
      fulfill(request, answer->value);
      return;
    }
  }
  fulfill_error(request, code,
                "backend unavailable and no fallback tier answered");
}

void PredictionService::worker_loop(WorkerSlot* slot) {
  active_workers_.add(1);
  // Per-worker tensor pool: batch inputs and forward activations are
  // created on this thread, so under steady traffic every buffer is
  // recycled locally with no cross-thread traffic at all.
  const nn::PooledScope pool_scope(config_.pool_tensors
                                       ? nn::PoolMode::kInherit
                                       : nn::PoolMode::kDisabled);
  const bool watchdogged = config_.worker_stall_timeout.count() > 0;
  for (;;) {
    slot->heartbeat.store(now_ticks(), std::memory_order_relaxed);
    if (slot->retired.load(std::memory_order_relaxed)) break;
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (watchdogged) {
        // Bounded waits so the heartbeat advances while idle; only the
        // oracle call itself can make it go stale.
        while (!stopping_ && queue_.empty() &&
               !slot->retired.load(std::memory_order_relaxed)) {
          queue_not_empty_.wait_for(lock, config_.watchdog_interval);
          slot->heartbeat.store(now_ticks(), std::memory_order_relaxed);
        }
      } else {
        queue_not_empty_.wait(
            lock, [this] { return stopping_ || !queue_.empty(); });
      }
      if (slot->retired.load(std::memory_order_relaxed)) break;
      // Drain-then-exit: on shutdown the queue must reach empty before
      // any worker leaves, so every submitted future gets an outcome.
      if (queue_.empty()) break;
      queue_depth_.record(static_cast<double>(queue_.size()));
      const std::size_t take =
          std::min(queue_.size(), config_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    queue_not_full_.notify_all();
    process_batch(batch);
  }
  slot->done.store(true, std::memory_order_relaxed);
  active_workers_.add(-1);
}

void PredictionService::process_batch(std::vector<Request>& batch) {
  batch_size_.record(static_cast<double>(batch.size()));
  batches_.add();
  const bool use_cache = config_.cache_capacity > 0;
  const auto now = std::chrono::steady_clock::now();

  // First pass: drop requests that expired while queued (their clients
  // have likely moved on — spending a forward on them only delays the
  // live ones), then the second-chance cache lookup: everything here
  // missed at the front door, but a concurrent batch may have computed
  // it since. (Cold keys can therefore count up to two misses — front
  // door and here — which understates the hit rate slightly; the bias
  // vanishes under the skewed traffic the cache exists for.)
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    if (request.deadline != kNoDeadline && now >= request.deadline) {
      expired_.add();
      fulfill_error(request, ServiceErrorCode::kDeadline,
                    "deadline expired while queued");
      continue;
    }
    if (use_cache) {
      if (const std::optional<double> hit = cache_.get(request.key)) {
        fulfill(request, *hit);
        continue;
      }
    }
    pending.push_back(i);
  }
  if (pending.empty()) return;

  // Deduplicate within the batch: one forward row per unique
  // architecture, fanned back out to every requester of that key.
  std::unordered_map<std::uint64_t, std::size_t> unique_index;
  std::vector<space::Architecture> unique_archs;
  std::vector<std::size_t> row_of(pending.size());
  for (std::size_t p = 0; p < pending.size(); ++p) {
    const Request& request = batch[pending[p]];
    const auto [it, inserted] =
        unique_index.emplace(request.key, unique_archs.size());
    if (inserted) unique_archs.push_back(request.arch);
    row_of[p] = it->second;
  }

  // Failure containment: the breaker decides whether the backend sees
  // this batch at all, and an oracle exception is an outcome for the
  // breaker — never a lost promise.
  bool use_oracle = breaker_ == nullptr || breaker_->allow();
  ServiceErrorCode degraded_code = ServiceErrorCode::kCircuitOpen;
  std::vector<double> costs;
  if (use_oracle) {
    try {
      costs = oracle_.predict_batch(unique_archs);
      if (costs.size() != unique_archs.size()) {
        throw std::runtime_error("predict_batch returned wrong row count");
      }
      if (breaker_) breaker_->record_success();
    } catch (...) {
      oracle_failures_.add();
      if (breaker_) breaker_->record_failure();
      use_oracle = false;
      degraded_code = ServiceErrorCode::kOracleFailure;
    }
  }
  if (!use_oracle) {
    for (std::size_t p : pending) {
      answer_degraded(batch[p], degraded_code);
    }
    return;
  }

  if (use_cache) {
    for (const auto& [key, row] : unique_index) {
      cache_.put(key, costs[row]);
    }
  }
  for (std::size_t p = 0; p < pending.size(); ++p) {
    fulfill(batch[pending[p]], costs[row_of[p]]);
  }
}

void PredictionService::watchdog_loop() {
  const std::int64_t stall_ticks =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          config_.worker_stall_timeout)
          .count();
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, config_.watchdog_interval,
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    lock.unlock();
    bool stopping;
    {
      std::lock_guard<std::mutex> queue_lock(mu_);
      stopping = stopping_;
    }
    if (!stopping) {
      const std::int64_t now = now_ticks();
      std::lock_guard<std::mutex> workers_lock(workers_mu_);
      // Snapshot the count: replacements appended below must not be
      // scanned in the same pass.
      const std::size_t count = workers_.size();
      for (std::size_t i = 0; i < count; ++i) {
        WorkerSlot* slot = workers_[i].get();
        if (slot->retired.load(std::memory_order_relaxed)) continue;
        const bool vanished = slot->done.load(std::memory_order_relaxed);
        const bool stalled =
            now - slot->heartbeat.load(std::memory_order_relaxed) >
            stall_ticks;
        if (vanished || stalled) {
          // Retire the stuck worker (it will exit after its current
          // batch finally returns — injected hangs are finite) and
          // keep the pool at strength with a replacement.
          slot->retired.store(true, std::memory_order_relaxed);
          respawns_.add();
          spawn_worker_locked();
        }
      }
    }
    lock.lock();
  }
}

ServiceStats PredictionService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.value();
  stats.completed = completed_.value();
  stats.failed = failed_.value();
  stats.batches = batches_.value();
  stats.cache = cache_.stats();
  stats.pool = nn::TensorPool::global_stats() - pool_start_;
  stats.latency_us = latency_us_.snapshot();
  stats.batch_size = batch_size_.snapshot();
  stats.queue_depth = queue_depth_.snapshot();
  stats.shed = shed_.value();
  stats.expired = expired_.value();
  const FallbackStats fallback = fallback_.stats();
  stats.degraded_stale = fallback.stale;
  stats.degraded_proxy = fallback.proxy;
  stats.oracle_failures = oracle_failures_.value();
  if (breaker_) {
    stats.breaker_opens = breaker_->opens();
    stats.breaker_state = breaker_->state();
  }
  stats.worker_respawns = respawns_.value();
  stats.active_workers = active_workers_.value();
  stats.deadline_total = deadline_total_.value();
  stats.deadline_hits = deadline_hits_.value();
  return stats;
}

}  // namespace lightnas::serve
