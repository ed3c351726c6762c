#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/service.hpp"
#include "space/search_space.hpp"
#include "util/rng.hpp"

namespace lightnas::serve {

/// Zipf(s) sampler over ranks [0, n): P(k) proportional to (k+1)^-s.
/// s ~ 1 models the architecture-popularity skew a shared predictor
/// service sees (a few hot candidates queried over and over by search
/// loops, a long tail of one-off queries) and is what exercises an LRU
/// cache honestly: neither uniform (cache-hostile) nor constant
/// (trivially cached). Sampling is O(log n) via CDF bisection.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument when n == 0.
  ZipfSampler(std::size_t n, double s);

  std::size_t sample(util::Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized, ascending, back() == 1.0
};

/// `count` distinct random architectures (the load generators' request
/// universe). Distinctness matters: duplicates would inflate cache hit
/// rates for free. Distinct means distinct fingerprints, the serving
/// cache's own key (a collision has probability ~2^-64).
std::vector<space::Architecture> random_architecture_pool(
    const space::SearchSpace& space, std::size_t count, util::Rng& rng);

/// Outcome of one load-generation run.
struct LoadResult {
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  /// Sum of all returned predictions — validates runs against each
  /// other and keeps the compiler from eliding the query loop.
  double checksum = 0.0;

  double qps() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(requests) / wall_seconds;
  }
};

/// Closed-loop load: `num_clients` threads, each issuing
/// `requests_per_client` Zipf-distributed queries back-to-back (next
/// request only after the previous answer arrived). Each client thread
/// draws from its own deterministic stream via util::make_thread_rng.
LoadResult run_closed_loop(PredictionService& service,
                           const std::vector<space::Architecture>& pool,
                           const ZipfSampler& zipf,
                           std::size_t num_clients,
                           std::size_t requests_per_client,
                           std::uint64_t seed);

/// The pre-serving baseline: the same Zipf query stream answered by
/// sequential single-thread CostOracle::predict calls — no queue, no
/// batching, no cache.
LoadResult run_sequential_baseline(
    const predictors::CostOracle& oracle,
    const std::vector<space::Architecture>& pool, const ZipfSampler& zipf,
    std::size_t requests, std::uint64_t seed);

/// Outcome of one resilience-aware load run: every request is accounted
/// for as a value, a typed ServiceError, an untyped error, or
/// unresolved (its future never became ready within the wait budget —
/// the deadlock signal the chaos gate watches for).
struct ResilientLoadResult {
  std::size_t requests = 0;
  std::size_t values = 0;
  std::size_t typed_errors = 0;
  std::size_t other_errors = 0;
  std::size_t unresolved = 0;
  double wall_seconds = 0.0;
  double checksum = 0.0;
  /// Client-observed submit -> outcome wait, in microseconds
  /// (unresolved requests record the full wait budget).
  util::HistogramSnapshot wait_us;

  /// Fraction of requests that received *some* answer — a value or a
  /// typed error — within the wait budget. The SLO gate's headline.
  double resolved_ratio() const {
    return requests == 0
               ? 1.0
               : static_cast<double>(values + typed_errors) /
                     static_cast<double>(requests);
  }
  double qps() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(requests) / wall_seconds;
  }
};

/// Closed-loop load that never wedges on a sick service: each client
/// waits at most `wait_budget` per request, classifies the outcome, and
/// moves on. Submit-side ServiceErrors (shutdown) count as typed
/// errors.
ResilientLoadResult run_resilient_closed_loop(
    PredictionService& service, const std::vector<space::Architecture>& pool,
    const ZipfSampler& zipf, std::size_t num_clients,
    std::size_t requests_per_client, std::uint64_t seed,
    std::chrono::milliseconds wait_budget);

}  // namespace lightnas::serve
