#include "serve/workload.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace lightnas::serve {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  // Checked in every build: with n == 0 the normalization below would
  // write through back() of an empty vector.
  if (n == 0) {
    throw std::invalid_argument("ZipfSampler: need at least one rank");
  }
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

std::vector<space::Architecture> random_architecture_pool(
    const space::SearchSpace& space, std::size_t count, util::Rng& rng) {
  std::vector<space::Architecture> pool;
  // Dedup on the fingerprint, as the serving cache keys on it: a second
  // full copy of every member would double the universe's footprint and
  // leave it fragmented once freed.
  std::unordered_set<std::uint64_t> seen;
  pool.reserve(count);
  seen.reserve(count);
  while (pool.size() < count) {
    space::Architecture arch = space.random_architecture(rng);
    if (seen.insert(arch.fingerprint()).second) {
      pool.push_back(std::move(arch));
    }
  }
  return pool;
}

LoadResult run_closed_loop(PredictionService& service,
                           const std::vector<space::Architecture>& pool,
                           const ZipfSampler& zipf,
                           std::size_t num_clients,
                           std::size_t requests_per_client,
                           std::uint64_t seed) {
  assert(!pool.empty());
  assert(num_clients > 0);
  std::mutex checksum_mu;
  double checksum = 0.0;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&] {
      util::Rng rng = util::make_thread_rng(seed);
      double local_sum = 0.0;
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        const space::Architecture& arch = pool[zipf.sample(rng)];
        local_sum += service.predict(arch);
      }
      std::lock_guard<std::mutex> lock(checksum_mu);
      checksum += local_sum;
    });
  }
  for (std::thread& client : clients) client.join();
  const auto end = std::chrono::steady_clock::now();

  LoadResult result;
  result.requests = num_clients * requests_per_client;
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.checksum = checksum;
  return result;
}

ResilientLoadResult run_resilient_closed_loop(
    PredictionService& service, const std::vector<space::Architecture>& pool,
    const ZipfSampler& zipf, std::size_t num_clients,
    std::size_t requests_per_client, std::uint64_t seed,
    std::chrono::milliseconds wait_budget) {
  assert(!pool.empty());
  assert(num_clients > 0);
  struct ClientTally {
    std::size_t values = 0;
    std::size_t typed_errors = 0;
    std::size_t other_errors = 0;
    std::size_t unresolved = 0;
    double checksum = 0.0;
  };
  std::mutex tally_mu;
  ClientTally total;
  util::Histogram wait_us = util::Histogram::geometric(1.0, 1e8);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&] {
      util::Rng rng = util::make_thread_rng(seed);
      ClientTally tally;
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        const space::Architecture& arch = pool[zipf.sample(rng)];
        const auto issued = std::chrono::steady_clock::now();
        try {
          std::future<double> future = service.submit(arch);
          if (future.wait_for(wait_budget) != std::future_status::ready) {
            // Do not block on a wedged future — count it and move on;
            // the promise (if ever set) resolves into a discarded
            // shared state.
            ++tally.unresolved;
          } else {
            tally.checksum += future.get();
            ++tally.values;
          }
        } catch (const ServiceError&) {
          ++tally.typed_errors;
        } catch (...) {
          ++tally.other_errors;
        }
        wait_us.record(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - issued)
                           .count());
      }
      std::lock_guard<std::mutex> lock(tally_mu);
      total.values += tally.values;
      total.typed_errors += tally.typed_errors;
      total.other_errors += tally.other_errors;
      total.unresolved += tally.unresolved;
      total.checksum += tally.checksum;
    });
  }
  for (std::thread& client : clients) client.join();
  const auto end = std::chrono::steady_clock::now();

  ResilientLoadResult result;
  result.requests = num_clients * requests_per_client;
  result.values = total.values;
  result.typed_errors = total.typed_errors;
  result.other_errors = total.other_errors;
  result.unresolved = total.unresolved;
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.checksum = total.checksum;
  result.wait_us = wait_us.snapshot();
  return result;
}

LoadResult run_sequential_baseline(
    const predictors::CostOracle& oracle,
    const std::vector<space::Architecture>& pool, const ZipfSampler& zipf,
    std::size_t requests, std::uint64_t seed) {
  assert(!pool.empty());
  util::Rng rng(seed);
  double checksum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    checksum += oracle.predict(pool[zipf.sample(rng)]);
  }
  const auto end = std::chrono::steady_clock::now();

  LoadResult result;
  result.requests = requests;
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.checksum = checksum;
  return result;
}

}  // namespace lightnas::serve
