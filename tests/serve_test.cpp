#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "predictors/mlp_predictor.hpp"
#include "predictors/oracle.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "space/search_space.hpp"
#include "util/rng.hpp"

namespace lightnas::serve {
namespace {

/// Untrained MLP weights are random but fixed per seed; flipping the
/// trained bit through the State round-trip gives a deterministic
/// predictor without paying for a training run in every test.
predictors::MlpPredictor make_test_predictor(const space::SearchSpace& space,
                                             std::uint64_t seed = 5) {
  predictors::MlpPredictor raw(space.num_layers(), space.num_ops(), seed);
  predictors::MlpPredictor::State state = raw.export_state();
  state.trained = true;
  state.target_mean = 20.0;
  state.target_std = 4.0;
  return predictors::MlpPredictor::from_state(state);
}

/// Deterministic oracle with a tunable per-query delay — slow enough to
/// keep the queue occupied in backpressure / shutdown tests.
class SlowOracle : public predictors::CostOracle {
 public:
  explicit SlowOracle(std::chrono::microseconds delay) : delay_(delay) {}

  double predict(const space::Architecture& arch) const override {
    std::this_thread::sleep_for(delay_);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(arch.fingerprint() % 1000) / 10.0;
  }
  std::string unit() const override { return "ms"; }
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::microseconds delay_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(BatchedForward, BitIdenticalToPerSampleForward) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);

  util::Rng rng(17);
  std::vector<space::Architecture> archs;
  for (int i = 0; i < 64; ++i) {
    archs.push_back(space.random_architecture(rng));
  }
  const std::vector<double> batched = predictor.predict_batch(archs);
  ASSERT_EQ(batched.size(), archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    // Exact equality is the contract: same matmul kernel, same per-row
    // accumulation order, same de-standardization arithmetic.
    EXPECT_EQ(batched[i], predictor.predict(archs[i])) << "row " << i;
  }
}

TEST(BatchedForward, EmptyAndSingletonBatches) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);
  EXPECT_TRUE(predictor.predict_batch({}).empty());

  util::Rng rng(18);
  const space::Architecture arch = space.random_architecture(rng);
  const std::vector<double> one = predictor.predict_batch({arch});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], predictor.predict(arch));
}

TEST(BatchedForward, DefaultOracleBatchMatchesLoop) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::SimulatorOracle oracle(
      space, hw::CostModel(hw::DeviceProfile::jetson_xavier_maxn(), 8),
      predictors::Metric::kLatencyMs);
  util::Rng rng(19);
  std::vector<space::Architecture> archs;
  for (int i = 0; i < 8; ++i) archs.push_back(space.random_architecture(rng));
  const std::vector<double> batched = oracle.predict_batch(archs);
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(batched[i], oracle.predict(archs[i]));
  }
}

TEST(ShardedLruCache, BasicHitMissAndOverwrite) {
  ShardedLruCache cache(64, 4);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 10.0);
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(*cache.get(1), 10.0);
  cache.put(1, 11.0);
  EXPECT_EQ(*cache.get(1), 11.0);
  EXPECT_EQ(cache.size(), 1u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedPerShard) {
  // One shard makes the LRU order globally observable.
  ShardedLruCache cache(3, 1);
  cache.put(1, 1.0);
  cache.put(2, 2.0);
  cache.put(3, 3.0);
  ASSERT_TRUE(cache.get(1).has_value());  // 1 is now most recent
  cache.put(4, 4.0);                      // evicts 2 (the LRU)
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_TRUE(cache.get(4).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ShardedLruCache, CapacitySplitsAcrossShards) {
  ShardedLruCache cache(64, 16);
  EXPECT_EQ(cache.capacity(), 64u);
  // Well-mixed keys spread across shards; total never exceeds capacity.
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    cache.put(rng.next_u64(), 1.0);
  }
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.size(), cache.capacity() / 2);
}

TEST(ShardedLruCache, ConcurrentMixedLoadAccountsEveryLookup) {
  ShardedLruCache cache(1024, 8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  // A key universe larger than capacity forces a hit/miss mix with
  // evictions; values are derived from keys so any cross-thread
  // corruption shows up as a wrong value, not just a bad count.
  constexpr std::uint64_t kUniverse = 4096;

  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<std::uint64_t> observed_misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Mix well-spread keys through the fingerprint-style domain.
        const std::uint64_t key =
            (rng.next_u64() % kUniverse) * 0x9e3779b97f4a7c15ULL;
        const double expected =
            static_cast<double>(key % 97);
        if (const std::optional<double> value = cache.get(key)) {
          EXPECT_EQ(*value, expected);
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.put(key, expected);
          observed_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.misses, observed_misses.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(PredictionService, AnswersMatchDirectPredictions) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);

  ServiceConfig config;
  config.num_workers = 2;
  config.max_batch = 8;
  PredictionService service(predictor, config);

  util::Rng rng(21);
  std::vector<space::Architecture> archs;
  std::vector<std::future<double>> futures;
  for (int i = 0; i < 200; ++i) {
    archs.push_back(space.random_architecture(rng));
    futures.push_back(service.submit(archs.back()));
  }
  for (std::size_t i = 0; i < archs.size(); ++i) {
    // Batched forward is bit-identical and the cache stores exactly
    // those values, so hits and misses alike must agree exactly.
    EXPECT_EQ(futures[i].get(), predictor.predict(archs[i])) << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, archs.size());
  EXPECT_EQ(stats.submitted, archs.size());
}

TEST(PredictionService, CacheHitsForRepeatedQueries) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);

  PredictionService service(predictor);
  util::Rng rng(22);
  const space::Architecture hot = space.random_architecture(rng);
  const double expected = predictor.predict(hot);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(service.predict(hot), expected);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 50u);
  // Synchronous repeats: the first query misses twice (front door, then
  // the worker's second-chance lookup); the other 49 hit at the front
  // door without ever touching the queue.
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 49u);
  EXPECT_EQ(stats.batches, 1u);
}

// A front-door hit answers before the request copies its architecture.
// Hits must still resolve with the cached value and move the submitted,
// completed, cache and deadline counters as before; a miss after them
// must still carry its architecture to the oracle.
TEST(PredictionService, FrontDoorHitsResolveAndCountAsBefore) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);

  PredictionService service(predictor);
  util::Rng rng(26);
  const space::Architecture hot = space.random_architecture(rng);
  const space::Architecture cold = space.random_architecture(rng);
  const double expected = service.submit(hot).get();
  EXPECT_EQ(expected, predictor.predict(hot));

  std::vector<std::future<double>> hits;
  for (int i = 0; i < 20; ++i) {
    hits.push_back(service.submit(hot, std::chrono::milliseconds(60000)));
  }
  for (std::future<double>& hit : hits) EXPECT_EQ(hit.get(), expected);
  EXPECT_EQ(service.submit(cold).get(), predictor.predict(cold));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 22u);
  EXPECT_EQ(stats.completed, 22u);
  EXPECT_EQ(stats.failed, 0u);
  // Each miss looks up twice: the front door, then the worker.
  EXPECT_EQ(stats.cache.hits, 20u);
  EXPECT_EQ(stats.cache.misses, 4u);
  EXPECT_EQ(stats.batches, 2u);
  // Only the 20 hits carried a deadline, and each met it.
  EXPECT_EQ(stats.deadline_total, 20u);
  EXPECT_EQ(stats.deadline_hits, 20u);
}

TEST(PredictionService, ConcurrentClientsMixedHitMiss) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);

  util::Rng pool_rng(23);
  const std::vector<space::Architecture> pool =
      random_architecture_pool(space, 64, pool_rng);
  std::vector<double> expected;
  expected.reserve(pool.size());
  for (const space::Architecture& arch : pool) {
    expected.push_back(predictor.predict(arch));
  }

  ServiceConfig config;
  config.num_workers = 3;
  config.max_batch = 16;
  config.queue_capacity = 64;
  PredictionService service(predictor, config);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 500;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(c) + 100);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::size_t pick = rng.uniform_index(pool.size());
        EXPECT_EQ(service.predict(pool[pick]), expected[pick]);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  // 64 unique architectures, 4000 requests: the cache must carry most
  // of the load.
  EXPECT_GT(stats.cache.hit_rate(), 0.9);
}

TEST(PredictionService, BackpressureBoundsTheQueue) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const SlowOracle oracle(std::chrono::microseconds(200));

  ServiceConfig config;
  config.num_workers = 1;
  config.max_batch = 2;
  config.queue_capacity = 4;
  config.cache_capacity = 0;  // every request must reach the oracle
  PredictionService service(oracle, config);

  util::Rng rng(24);
  std::vector<space::Architecture> archs;
  for (int i = 0; i < 64; ++i) {
    archs.push_back(space.random_architecture(rng));
  }
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 8; ++i) {
        const space::Architecture& arch =
            archs[static_cast<std::size_t>(c * 8 + i)];
        EXPECT_EQ(service.predict(arch),
                  static_cast<double>(arch.fingerprint() % 1000) / 10.0);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(oracle.calls(), 64u);
  // The worker observes queue depth at every batch pop; with submit()
  // blocking at capacity the observed maximum can never exceed it.
  EXPECT_LE(stats.queue_depth.max,
            static_cast<double>(config.queue_capacity));
}

TEST(PredictionService, ShutdownDrainsInFlightRequests) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const SlowOracle oracle(std::chrono::microseconds(500));

  ServiceConfig config;
  config.num_workers = 1;
  config.max_batch = 4;
  config.queue_capacity = 64;
  config.cache_capacity = 0;
  auto service = std::make_unique<PredictionService>(oracle, config);

  util::Rng rng(25);
  std::vector<std::future<double>> futures;
  std::vector<space::Architecture> archs;
  for (int i = 0; i < 32; ++i) {
    archs.push_back(space.random_architecture(rng));
    futures.push_back(service->submit(archs.back()));
  }
  service->shutdown();

  // Every future obtained before shutdown must hold a real value.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(),
              static_cast<double>(archs[i].fingerprint() % 1000) / 10.0);
  }
  // And the service must reject new work afterwards.
  EXPECT_THROW(service->submit(archs[0]), std::runtime_error);
  service.reset();  // double-shutdown via destructor must be harmless
}

TEST(PredictionService, StressManyClientsSmallQueue) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor = make_test_predictor(space);

  ServiceConfig config;
  config.num_workers = 4;
  config.max_batch = 8;
  config.queue_capacity = 8;
  config.cache_capacity = 128;
  config.cache_shards = 2;
  PredictionService service(predictor, config);

  util::Rng pool_rng(26);
  const std::vector<space::Architecture> pool =
      random_architecture_pool(space, 512, pool_rng);
  const ZipfSampler zipf(pool.size(), 1.1);
  const LoadResult result =
      run_closed_loop(service, pool, zipf, 16, 250, /*seed=*/31);

  EXPECT_EQ(result.requests, 16u * 250u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, result.requests);
  // Every request does a front-door lookup; misses do a second-chance
  // lookup inside the worker, so the total lookup count lands between
  // one and two per request.
  EXPECT_GE(stats.cache.hits + stats.cache.misses, result.requests);
  EXPECT_LE(stats.cache.hits + stats.cache.misses, 2 * result.requests);
  EXPECT_TRUE(std::isfinite(result.checksum));
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  const ZipfSampler zipf(1000, 1.1);
  util::Rng rng(27);
  std::size_t head = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.sample(rng) < 10) ++head;
  }
  // Under Zipf(1.1) the top-10 ranks carry roughly half the mass; under
  // a uniform law they would carry 1%.
  EXPECT_GT(head, kSamples / 4);
  EXPECT_LT(head, kSamples);
}

TEST(ZipfSampler, CoversFullRange) {
  const ZipfSampler zipf(4, 0.5);
  util::Rng rng(28);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_GT(c, 0);
}

// An empty rank range is rejected in every build, Release included:
// normalizing its CDF would write through back() of an empty vector.
TEST(ZipfSampler, RejectsEmptyRangeInEveryBuild) {
  EXPECT_THROW(ZipfSampler(0, 1.1), std::invalid_argument);
}

TEST(Workload, RandomPoolIsDistinct) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  util::Rng rng(29);
  const std::vector<space::Architecture> pool =
      random_architecture_pool(space, 256, rng);
  EXPECT_EQ(pool.size(), 256u);
  std::unordered_set<std::uint64_t> fingerprints;
  for (const space::Architecture& arch : pool) {
    fingerprints.insert(arch.fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), pool.size());
}

// The pool dedups on fingerprints; it must draw the same members, in the
// same order, as a dedup on full architecture copies.
TEST(Workload, RandomPoolMatchesFullCopyDedup) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t count : {64u, 4096u}) {
      util::Rng rng(seed);
      const std::vector<space::Architecture> pool =
          random_architecture_pool(space, count, rng);

      util::Rng reference_rng(seed);
      std::vector<space::Architecture> reference;
      std::unordered_set<space::Architecture> seen;
      while (reference.size() < count) {
        space::Architecture arch = space.random_architecture(reference_rng);
        if (seen.insert(arch).second) reference.push_back(std::move(arch));
      }
      EXPECT_EQ(pool, reference) << "seed " << seed << ", count " << count;
      EXPECT_EQ(std::unordered_set<space::Architecture>(pool.begin(),
                                                         pool.end())
                    .size(),
                count);
    }
  }
}

}  // namespace
}  // namespace lightnas::serve
