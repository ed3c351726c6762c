// Serve-resilience campaign: the chaos-tested SLO gate for the
// prediction service.
//
// The serving counterpart of bench/fault_tolerance: where that campaign
// injects faults into the *measurement* path and checks the predictor
// survives, this one injects fault storms into the *serving* backend
// (transients, hangs, drift via serve::FaultyOracle — the hw::FaultSpec
// vocabulary) and checks the service degrades instead of wedging.
//
// Gates:
//   1. identity   — with every resilience feature disabled, answers are
//                   bit-identical to direct predictor calls (the PR 2
//                   contract is untouched);
//   2. parity     — arming deadlines + breaker + fallback on a *clean*
//                   backend keeps closed-loop throughput within noise
//                   of the plain service (median over interleaved
//                   plain/armed pairs) and resolves everything;
//   3. storm SLO  — under an injected fault storm, >= 99% of requests
//                   resolve (value or typed error) within deadline +
//                   grace, client p99 wait stays bounded, and the
//                   breaker opens;
//   4. recovery   — once the storm stops, the breaker closes again and
//                   answers return to bit-exact fresh predictions;
//   5. liveness   — the whole campaign finishes under a hard watchdog
//                   timeout (a deadlock exits 3 instead of hanging CI).
//
// Results are also emitted machine-readably into BENCH_serve.json
// (section "resilience"; serving_throughput owns section "throughput").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "predictors/oracle.hpp"
#include "serve/resilience.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/table.hpp"

using namespace lightnas;
using namespace std::chrono_literals;

namespace {

struct Gate {
  const char* name;
  bool pass;
  std::string detail;
};

void print_gates(const std::vector<Gate>& gates) {
  util::Table table({"gate", "status", "detail"});
  for (const Gate& gate : gates) {
    table.add_row({gate.name, gate.pass ? "OK" : "FAIL", gate.detail});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  smoke = smoke || bench::fast_mode();

  bench::banner("serve_resilience",
                "overload/failure SLO gate for the prediction service "
                "(chaos-testing counterpart of fault_tolerance)");

  // Liveness gate: the campaign must finish; a deadlocked service turns
  // into a loud exit instead of a hung CI job.
  std::atomic<bool> done{false};
  const int liveness_budget_s = smoke ? 300 : 1200;
  std::thread([&done, liveness_budget_s] {
    for (int i = 0; i < liveness_budget_s * 10; ++i) {
      std::this_thread::sleep_for(100ms);
      if (done.load(std::memory_order_relaxed)) return;
    }
    std::fprintf(stderr,
                 "\nLIVENESS FAIL: serve_resilience still running after "
                 "%d s — presumed deadlock\n",
                 liveness_budget_s);
    std::_Exit(3);
  }).detach();

  bench::Pipeline pipeline;
  const auto predictor = bench::train_latency_predictor(
      pipeline, smoke ? 800 : 2500, smoke ? 30 : 60);

  util::Rng pool_rng(123);
  const std::vector<space::Architecture> pool =
      serve::random_architecture_pool(pipeline.space, smoke ? 512 : 2048,
                                      pool_rng);
  const serve::ZipfSampler zipf(pool.size(), 1.1);

  std::vector<Gate> gates;

  // --- Gate 1: bit-identity with resilience disabled -------------------
  serve::ServiceConfig plain;
  plain.num_workers = 2;
  plain.max_batch = 16;
  plain.queue_capacity = 128;
  {
    serve::PredictionService service(*predictor, plain);
    util::Rng rng(7);
    std::size_t mismatches = 0;
    const std::size_t checks = smoke ? 400 : 2000;
    for (std::size_t i = 0; i < checks; ++i) {
      const space::Architecture& arch = pool[zipf.sample(rng)];
      if (service.predict(arch) != predictor->predict(arch)) ++mismatches;
    }
    gates.push_back({"identity (resilience off)", mismatches == 0,
                     std::to_string(checks - mismatches) + "/" +
                         std::to_string(checks) + " bit-exact"});
  }

  // --- Gate 2: clean-path parity with resilience armed ------------------
  const std::vector<space::Architecture> calibration(
      pool.begin(), pool.begin() + std::min<std::size_t>(pool.size(), 128));
  const predictors::FlopsProxyOracle proxy =
      predictors::FlopsProxyOracle::calibrated(pipeline.space, *predictor,
                                               calibration);

  const auto armed_config = [&proxy](bool with_watchdog) {
    serve::ServiceConfig config;
    config.num_workers = 2;
    config.max_batch = 16;
    config.queue_capacity = 64;
    config.default_deadline = 250ms;
    config.overflow = serve::OverflowPolicy::kShedOldest;
    config.cache_ttl = 150ms;
    config.breaker.enabled = true;
    config.breaker.window = 16;
    config.breaker.min_samples = 6;
    config.breaker.failure_threshold = 0.5;
    config.breaker.cooldown = 100ms;
    config.breaker.half_open_probes = 3;
    config.fallback_oracle = &proxy;
    if (with_watchdog) config.worker_stall_timeout = 500ms;
    return config;
  };

  // One closed-loop run is a few milliseconds, so a single armed/plain
  // ratio is at the mercy of the scheduler (single pairs read 0.39x-1.53x
  // beside a parallel ctest, medians 0.80x-1.00x).
  // Gate on the median over interleaved pairs, each on fresh services
  // with the same load, alternating which side runs first.
  constexpr std::size_t kParityPairs = 9;
  const std::size_t parity_requests = smoke ? 250 : 2000;
  double parity = 0.0;
  double plain_qps = 0.0;
  {
    std::vector<double> plain_runs;
    std::vector<double> ratios;
    double worst_resolved = 1.0;
    const auto run_plain = [&] {
      serve::PredictionService service(*predictor, plain);
      return serve::run_closed_loop(service, pool, zipf, 8, parity_requests,
                                    /*seed=*/31)
          .qps();
    };
    const auto run_armed = [&] {
      serve::PredictionService service(*predictor, armed_config(false));
      const serve::ResilientLoadResult load = serve::run_resilient_closed_loop(
          service, pool, zipf, 8, parity_requests, /*seed=*/31, 1000ms);
      worst_resolved = std::min(worst_resolved, load.resolved_ratio());
      return load.qps();
    };
    for (std::size_t p = 0; p < kParityPairs; ++p) {
      double plain_run = 0.0;
      double armed_run = 0.0;
      if (p % 2 == 0) {
        plain_run = run_plain();
        armed_run = run_armed();
      } else {
        armed_run = run_armed();
        plain_run = run_plain();
      }
      plain_runs.push_back(plain_run);
      ratios.push_back(plain_run > 0.0 ? armed_run / plain_run : 0.0);
    }
    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    parity = median(ratios);
    plain_qps = median(plain_runs);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "median %.2fx of %zu pairs (%.2f-%.2fx), resolved %.4f",
                  parity, kParityPairs, *lo, *hi, worst_resolved);
    gates.push_back(
        {"clean-path parity (armed)",
         parity >= 0.5 && worst_resolved >= 0.999, detail});
  }

  // --- Gate 3: fault storm ---------------------------------------------
  serve::OracleFaultConfig storm_spec;
  storm_spec.spec.transient_failure_prob = 0.30;
  storm_spec.spec.hang_prob = 0.05;
  storm_spec.spec.drift_per_measurement = 1e-3;
  storm_spec.spec.outlier_prob = 0.05;
  storm_spec.hang_duration = 20ms;
  serve::FaultyOracle faulty(*predictor, storm_spec);

  serve::PredictionService service(faulty, armed_config(true));
  const auto deadline = service.config().default_deadline;
  const auto wait_budget = deadline + 250ms;

  // Warm the cache (and the breaker window) on clean traffic first —
  // the stale tier can only serve what was once computed.
  serve::run_resilient_closed_loop(service, pool, zipf, 4, smoke ? 100 : 400,
                                   /*seed=*/47, 2000ms);

  faulty.set_storm(true);
  const serve::ResilientLoadResult storm = serve::run_resilient_closed_loop(
      service, pool, zipf, 8, smoke ? 150 : 1000, /*seed=*/53, wait_budget);
  faulty.set_storm(false);
  const serve::ServiceStats storm_stats = service.stats();

  {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "resolved %.4f (%zu values, %zu typed, %zu unresolved)",
                  storm.resolved_ratio(), storm.values, storm.typed_errors,
                  storm.unresolved);
    gates.push_back(
        {"storm SLO (>=99% resolved)", storm.resolved_ratio() >= 0.99,
         detail});
    const double budget_us =
        std::chrono::duration<double, std::micro>(wait_budget).count();
    std::snprintf(detail, sizeof(detail), "p99 wait %.0f us (budget %.0f us)",
                  storm.wait_us.p99, budget_us);
    gates.push_back(
        {"storm p99 bounded", storm.wait_us.p99 <= budget_us * 1.25, detail});
    std::snprintf(detail, sizeof(detail),
                  "opens=%llu stale=%llu proxy=%llu shed=%llu expired=%llu",
                  static_cast<unsigned long long>(storm_stats.breaker_opens),
                  static_cast<unsigned long long>(storm_stats.degraded_stale),
                  static_cast<unsigned long long>(storm_stats.degraded_proxy),
                  static_cast<unsigned long long>(storm_stats.shed),
                  static_cast<unsigned long long>(storm_stats.expired));
    gates.push_back(
        {"breaker opened under storm", storm_stats.breaker_opens >= 1,
         detail});
  }

  // --- Gate 4: recovery -------------------------------------------------
  bool recovered = false;
  for (int round = 0; round < 40 && !recovered; ++round) {
    serve::run_resilient_closed_loop(service, pool, zipf, 2, 50,
                                     /*seed=*/61 + round, 2000ms);
    recovered =
        service.stats().breaker_state == serve::BreakerState::kClosed;
    if (!recovered) std::this_thread::sleep_for(50ms);
  }
  // Let every storm-era cache entry age out, then answers must be fresh
  // and bit-exact again (the TTL is the revalidation mechanism).
  std::this_thread::sleep_for(service.config().cache_ttl + 50ms);
  std::size_t fresh_mismatches = 0;
  util::Rng recovery_rng(71);
  for (int i = 0; i < 50; ++i) {
    const space::Architecture& arch = pool[zipf.sample(recovery_rng)];
    if (service.predict(arch) != predictor->predict(arch)) ++fresh_mismatches;
  }
  gates.push_back({"breaker recovered to closed", recovered,
                   std::string("final state: ") +
                       serve::to_string(service.stats().breaker_state)});
  gates.push_back({"post-storm answers bit-exact", fresh_mismatches == 0,
                   std::to_string(50 - fresh_mismatches) + "/50 fresh"});

  const serve::ServiceStats final_stats = service.stats();
  service.shutdown();

  std::printf("\n");
  print_gates(gates);
  std::printf("\nstorm service stats: %s\n", final_stats.to_string().c_str());

  bool all_pass = true;
  for (const Gate& gate : gates) all_pass = all_pass && gate.pass;

  // --- machine-readable summary ----------------------------------------
  {
    io::Json out = io::Json::object();
    out.set("smoke", io::Json(smoke));
    out.set("plain_qps", io::Json(plain_qps));
    out.set("parity_median", io::Json(parity));
    out.set("storm_resolved_ratio", io::Json(storm.resolved_ratio()));
    out.set("storm_values", io::Json(storm.values));
    out.set("storm_typed_errors", io::Json(storm.typed_errors));
    out.set("storm_unresolved", io::Json(storm.unresolved));
    out.set("storm_p99_wait_us", io::Json(storm.wait_us.p99));
    out.set("storm_qps", io::Json(storm.qps()));
    out.set("breaker_opens",
            io::Json(static_cast<std::size_t>(final_stats.breaker_opens)));
    out.set("shed", io::Json(static_cast<std::size_t>(final_stats.shed)));
    out.set("expired",
            io::Json(static_cast<std::size_t>(final_stats.expired)));
    out.set("degraded_stale",
            io::Json(static_cast<std::size_t>(final_stats.degraded_stale)));
    out.set("degraded_proxy",
            io::Json(static_cast<std::size_t>(final_stats.degraded_proxy)));
    out.set("oracle_failures",
            io::Json(static_cast<std::size_t>(final_stats.oracle_failures)));
    out.set("worker_respawns",
            io::Json(static_cast<std::size_t>(final_stats.worker_respawns)));
    out.set("deadline_hit_ratio",
            io::Json(final_stats.deadline_hit_ratio()));
    out.set("recovered", io::Json(recovered));
    out.set("all_gates_pass", io::Json(all_pass));
    bench::update_bench_json("BENCH_serve.json", "resilience", out);
    std::printf("updated BENCH_serve.json (section: resilience)\n");
  }

  done.store(true, std::memory_order_relaxed);
  if (!all_pass) {
    std::printf("\nFAIL: one or more resilience gates failed\n");
    return 1;
  }
  std::printf("\nAll resilience gates passed.\n");
  return 0;
}
