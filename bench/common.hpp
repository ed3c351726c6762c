#pragma once

#include <cstdlib>
#include <memory>
#include <string>

#include "hw/simulator.hpp"
#include "io/json.hpp"
#include "predictors/mlp_predictor.hpp"
#include "space/search_space.hpp"

namespace lightnas::bench {

/// Scale knob for the experiment binaries: LIGHTNAS_FAST=1 in the
/// environment shrinks measurement campaigns and search budgets by ~4x
/// for smoke runs. Default is full scale (the paper's settings, scaled
/// to the simulated substrate).
bool fast_mode();

/// count / divisor, at least `floor`, honouring fast mode.
std::size_t scaled(std::size_t full, std::size_t fast);

/// Standard pipeline front end shared by the experiment binaries:
/// the canonical search space and a simulated Jetson AGX Xavier
/// (MAXN, batch 8 — Sec 4's measurement protocol).
struct Pipeline {
  space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  hw::HardwareSimulator device{hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               42};

  const hw::CostModel& cost() const { return device.model(); }
};

/// Run the Sec-3.2 measurement campaign and train the MLP predictor.
/// `samples`/`epochs` default to the paper's 10,000-architecture
/// campaign (reduced under fast mode).
std::unique_ptr<predictors::MlpPredictor> train_latency_predictor(
    Pipeline& pipeline, std::size_t samples = 0, std::size_t epochs = 0,
    std::uint64_t seed = 1);

/// Same campaign against the energy meter (Sec 4.3).
std::unique_ptr<predictors::MlpPredictor> train_energy_predictor(
    Pipeline& pipeline, std::size_t samples = 0, std::size_t epochs = 0,
    std::uint64_t seed = 2);

/// Print the standard bench banner.
void banner(const std::string& title, const std::string& paper_artifact);

/// Merge `section` into the JSON object at `path` under `key`,
/// preserving other top-level keys (so several benches can share one
/// trajectory file, e.g. serving_throughput and serve_resilience both
/// writing BENCH_serve.json). An unreadable/corrupt existing file is
/// replaced rather than fatal.
void update_bench_json(const std::string& path, const std::string& key,
                       const io::Json& section);

/// A timed reading for a BENCH section: `value` when the run measured
/// it, else null. Smoke runs skip the timed legs, and a 0 there would
/// read as a measurement. Sections carry "measured" alongside.
io::Json reading(bool measured, double value);

}  // namespace lightnas::bench
