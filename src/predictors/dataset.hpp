#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hw/simulator.hpp"
#include "space/architecture.hpp"
#include "space/search_space.hpp"
#include "util/rng.hpp"

namespace lightnas::predictors {

/// Which hardware metric a predictor is trained to estimate. The paper
/// demonstrates latency (Sec 3.2) and energy (Sec 4.3); the predictor
/// machinery is metric-agnostic by design ("generalizable to other
/// hardware metrics").
enum class Metric { kLatencyMs, kEnergyMj };

/// (architecture, measurement) pairs. The predictor's input, the
/// flattened L*K one-hot of Eq (4), follows from each architecture's op
/// bytes, so it is never stored: predictors write it straight into the
/// tensor that reads it (Architecture::encode_one_hot_into).
struct MeasurementDataset {
  std::vector<space::Architecture> architectures;
  std::vector<double> targets;

  std::size_t size() const { return targets.size(); }

  /// Seeded shuffle + split, e.g. 80/20 as in the paper.
  std::pair<MeasurementDataset, MeasurementDataset> split(
      double first_fraction, util::Rng& rng) const;
};

/// Sample `count` architectures and measure each once on the (noisy)
/// simulated device. This mirrors the paper's campaign of 10,000
/// on-device measurements.
///
/// `biased_fraction` of the samples are drawn from per-architecture
/// biased op distributions (each biased arch favours one random operator
/// with random strength) instead of uniformly. Pure uniform sampling
/// concentrates around the space's mean cost and leaves the tails — the
/// very fast and very slow architectures a constrained search targets —
/// out of distribution; stratified enrichment is standard practice in
/// predictor-based NAS campaigns.
MeasurementDataset build_measurement_dataset(
    const space::SearchSpace& space, hw::HardwareSimulator& device,
    std::size_t count, Metric metric, util::Rng& rng,
    double biased_fraction = 0.3);

/// Per-sample robustness policy for a campaign against a faulty device.
struct RobustCampaignConfig {
  /// Target number of good repeats per architecture; the sample's value
  /// is the median of the surviving repeats.
  std::size_t repeats = 5;
  /// Extra attempts allowed per sample after failures/timeouts before
  /// the sample is dropped.
  std::size_t max_retries = 4;
  /// Simulated per-attempt cost accounting: a retry backs off
  /// backoff_base_s * 2^k seconds, capped at backoff_cap_s; a hung
  /// measurement burns timeout_s. Only the report's simulated wall-clock
  /// uses these — nothing actually sleeps.
  double backoff_base_s = 0.5;
  double backoff_cap_s = 8.0;
  double timeout_s = 30.0;
  double measurement_s = 0.2;
  /// Repeats farther than this many (scaled) MADs from the median are
  /// rejected as outliers. 3.5 is the standard robust-z cutoff.
  double mad_threshold = 3.5;
  /// Minimum surviving repeats for the sample to be kept.
  std::size_t min_good_repeats = 3;
  /// Recalibrate the device (reset drift) every N samples; 0 disables.
  std::size_t recalibrate_every = 250;
};

/// What happened during a (robust) campaign — the numbers a production
/// run reports next to the dataset artifact.
struct CampaignReport {
  std::size_t requested_samples = 0;
  std::size_t kept_samples = 0;
  std::size_t dropped_samples = 0;   ///< retry budget exhausted
  std::size_t attempts = 0;          ///< every measurement attempt
  std::size_t retries = 0;           ///< attempts beyond the first per repeat
  std::size_t transient_failures = 0;
  std::size_t timeouts = 0;
  std::size_t rejected_outliers = 0; ///< repeats discarded by MAD rejection
  double simulated_wall_clock_s = 0.0;

  /// Fraction of attempts that produced no value.
  double attempt_failure_rate() const;
  std::string to_string() const;
};

/// Fault-tolerant variant of `build_measurement_dataset`: each sampled
/// architecture is measured `config.repeats` times through the device's
/// fault-aware API with per-attempt retry + capped exponential backoff,
/// the surviving repeats are MAD-filtered, and the sample's target is
/// their median. Samples whose retry budget is exhausted are dropped
/// (never silently recorded as NaN/garbage). `report`, when non-null,
/// receives the campaign telemetry.
MeasurementDataset build_robust_measurement_dataset(
    const space::SearchSpace& space, hw::HardwareSimulator& device,
    std::size_t count, Metric metric, util::Rng& rng,
    const RobustCampaignConfig& config = {},
    CampaignReport* report = nullptr, double biased_fraction = 0.3);

}  // namespace lightnas::predictors
