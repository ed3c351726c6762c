#include "predictors/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/stats.hpp"

namespace lightnas::predictors {

std::pair<MeasurementDataset, MeasurementDataset> MeasurementDataset::split(
    double first_fraction, util::Rng& rng) const {
  assert(first_fraction > 0.0 && first_fraction < 1.0);
  const auto n_first = static_cast<std::size_t>(
      first_fraction * static_cast<double>(size()));
  const std::vector<std::size_t> order = rng.permutation(size());

  MeasurementDataset first, second;
  for (std::size_t i = 0; i < order.size(); ++i) {
    MeasurementDataset& dst = (i < n_first) ? first : second;
    dst.architectures.push_back(architectures[order[i]]);
    dst.targets.push_back(targets[order[i]]);
  }
  return {std::move(first), std::move(second)};
}

namespace {

/// Architecture whose layers favour `bias_op` with probability
/// `strength`, falling back to uniform otherwise.
space::Architecture biased_architecture(const space::SearchSpace& space,
                                        std::size_t bias_op,
                                        double strength, util::Rng& rng) {
  space::Architecture arch = space.random_architecture(rng);
  for (std::size_t l = 0; l < space.num_layers(); ++l) {
    if (space.layers()[l].searchable && rng.bernoulli(strength)) {
      arch.set_op(l, bias_op);
    }
  }
  return arch;
}

}  // namespace

MeasurementDataset build_measurement_dataset(
    const space::SearchSpace& space, hw::HardwareSimulator& device,
    std::size_t count, Metric metric, util::Rng& rng,
    double biased_fraction) {
  assert(biased_fraction >= 0.0 && biased_fraction <= 1.0);
  MeasurementDataset data;
  data.architectures.reserve(count);
  data.targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    space::Architecture arch =
        rng.bernoulli(biased_fraction)
            ? biased_architecture(
                  space,
                  static_cast<std::size_t>(
                      rng.uniform_index(space.num_ops())),
                  rng.uniform(0.3, 0.95), rng)
            : space.random_architecture(rng);
    const double value = (metric == Metric::kLatencyMs)
                             ? device.measure_latency_ms(space, arch)
                             : device.measure_energy_mj(space, arch);
    data.architectures.push_back(std::move(arch));
    data.targets.push_back(value);
  }
  return data;
}

double CampaignReport::attempt_failure_rate() const {
  if (attempts == 0) return 0.0;
  return static_cast<double>(transient_failures + timeouts) /
         static_cast<double>(attempts);
}

std::string CampaignReport::to_string() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "campaign: %zu/%zu samples kept (%zu dropped), %zu attempts "
      "(%zu retries, %zu transient failures, %zu timeouts), "
      "%zu outlier repeats rejected, failure rate %.2f%%, "
      "simulated wall clock %.0f s",
      kept_samples, requested_samples, dropped_samples, attempts, retries,
      transient_failures, timeouts, rejected_outliers,
      attempt_failure_rate() * 100.0, simulated_wall_clock_s);
  return buf;
}

namespace {

/// Median-of-survivors after scaled-MAD rejection. `report` counts the
/// rejected repeats.
double robust_aggregate(std::vector<double> values, double mad_threshold,
                        CampaignReport& report) {
  const double med = util::median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::abs(v - med));
  // 1.4826 scales the MAD to the stddev of a normal distribution.
  const double mad_sigma = 1.4826 * util::median(deviations);
  if (mad_sigma <= 0.0) return med;  // all repeats (near-)identical
  std::vector<double> kept;
  kept.reserve(values.size());
  for (double v : values) {
    if (std::abs(v - med) / mad_sigma <= mad_threshold) {
      kept.push_back(v);
    } else {
      ++report.rejected_outliers;
    }
  }
  return kept.empty() ? med : util::median(kept);
}

}  // namespace

MeasurementDataset build_robust_measurement_dataset(
    const space::SearchSpace& space, hw::HardwareSimulator& device,
    std::size_t count, Metric metric, util::Rng& rng,
    const RobustCampaignConfig& config, CampaignReport* report,
    double biased_fraction) {
  if (config.repeats == 0) {
    throw std::invalid_argument(
        "build_robust_measurement_dataset: repeats must be > 0");
  }
  if (config.min_good_repeats == 0 ||
      config.min_good_repeats > config.repeats) {
    throw std::invalid_argument(
        "build_robust_measurement_dataset: min_good_repeats must be in "
        "[1, repeats]");
  }
  CampaignReport local;
  local.requested_samples = count;

  MeasurementDataset data;
  data.architectures.reserve(count);
  data.targets.reserve(count);

  for (std::size_t i = 0; i < count; ++i) {
    if (config.recalibrate_every > 0 &&
        i % config.recalibrate_every == 0) {
      device.recalibrate();
    }
    space::Architecture arch =
        rng.bernoulli(biased_fraction)
            ? biased_architecture(
                  space,
                  static_cast<std::size_t>(
                      rng.uniform_index(space.num_ops())),
                  rng.uniform(0.3, 0.95), rng)
            : space.random_architecture(rng);

    std::vector<double> repeats;
    repeats.reserve(config.repeats);
    std::size_t consecutive_failures = 0;
    std::size_t retries_left = config.max_retries;
    while (repeats.size() < config.repeats) {
      const hw::Measurement m =
          (metric == Metric::kLatencyMs)
              ? device.try_measure_latency_ms(space, arch)
              : device.try_measure_energy_mj(space, arch);
      ++local.attempts;
      local.simulated_wall_clock_s += config.measurement_s;
      if (m.ok()) {
        repeats.push_back(m.value);
        consecutive_failures = 0;
        continue;
      }
      if (m.status == hw::MeasurementStatus::kTimeout) {
        ++local.timeouts;
        local.simulated_wall_clock_s += config.timeout_s;
      } else {
        ++local.transient_failures;
      }
      if (retries_left == 0) break;
      --retries_left;
      ++local.retries;
      // Capped exponential backoff before the retry (simulated time).
      local.simulated_wall_clock_s += std::min(
          config.backoff_cap_s,
          config.backoff_base_s *
              static_cast<double>(1ULL << std::min<std::size_t>(
                                      consecutive_failures, 10)));
      ++consecutive_failures;
    }

    if (repeats.size() < config.min_good_repeats) {
      ++local.dropped_samples;
      continue;
    }
    const double value =
        robust_aggregate(std::move(repeats), config.mad_threshold, local);
    data.architectures.push_back(std::move(arch));
    data.targets.push_back(value);
    ++local.kept_samples;
  }

  if (report != nullptr) *report = local;
  return data;
}

}  // namespace lightnas::predictors
