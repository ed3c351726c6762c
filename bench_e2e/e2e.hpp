#pragma once

// Shared pieces of the search_e2e benchmark: clocks and statistics, the
// result fingerprint, the report every workload fills in, the in-memory
// span recorder, and the workload entry points.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "nn/data.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "nn/tensor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "space/search_space.hpp"

namespace lightnas::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
/// Empty input yields nullopt.
std::optional<double> quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

// --------------------------------------------------------- fingerprints

/// FNV-1a over the exact bits of what a run produced. Two runs that agree
/// on every fed value agree on the hash; a single flipped float bit does
/// not.
class Fingerprint {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  void add_float(float v);
  void add_tensor(const nn::Tensor& t);
  void add_doubles(const std::vector<double>& values);
  void add_ops(const std::vector<std::size_t>& ops);
  std::uint64_t value() const { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

// --------------------------------------------------------------- report

/// One named reading. `value` is null when the metric does not apply to
/// the workload or the run is not a measurement (smoke).
struct Metric {
  std::string unit;
  std::optional<double> value;
  std::size_t n = 0;
};

/// The metric catalogue, bench_e2e/metrics.json: every name a report
/// carries, its unit, the workloads that measure it and the workloads
/// that never call its layer. Bounds and directions in the same file are
/// read by the Python tools only.
struct Catalogue {
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<std::string> on;
    std::vector<std::string> idle;
  };
  /// Units read off the clock: times and rates.
  std::vector<std::string> timing_units;
  std::vector<Entry> end_to_end;
  std::vector<Entry> per_layer;

  static Catalogue load(const std::string& path);
};

/// Everything one workload process reports: end-to-end metrics, per-layer
/// metrics (traced runs), correctness checks, attempt counts, and the
/// result fingerprints that later runs are compared against.
class Report {
 public:
  /// An unmeasured (smoke) report stores readings in `timing_units` as
  /// null.
  Report(bool measured, std::vector<std::string> timing_units)
      : measured_(measured), timing_units_(std::move(timing_units)) {}

  bool measured() const { return measured_; }

  /// Record an end-to-end / per-layer metric. Timing readings of an
  /// unmeasured (smoke) run are stored as null.
  void metric(const std::string& name, const std::string& unit,
              std::optional<double> value, std::size_t n = 1);
  void layer(const std::string& name, const std::string& unit,
             std::optional<double> value, std::size_t n = 1);

  void check(const std::string& name, bool ok, const std::string& detail);
  void attempts(std::size_t attempted, std::size_t failed);
  void fingerprint(const std::string& key, std::uint64_t value);
  void note(const std::string& key, io::Json value);

  bool correct() const;
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, Metric>& layers() const { return layers_; }

  io::Json to_json() const;

 private:
  void put(std::map<std::string, Metric>& into, const std::string& name,
           const std::string& unit, std::optional<double> value,
           std::size_t n) const;

  bool measured_;
  std::vector<std::string> timing_units_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> layers_;
  struct CheckResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<CheckResult> checks_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::uint64_t> fingerprints_;
  std::map<std::string, io::Json> notes_;
};

/// Snapshot of the process-wide tensor-pool and plan counters.
struct NnCounters {
  nn::PoolStats pool;
  nn::plan::PlanStats plan;
};
NnCounters nn_counters();

/// Report the nn.* layer metrics for the work done since `start`. A hit
/// ratio with no lookups is null.
void report_nn_layers(Report& report, const NnCounters& start);

// -------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// code around calls into the library's layers; each thread appends to
/// its own buffer, and parents are recovered at the end by time
/// containment on the same thread. Disabled (the default), a ScopedSpan
/// reads one atomic flag and records nothing.
namespace trace {

void enable(bool on);
bool enabled();

/// Record a finished span [start, end] on the calling thread.
void record(const char* name, Clock::time_point start, Clock::time_point end);

/// Discard every recorded span (between the legs of a traced run).
void clear();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(enabled() ? name : nullptr),
        start_(name_ != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (name_ != nullptr) record(name_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Clock::time_point start_;
};

/// Per-name aggregate of the recorded spans.
struct SpanStats {
  std::size_t count = 0;
  double total_s = 0.0;
  /// Duration minus the part covered by child spans on the same thread.
  double self_s = 0.0;
  std::vector<double> durations_s;
};

/// Fold the recorded spans by name (parents resolved by containment).
std::map<std::string, SpanStats> fold();

/// Write the recorded spans as Chrome trace-event JSON (loads in
/// Perfetto / chrome://tracing). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path);

/// Spans dropped because a thread's buffer was full.
std::size_t dropped();

}  // namespace trace

// -------------------------------------------------------------- set-up

/// What every workload is built on: the canonical search space, the
/// trained latency predictor, and (search workloads) the synthetic task.
struct Setup {
  space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  std::unique_ptr<predictors::MlpPredictor> predictor;
  nn::SyntheticTask task;
};

/// Scale of one invocation.
struct RunOptions {
  std::uint64_t seed = 1;
  /// Measured time of a serve workload's ladder. The search workloads
  /// time a fixed number of runs instead.
  double seconds = 15.0;
  bool smoke = false;
  bool traced = false;
  /// Lanes available to the run (min(4, nproc)).
  std::size_t lanes = 1;
  /// Directory for checkpoint files (created and removed by the run).
  std::string scratch_dir;
};

/// Result fingerprints recorded in the committed baseline, keyed like
/// Report::fingerprint keys. Empty when no baseline was given.
using BaselineFingerprints = std::map<std::string, std::uint64_t>;

/// Compare `key`'s fingerprint against the baseline (when the baseline
/// has one) and record it in the report.
void check_fingerprint(Report& report, const BaselineFingerprints& baseline,
                       const std::string& key, std::uint64_t value);

// ----------------------------------------------------------- workloads

void run_search_paper(const RunOptions& options, const Setup& setup,
                      const BaselineFingerprints& baseline, Report& report);
void run_campaign_k8(const RunOptions& options, const Setup& setup,
                     const BaselineFingerprints& baseline, Report& report);

struct ServeProfile {
  /// Distinct architectures in the request universe.
  std::size_t universe;
  /// Zipf exponent; 0 draws uniformly.
  double zipf_s;
  /// Offered rates of the ladder (q/s), ascending; `nominal` indexes the
  /// rung whose latencies are the headline metrics.
  std::vector<double> rates;
  std::size_t nominal;
};

ServeProfile serve_zipf_profile(bool smoke);
ServeProfile serve_cold_profile(bool smoke);

void run_serve(const RunOptions& options, const ServeProfile& profile,
               const Setup& setup, Report& report);

}  // namespace lightnas::e2e
