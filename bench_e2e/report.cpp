#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "e2e.hpp"

namespace lightnas::e2e {

std::optional<double> quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------- fingerprints

void Fingerprint::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add_u64(std::uint64_t v) { add_bytes(&v, sizeof v); }

void Fingerprint::add_double(double v) { add_bytes(&v, sizeof v); }

void Fingerprint::add_float(float v) { add_bytes(&v, sizeof v); }

void Fingerprint::add_tensor(const nn::Tensor& t) {
  add_u64(t.rows());
  add_u64(t.cols());
  for (std::size_t i = 0; i < t.size(); ++i) add_float(t[i]);
}

void Fingerprint::add_doubles(const std::vector<double>& values) {
  add_u64(values.size());
  for (const double v : values) add_double(v);
}

void Fingerprint::add_ops(const std::vector<std::size_t>& ops) {
  add_u64(ops.size());
  for (const std::size_t op : ops) add_u64(op);
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --------------------------------------------------------------- report

namespace {

std::vector<std::string> strings_of(const io::Json& array) {
  std::vector<std::string> out;
  for (const io::Json& s : array.as_array()) out.push_back(s.as_string());
  return out;
}

std::vector<Catalogue::Entry> entries_of(const io::Json& array) {
  std::vector<Catalogue::Entry> out;
  for (const io::Json& e : array.as_array()) {
    out.push_back({e.at("name").as_string(), e.at("unit").as_string(),
                   strings_of(e.at("on")),
                   e.contains("idle") ? strings_of(e.at("idle"))
                                      : std::vector<std::string>{}});
  }
  return out;
}

}  // namespace

Catalogue Catalogue::load(const std::string& path) {
  const io::Json doc = io::read_json_file(path);
  Catalogue c;
  c.timing_units = strings_of(doc.at("timing_units"));
  c.end_to_end = entries_of(doc.at("end_to_end"));
  c.per_layer = entries_of(doc.at("per_layer"));
  return c;
}

void Report::put(std::map<std::string, Metric>& into, const std::string& name,
                 const std::string& unit, std::optional<double> value,
                 std::size_t n) const {
  const bool timing = std::find(timing_units_.begin(), timing_units_.end(),
                                unit) != timing_units_.end();
  Metric& m = into[name];
  m.unit = unit;
  m.value = (!measured_ && timing) ? std::nullopt : value;
  if (m.value && !std::isfinite(*m.value)) m.value.reset();
  m.n = m.value ? n : 0;
}

void Report::metric(const std::string& name, const std::string& unit,
                    std::optional<double> value, std::size_t n) {
  put(metrics_, name, unit, value, n);
}

void Report::layer(const std::string& name, const std::string& unit,
                   std::optional<double> value, std::size_t n) {
  put(layers_, name, unit, value, n);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "check %-34s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Report::attempts(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fingerprint(const std::string& key, std::uint64_t value) {
  fingerprints_[key] = value;
}

void Report::note(const std::string& key, io::Json value) {
  notes_[key] = std::move(value);
}

bool Report::correct() const {
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return failed_ == 0;
}

namespace {

io::Json metrics_to_json(const std::map<std::string, Metric>& metrics) {
  io::Json out = io::Json::object();
  for (const auto& [name, m] : metrics) {
    io::Json entry = io::Json::object();
    entry.set("unit", io::Json(m.unit));
    entry.set("value", m.value ? io::Json(*m.value) : io::Json());
    entry.set("n", io::Json(m.n));
    out.set(name, std::move(entry));
  }
  return out;
}

}  // namespace

io::Json Report::to_json() const {
  io::Json out = io::Json::object();
  out.set("measured", io::Json(measured_));
  out.set("correct", io::Json(correct()));
  out.set("attempted", io::Json(attempted_));
  out.set("failed", io::Json(failed_));
  out.set("metrics", metrics_to_json(metrics_));
  out.set("layers", metrics_to_json(layers_));
  io::Json checks = io::Json::array();
  for (const CheckResult& c : checks_) {
    io::Json entry = io::Json::object();
    entry.set("name", io::Json(c.name));
    entry.set("ok", io::Json(c.ok));
    entry.set("detail", io::Json(c.detail));
    checks.push_back(std::move(entry));
  }
  out.set("checks", std::move(checks));
  io::Json prints = io::Json::object();
  for (const auto& [key, value] : fingerprints_) {
    prints.set(key, io::Json(hex64(value)));
  }
  out.set("fingerprints", std::move(prints));
  for (const auto& [key, value] : notes_) out.set(key, value);
  return out;
}

NnCounters nn_counters() {
  return {nn::TensorPool::global_stats(), nn::plan::global_stats()};
}

void report_nn_layers(Report& report, const NnCounters& start) {
  const NnCounters now = nn_counters();
  const nn::PoolStats pool = now.pool - start.pool;
  const nn::plan::PlanStats plan = now.plan - start.plan;
  const auto ratio = [](std::uint64_t hits,
                        std::uint64_t misses) -> std::optional<double> {
    if (hits + misses == 0) return std::nullopt;
    return static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  report.layer("nn.pool.hit_ratio", "fraction",
               ratio(pool.buffer_hits, pool.buffer_misses),
               pool.buffer_hits + pool.buffer_misses);
  report.layer("nn.pool.misses", "count",
               static_cast<double>(pool.buffer_misses));
  report.layer("nn.tape.hits", "count", static_cast<double>(pool.tape_hits));
  report.layer("nn.tape.hit_ratio", "fraction",
               ratio(pool.tape_hits, pool.tape_misses),
               pool.tape_hits + pool.tape_misses);
  report.layer("nn.plan.hits", "count", static_cast<double>(plan.hits));
  report.layer("nn.plan.hit_ratio", "fraction", ratio(plan.hits, plan.misses),
               plan.hits + plan.misses);
  report.layer("nn.plan.compiles", "count", static_cast<double>(plan.compiles));
}

void check_fingerprint(Report& report, const BaselineFingerprints& baseline,
                       const std::string& key, std::uint64_t value) {
  report.fingerprint(key, value);
  const auto it = baseline.find(key);
  if (it == baseline.end()) return;
  report.check("fingerprint " + key, it->second == value,
               hex64(value) + (it->second == value ? " == " : " != ") +
                   "baseline " + hex64(it->second));
}

}  // namespace lightnas::e2e
