// serve_zipf and serve_cold: predictor queries served under open-loop
// load. One generator thread submits each request at its Poisson due
// time; latency is taken from that due time, so a stalled generator or a
// blocked submit shows up in every request it delays.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <unordered_map>

#include "e2e.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace lightnas::e2e {

ServeProfile serve_zipf_profile(bool smoke) {
  if (smoke) return {512, 1.1, {2e3, 4e3}, 1};
  return {4096, 1.1, {125e3, 250e3, 500e3, 1e6}, 1};
}

ServeProfile serve_cold_profile(bool smoke) {
  if (smoke) return {8192, 0.0, {1e3, 2e3}, 1};
  return {262144, 0.0, {50e3, 100e3, 200e3, 400e3}, 1};
}

namespace {

/// The service under test: ServiceConfig defaults (2 workers, max_batch
/// 32, 65,536 cache entries).
serve::ServiceConfig service_config() { return serve::ServiceConfig{}; }

/// Latency SLO of the capacity search (p99 of requests at a rung).
constexpr double kSloP99Us = 1000.0;
/// A rung fails when more than this share of a segment's requests is
/// still outstanding when the generator sends its last one (median over
/// the rung's segments, like its percentiles).
constexpr double kMaxBacklogShare = 0.01;
/// Every Nth request's answer is checked against the oracle, and (traced
/// runs) every Nth submit gets a span.
constexpr std::size_t kSampleEvery = 16;
/// Interleaved rounds of the ladder in a measured run.
constexpr std::size_t kRounds = 8;
/// Generator lateness at which a rung is abandoned as overloaded.
constexpr double kAbandonLateS = 0.5;
/// A request still unanswered after this long counts as failed.
constexpr std::chrono::seconds kRequestTimeout{2};

std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Wraps the service's oracle with a span and a row counter around every
/// batched forward. Forwards unchanged.
class TracedOracle final : public predictors::CostOracle {
 public:
  explicit TracedOracle(const predictors::CostOracle& inner) : inner_(inner) {}

  double predict(const space::Architecture& arch) const override {
    return inner_.predict(arch);
  }
  std::vector<double> predict_batch(
      const std::vector<space::Architecture>& archs) const override {
    const trace::ScopedSpan span("serve.oracle");
    rows_.fetch_add(archs.size(), std::memory_order_relaxed);
    return inner_.predict_batch(archs);
  }
  std::string unit() const override { return inner_.unit(); }

  std::uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  const predictors::CostOracle& inner_;
  mutable std::atomic<std::uint64_t> rows_{0};
};

struct Pending {
  std::int64_t due_ns = 0;
  std::future<double> future;
  std::uint32_t arch = 0;
  bool check = false;
};

/// Single-producer single-consumer FIFO between the generator and the
/// collector. A full ring makes the generator wait (and run late); an
/// empty ring parks the collector until the next push, so an idle
/// collector costs the generator nothing.
class Ring {
 public:
  explicit Ring(std::size_t capacity_pow2) : slots_(capacity_pow2) {}

  bool push(Pending&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) {
      return false;
    }
    slots_[tail & (slots_.size() - 1)] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    signal();
    return true;
  }

  /// No more pushes; wakes a parked consumer.
  void close() {
    closed_.store(true, std::memory_order_release);
    signal();
  }

  /// Next item, waiting for one while the ring is open. False once the
  /// ring is closed and drained.
  bool pop(Pending* out) {
    for (;;) {
      const std::uint32_t seen = signals_.load(std::memory_order_acquire);
      const std::size_t head = head_.load(std::memory_order_relaxed);
      if (head != tail_.load(std::memory_order_acquire)) {
        *out = std::move(slots_[head & (slots_.size() - 1)]);
        head_.store(head + 1, std::memory_order_release);
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) return false;
      signals_.wait(seen, std::memory_order_acquire);
    }
  }

 private:
  void signal() {
    signals_.fetch_add(1, std::memory_order_release);
    signals_.notify_one();
  }

  std::vector<Pending> slots_;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint32_t> signals_{0};
};

struct Answer {
  std::uint32_t arch;
  double value;
};

struct RungResult {
  std::size_t sent = 0;
  std::size_t errors = 0;
  std::size_t unsent = 0;
  std::size_t backlog = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<Answer> answers;

  std::optional<double> p50() const { return quantile(latency_us, 0.5); }
};

/// One rung of the ladder, aggregated over its segments. Its percentiles
/// are medians of the per-segment percentiles.
struct Rung {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t unsent = 0;
  std::size_t errors = 0;
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  std::vector<double> backlog_share, p50, p99, late_p99;

  void add(const RungResult& segment, std::size_t segment_mismatches) {
    sent += segment.sent;
    unsent += segment.unsent;
    errors += segment.errors;
    mismatches += segment_mismatches;
    checked += segment.answers.size();
    if (segment.sent > 0) {
      backlog_share.push_back(static_cast<double>(segment.backlog) /
                              static_cast<double>(segment.sent));
    }
    if (segment.latency_us.empty()) return;
    p50.push_back(*quantile(segment.latency_us, 0.5));
    p99.push_back(*quantile(segment.latency_us, 0.99));
    late_p99.push_back(*quantile(segment.late_us, 0.99));
  }

  bool meets_slo() const {
    const std::optional<double> tail = quantile(p99, 0.5);
    return unsent == 0 && errors == 0 && mismatches == 0 && backlog_ok() &&
           tail && *tail <= kSloP99Us;
  }

  bool backlog_ok() const {
    const std::optional<double> share = quantile(backlog_share, 0.5);
    return share && *share <= kMaxBacklogShare;
  }
};

class Load {
 public:
  Load(serve::PredictionService& service,
       const std::vector<space::Architecture>& universe, double zipf_s,
       std::uint64_t seed)
      : service_(service), universe_(universe), seed_(seed) {
    if (zipf_s > 0.0) {
      zipf_ = std::make_unique<serve::ZipfSampler>(universe.size(), zipf_s);
    }
  }

  /// Offer `rate` q/s for `duration_s`, open loop. `stream` picks this
  /// rung's arrival/arch stream off the seed.
  RungResult run(double rate, double duration_s, std::uint64_t stream,
                 bool span_submits) {
    RungResult out;
    const std::size_t expected =
        static_cast<std::size_t>(rate * duration_s * 1.1) + 64;
    out.latency_us.reserve(expected);
    out.late_us.reserve(expected);
    out.answers.reserve(expected / kSampleEvery + 64);

    Ring ring(std::size_t{1} << 18);
    std::atomic<std::size_t> resolved{0};
    std::vector<double> collected_us;
    std::vector<Answer> collected_answers;
    std::size_t collected_errors = 0;
    collected_us.reserve(expected);

    // Collector: resolves queued futures in FIFO order. A stamp is taken
    // when get() returns, so it can be late (an earlier slow request
    // holds the line), never early.
    std::thread collector([&] {
      Pending item;
      while (ring.pop(&item)) {
        if (item.future.wait_for(kRequestTimeout) !=
            std::future_status::ready) {
          ++collected_errors;  // unresolved: counts as failed
        } else {
          try {
            const double value = item.future.get();
            if (item.check) collected_answers.push_back({item.arch, value});
          } catch (const std::exception&) {
            ++collected_errors;
          }
        }
        collected_us.push_back(1e-3 *
                               static_cast<double>(ns_now() - item.due_ns));
        resolved.fetch_add(1, std::memory_order_release);
      }
    });

    try {
      generate(rate, duration_s, stream, span_submits, ring, resolved, out);
    } catch (...) {
      ring.close();
      collector.join();
      throw;
    }
    ring.close();
    collector.join();
    out.errors += collected_errors;
    out.latency_us.insert(out.latency_us.end(), collected_us.begin(),
                          collected_us.end());
    out.answers.insert(out.answers.end(), collected_answers.begin(),
                       collected_answers.end());
    return out;
  }

 private:
  /// The generator: submits each request at its due time and stamps the
  /// ones answered on this thread; the rest go to the collector.
  void generate(double rate, double duration_s, std::uint64_t stream,
                bool span_submits, Ring& ring,
                std::atomic<std::size_t>& resolved, RungResult& out) {
    util::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + stream);
    const std::int64_t start_ns = ns_now() + 2'000'000;
    const std::int64_t end_ns =
        start_ns + static_cast<std::int64_t>(duration_s * 1e9);
    const std::int64_t abandon_ns =
        static_cast<std::int64_t>(kAbandonLateS * 1e9);
    const double mean_gap_ns = 1e9 / rate;
    double due = static_cast<double>(start_ns);
    for (std::size_t i = 0;; ++i) {
      due += -std::log1p(-rng.uniform()) * mean_gap_ns;
      const std::int64_t due_ns = static_cast<std::int64_t>(due);
      if (due_ns > end_ns) break;
      // Drawn before the wait, so the generator's own work is not charged
      // to the request.
      const std::uint32_t arch = static_cast<std::uint32_t>(
          zipf_ ? zipf_->sample(rng) : rng.uniform_index(universe_.size()));
      const bool sampled = i % kSampleEvery == 0;
      std::int64_t now = ns_now();
      if (now - due_ns > abandon_ns) {
        // Hopelessly behind: the rest of the schedule is never sent.
        do {
          ++out.unsent;
          due += -std::log1p(-rng.uniform()) * mean_gap_ns;
        } while (static_cast<std::int64_t>(due) <= end_ns);
        break;
      }
      // Spin, never sleep: a timed sleep overshoots by tens of
      // microseconds, which would show up as generator lateness.
      while (now < due_ns) now = ns_now();
      std::future<double> future;
      {
        const trace::ScopedSpan span(span_submits && sampled ? "serve.submit"
                                                             : nullptr);
        future = service_.submit(universe_[arch]);
      }
      ++out.sent;
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        // Answered on this thread (a front-door cache hit): stamped before
        // any bookkeeping.
        std::optional<double> value;
        try {
          value = future.get();
        } catch (const std::exception&) {
        }
        out.latency_us.push_back(1e-3 *
                                 static_cast<double>(ns_now() - due_ns));
        resolved.fetch_add(1, std::memory_order_release);
        if (!value) {
          ++out.errors;
        } else if (sampled) {
          out.answers.push_back({arch, *value});
        }
      } else {
        Pending item{due_ns, std::move(future), arch, sampled};
        while (!ring.push(std::move(item))) std::this_thread::yield();
      }
      out.late_us.push_back(1e-3 * static_cast<double>(now - due_ns));
    }
    out.backlog = out.sent - resolved.load(std::memory_order_acquire);
  }

  serve::PredictionService& service_;
  const std::vector<space::Architecture>& universe_;
  std::uint64_t seed_;
  std::unique_ptr<serve::ZipfSampler> zipf_;
};

/// Compare sampled answers with MlpPredictor::predict, bit for bit, off
/// the clock. Returns the number of mismatches.
std::size_t check_answers(const predictors::MlpPredictor& predictor,
                          const std::vector<space::Architecture>& universe,
                          const std::vector<Answer>& answers,
                          std::unordered_map<std::uint32_t, double>& memo) {
  std::size_t mismatches = 0;
  for (const Answer& answer : answers) {
    auto it = memo.find(answer.arch);
    if (it == memo.end()) {
      it = memo.emplace(answer.arch, predictor.predict(universe[answer.arch]))
               .first;
    }
    if (std::memcmp(&it->second, &answer.value, sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

void run_serve(const RunOptions& options, const ServeProfile& profile,
               const Setup& setup, Report& report) {
  const predictors::MlpPredictor& predictor = *setup.predictor;
  util::Rng universe_rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);
  const std::vector<space::Architecture> universe =
      serve::random_architecture_pool(setup.space, profile.universe,
                                      universe_rng);
  std::unordered_map<std::uint32_t, double> memo;
  // The ladder runs as interleaved rounds of short segments, one per rung,
  // so a slow second on a shared host lands in one segment of every rung
  // instead of in the whole of one rung. The nominal rung, whose
  // latencies are the headline, gets 40% of the measured time.
  const std::size_t rounds = options.smoke ? 1 : kRounds;
  const auto segment_s = [&](std::size_t rung) {
    if (options.smoke) return 0.2;
    const double others = static_cast<double>(profile.rates.size() - 1);
    const double share = rung == profile.nominal ? 0.4 : 0.6 / others;
    return share * options.seconds / static_cast<double>(rounds);
  };
  const double warm_s = options.smoke ? 0.05 : 0.5;
  const double nominal = profile.rates[profile.nominal];

  std::vector<Rung> rungs(profile.rates.size());
  {
    serve::PredictionService service(predictor, service_config());
    Load load(service, universe, profile.zipf_s, options.seed);
    load.run(nominal, warm_s, 0, false);  // untimed: fills the cache
    std::uint64_t stream = 1;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t r = 0; r < rungs.size(); ++r) {
        const RungResult segment =
            load.run(profile.rates[r], segment_s(r), stream++, false);
        rungs[r].rate = profile.rates[r];
        rungs[r].add(segment,
                     check_answers(predictor, universe, segment.answers, memo));
      }
    }
    service.shutdown();
  }

  std::size_t attempted = 0, failed = 0;
  std::optional<double> max_qps;
  io::Json table = io::Json::array();
  const auto timing = [&](std::optional<double> v) {
    return report.measured() && v ? io::Json(*v) : io::Json();
  };
  for (const Rung& rung : rungs) {
    attempted += rung.sent;
    failed += rung.errors + rung.mismatches;
    if (rung.meets_slo()) max_qps = rung.rate;
    char detail[200];
    std::snprintf(detail, sizeof detail,
                  "%zu sent, %zu unsent, %zu errors, %zu/%zu sampled "
                  "answers differ",
                  rung.sent, rung.unsent, rung.errors, rung.mismatches,
                  rung.checked);
    report.check("rung " + std::to_string(static_cast<long long>(rung.rate)) +
                     " q/s",
                 rung.errors == 0 && rung.mismatches == 0, detail);
    io::Json row = io::Json::object();
    row.set("rate_qps", io::Json(rung.rate));
    row.set("sent", io::Json(rung.sent));
    row.set("unsent", io::Json(rung.unsent));
    row.set("errors", io::Json(rung.errors));
    row.set("backlog_ok", io::Json(rung.backlog_ok()));
    row.set("meets_slo", io::Json(rung.meets_slo()));
    row.set("p50_us", timing(quantile(rung.p50, 0.5)));
    row.set("p99_us", timing(quantile(rung.p99, 0.5)));
    row.set("gen_late_us_p99", timing(quantile(rung.late_p99, 0.5)));
    table.push_back(std::move(row));
  }
  report.note("rungs", std::move(table));
  report.attempts(attempted, failed);

  const Rung& headline = rungs[profile.nominal];
  report.metric("serve_p50_us", "us", quantile(headline.p50, 0.5),
                headline.sent);
  report.metric("serve_p99_us", "us", quantile(headline.p99, 0.5),
                headline.sent);
  report.metric("serve_max_qps", "q/s", max_qps, rungs.size());

  if (!options.traced) return;

  // Traced leg: a second service behind the traced oracle, warmed the
  // same way, at the nominal rate only.
  TracedOracle oracle(predictor);
  serve::PredictionService service(oracle, service_config());
  Load load(service, universe, profile.zipf_s, options.seed);
  load.run(nominal, warm_s, 0, false);
  const serve::ServiceStats before = service.stats();
  const std::uint64_t rows_before = oracle.rows();
  const NnCounters nn_start = nn_counters();
  trace::clear();
  trace::enable(true);
  const Clock::time_point t0 = Clock::now();
  const RungResult traced =
      load.run(nominal,
               segment_s(profile.nominal) * static_cast<double>(rounds), 1000,
               true);
  const double traced_s = seconds_since(t0);
  const serve::ServiceStats after = service.stats();
  const std::uint64_t rows = oracle.rows() - rows_before;
  report_nn_layers(report, nn_start);
  // A fresh memo, so the traced leg times its own oracle calls.
  std::unordered_map<std::uint32_t, double> traced_memo;
  const std::size_t mismatches =
      check_answers(predictor, universe, traced.answers, traced_memo);
  trace::enable(false);
  service.shutdown();
  report.check("traced rung", traced.errors == 0 && mismatches == 0,
               std::to_string(traced.sent) + " sent, " +
                   std::to_string(mismatches) + " mismatches");

  const auto spans = trace::fold();
  const auto stats_of = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? trace::SpanStats{} : it->second;
  };
  const trace::SpanStats submit = stats_of("serve.submit");
  const trace::SpanStats oracle_spans = stats_of("serve.oracle");
  const auto q = [](const trace::SpanStats& s, double p, double scale) {
    return s.count ? std::optional<double>(*quantile(s.durations_s, p) * scale)
                   : std::nullopt;
  };
  report.layer("serve.submit_us.p50", "us", q(submit, 0.5, 1e6), submit.count);
  report.layer("serve.submit_us.p99", "us", q(submit, 0.99, 1e6), submit.count);
  report.layer("serve.submit.per_s", "1/s",
               submit.count ? std::optional<double>(
                                  static_cast<double>(submit.count) /
                                  submit.total_s)
                            : std::nullopt,
               submit.count);
  const std::uint64_t lookups = (after.cache.hits - before.cache.hits) +
                                (after.cache.misses - before.cache.misses);
  report.layer("serve.cache.hit_ratio", "fraction",
               lookups ? std::optional<double>(
                             static_cast<double>(after.cache.hits -
                                                 before.cache.hits) /
                             static_cast<double>(lookups))
                       : std::nullopt,
               lookups);
  report.layer("serve.cache.evictions", "count",
               static_cast<double>(after.cache.evictions -
                                   before.cache.evictions));
  report.layer("serve.batch_size.mean", "count", after.batch_size.mean(),
               after.batch_size.count);
  report.layer("serve.queue_depth.p99", "count", after.queue_depth.p99,
               after.queue_depth.count);
  report.layer("serve.oracle_ms.p50", "ms", q(oracle_spans, 0.5, 1e3),
               oracle_spans.count);
  report.layer("serve.oracle_ms.p99", "ms", q(oracle_spans, 0.99, 1e3),
               oracle_spans.count);
  report.layer("serve.oracle.count", "count",
               static_cast<double>(oracle_spans.count));
  report.layer("serve.oracle.rows_mean", "count",
               oracle_spans.count
                   ? std::optional<double>(
                         static_cast<double>(rows) /
                         static_cast<double>(oracle_spans.count))
                   : std::nullopt,
               oracle_spans.count);
  report.layer("serve.oracle.rows_per_s", "1/s",
               oracle_spans.count ? std::optional<double>(
                                        static_cast<double>(rows) /
                                        oracle_spans.total_s)
                                  : std::nullopt,
               oracle_spans.count);
  report.layer(
      "serve.oracle.busy_share", "fraction",
      oracle_spans.total_s /
          (traced_s * static_cast<double>(service.config().num_workers)));
  report.layer("serve.gen_late_us.p99", "us", quantile(traced.late_us, 0.99),
               traced.late_us.size());
  const std::optional<double> untraced_p50 = quantile(headline.p50, 0.5);
  const std::optional<double> traced_p50 = traced.p50();
  report.layer("trace_overhead_pct", "%",
               report.measured() && untraced_p50 && traced_p50
                   ? std::optional<double>(100.0 *
                                           (*traced_p50 - *untraced_p50) /
                                           *untraced_p50)
                   : std::nullopt);
}

}  // namespace lightnas::e2e
