// lightnas — command-line frontend for the full pipeline.
//
//   lightnas measure          run a measurement campaign -> dataset.json
//   lightnas train-predictor  fit the MLP predictor       -> predictor.json
//   lightnas eval-predictor   held-out quality report
//   lightnas search           one-shot constrained search -> result.json
//   lightnas search-campaign  K-target campaign            -> campaign.json
//   lightnas show             inspect an architecture / search result
//   lightnas predict          predict the cost of an architecture
//   lightnas serve-bench      load-test the batched prediction service
//   lightnas devices          list the built-in device profiles
//
// Every artifact is a self-describing JSON file, so campaigns (the
// expensive part) are run once and reused across searches — exactly the
// deployment workflow the paper argues for.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/serialize.hpp"
#include "cli_args.hpp"
#include "core/lightnas.hpp"
#include "nn/parallel.hpp"
#include "nn/simd.hpp"
#include "eval/accuracy_model.hpp"
#include "io/serialize.hpp"
#include "predictors/lut_predictor.hpp"
#include "predictors/oracle.hpp"
#include "serve/resilience.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "space/flops.hpp"
#include "util/table.hpp"

using namespace lightnas;

namespace {

/// Install the process-wide SIMD tier from --isa (default: best
/// bit-identity-preserving tier the host supports, overridable with
/// LIGHTNAS_ISA in the environment). scalar and avx2 are bit-identical;
/// avx2fma is the opt-in fused tier that trades cross-ISA
/// reproducibility for speed.
void install_isa(const cli::Args& args) {
  if (!args.has("isa")) return;
  const std::string text = args.get("isa");
  nn::simd::IsaLevel level;
  if (!nn::simd::parse_isa(text, &level)) {
    throw std::runtime_error("--isa " + text +
                             ": expected scalar|avx2|avx2fma");
  }
  nn::simd::set_global_isa(level);  // throws if unsupported on this host
}

hw::DeviceProfile device_by_name(const std::string& name) {
  if (name == "xavier" || name == "xavier-maxn") {
    return hw::DeviceProfile::jetson_xavier_maxn();
  }
  if (name == "xavier-30w") return hw::DeviceProfile::jetson_xavier_30w();
  if (name == "xavier-15w") return hw::DeviceProfile::jetson_xavier_15w();
  if (name == "nano") return hw::DeviceProfile::jetson_nano_like();
  if (name == "accel") return hw::DeviceProfile::edge_accelerator_like();
  throw std::runtime_error("unknown device '" + name +
                           "' (try: lightnas devices)");
}

int cmd_devices(const cli::Args&) {
  util::Table table({"name", "peak GMAC/s", "bw GB/s", "MBV2-like (ms)",
                     "MBV2-like (mJ)"});
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  for (const char* name :
       {"xavier", "xavier-30w", "xavier-15w", "nano", "accel"}) {
    const hw::DeviceProfile profile = device_by_name(name);
    const hw::CostModel model(profile, 8);
    const space::Architecture mbv2 = space.mobilenet_v2_like();
    table.add_row({name, util::fmt_double(profile.peak_gmacs, 0),
                   util::fmt_double(profile.memory_bandwidth_gbs, 0),
                   util::fmt_ms(model.network_latency_ms(space, mbv2)),
                   util::fmt_double(model.network_energy_mj(space, mbv2),
                                    0)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_measure(const cli::Args& args) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  hw::HardwareSimulator device(device_by_name(args.get("device", "xavier")),
                               args.get_size("batch", 8),
                               args.get_size("seed", 42));
  const std::string metric_name = args.get("metric", "latency");
  const predictors::Metric metric = metric_name == "energy"
                                        ? predictors::Metric::kEnergyMj
                                        : predictors::Metric::kLatencyMs;
  const std::size_t samples = args.get_size("samples", 10000);
  util::Rng rng(args.get_size("seed", 42) + 1);

  hw::FaultSpec faults;
  faults.outlier_prob = args.get_double("fault-outliers", 0.0);
  faults.transient_failure_prob = args.get_double("fault-transients", 0.0);
  faults.hang_prob = args.get_double("fault-hangs", 0.0);
  faults.drift_per_measurement = args.get_double("fault-drift", 0.0);
  device.set_fault_spec(faults);
  const bool robust =
      args.get("robust", "0") != "0" || faults.enabled();

  std::fprintf(stderr, "measuring %zu architectures (%s) on %s...\n",
               samples, metric_name.c_str(),
               device.profile().name.c_str());
  predictors::MeasurementDataset data;
  if (robust) {
    predictors::CampaignReport report;
    data = predictors::build_robust_measurement_dataset(
        space, device, samples, metric, rng, {}, &report);
    std::fprintf(stderr, "%s\n", report.to_string().c_str());
  } else {
    data = predictors::build_measurement_dataset(space, device, samples,
                                                 metric, rng);
  }
  const std::string out = args.get("out", "dataset.json");
  io::save_dataset(out, data, space.num_ops());
  std::printf("wrote %zu measurements to %s\n", data.size(), out.c_str());
  return 0;
}

int cmd_train_predictor(const cli::Args& args) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  predictors::MeasurementDataset data =
      io::load_dataset(args.get("dataset", "dataset.json"));
  util::Rng rng(7);
  auto [train, valid] = data.split(0.8, rng);

  predictors::MlpPredictor predictor(space.num_layers(), space.num_ops(),
                                     args.get_size("seed", 7),
                                     args.get("unit", "ms"));
  predictors::MlpTrainConfig config;
  config.epochs = args.get_size("epochs", 120);
  config.batch_size = args.get_size("batch", 128);
  config.log_every = args.get_size("log-every", 20);
  config.pool_tensors = args.get("tensor-pool", "1") != "0";
  std::fprintf(stderr, "training on %zu / validating on %zu samples...\n",
               train.size(), valid.size());
  predictor.train(train, config);
  std::printf("held-out: %s\n",
              predictor.evaluate(valid).to_string(predictor.unit()).c_str());

  const std::string out = args.get("out", "predictor.json");
  io::save_predictor(out, predictor);
  std::printf("wrote predictor to %s\n", out.c_str());
  return 0;
}

int cmd_eval_predictor(const cli::Args& args) {
  const predictors::MlpPredictor predictor =
      io::load_predictor(args.get("predictor", "predictor.json"));
  const predictors::MeasurementDataset data =
      io::load_dataset(args.get("dataset", "dataset.json"));
  std::printf("%s\n",
              predictor.evaluate(data).to_string(predictor.unit()).c_str());
  return 0;
}

int cmd_search(const cli::Args& args) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor =
      io::load_predictor(args.get("predictor", "predictor.json"));

  std::vector<core::Constraint> constraints;
  constraints.push_back({&predictor, args.require_double("target")});
  std::unique_ptr<predictors::MlpPredictor> second;
  if (args.has("predictor2")) {
    second = std::make_unique<predictors::MlpPredictor>(
        io::load_predictor(args.get("predictor2")));
    constraints.push_back({second.get(), args.require_double("target2")});
  }

  nn::SyntheticTaskConfig task_config;
  task_config.train_size = args.get_size("task-size", 16384);
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  core::LightNasConfig config;
  config.seed = args.get_size("seed", 0);
  config.epochs = args.get_size("epochs", 55);
  config.warmup_epochs =
      args.get_size("warmup", std::min<std::size_t>(config.warmup_epochs,
                                                    config.epochs / 2));
  config.log_progress = args.get("verbose", "0") != "0";
  // Buffer/graph recycling (results are bit-identical on or off; off
  // exists for A/B allocation debugging).
  config.pool_tensors = args.get("tensor-pool", "1") != "0";

  core::SearchHooks hooks;
  core::SearchCheckpoint resume_state;
  if (args.has("resume")) {
    const std::string path = args.get("resume");
    resume_state = io::load_checkpoint(path);
    hooks.resume = &resume_state;
    std::fprintf(stderr, "resuming from %s (epoch %zu/%zu)\n", path.c_str(),
                 resume_state.next_epoch, resume_state.total_epochs);
  }
  std::string checkpoint_path;
  if (args.has("checkpoint-dir")) {
    const std::string dir = args.get("checkpoint-dir");
    std::filesystem::create_directories(dir);
    checkpoint_path = dir + "/checkpoint.json";
    hooks.checkpoint_every = args.get_size("checkpoint-every", 5);
    hooks.on_checkpoint = [&](const core::SearchCheckpoint& ck) {
      io::save_checkpoint(checkpoint_path, ck);
    };
  }

  std::fprintf(stderr, "searching (one run)...\n");
  core::LightNas engine(space, constraints, task, core::SupernetConfig{},
                        config);
  const core::SearchResult result = engine.search(hooks);

  std::printf("%s\n\n", result.architecture.to_diagram(space).c_str());
  std::printf("run health: %s\n", result.health.summary().c_str());
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    std::printf("constraint %zu: predicted %.2f %s (target %.2f)\n", c,
                result.final_costs[c],
                constraints[c].predictor->unit().c_str(),
                constraints[c].target);
  }
  std::printf("serialized: %s\n", result.architecture.serialize().c_str());

  const std::string out = args.get("out", "result.json");
  io::save_search_result(out, result);
  std::printf("wrote search result (with trace) to %s\n", out.c_str());
  if (!checkpoint_path.empty()) {
    std::printf("final checkpoint: %s\n", checkpoint_path.c_str());
  }
  return 0;
}

std::vector<double> parse_target_list(const std::string& spec) {
  std::vector<double> targets;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string token = spec.substr(pos, next - pos);
    if (!token.empty()) {
      std::size_t consumed = 0;
      double value = 0.0;
      try {
        value = std::stod(token, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != token.size()) {
        throw std::runtime_error("bad target '" + token +
                                 "' in --targets list");
      }
      targets.push_back(value);
    }
    pos = next + 1;
  }
  if (targets.empty()) {
    throw std::runtime_error("--targets needs at least one value");
  }
  return targets;
}

int cmd_search_campaign(const cli::Args& args) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const predictors::MlpPredictor predictor =
      io::load_predictor(args.get("predictor", "predictor.json"));

  campaign::CampaignConfig config;
  config.targets = parse_target_list(args.get("targets", ""));
  config.tolerance = args.get_double("tolerance", config.tolerance);
  config.convergence_patience =
      args.get_size("patience", config.convergence_patience);
  config.preempt_converged = args.get("preempt", "1") != "0";
  config.search.seed = args.get_size("seed", 0);
  config.search.epochs = args.get_size("epochs", 55);
  config.search.warmup_epochs = args.get_size(
      "warmup", std::min<std::size_t>(config.search.warmup_epochs,
                                      config.search.epochs / 2));
  config.search.log_progress = args.get("verbose", "0") != "0";
  config.search.pool_tensors = args.get("tensor-pool", "1") != "0";
  // Lanes for the per-job phases; results are bit-identical for any N.
  const nn::ParallelContext lanes(
      nn::ParallelConfig{args.get_size("threads", 1)});
  config.search.parallel = &lanes;

  nn::SyntheticTaskConfig task_config;
  task_config.train_size = args.get_size("task-size", 16384);
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  campaign::CampaignHooks hooks;
  campaign::CampaignCheckpoint resume_state;
  if (args.has("resume")) {
    const std::string path = args.get("resume");
    resume_state = campaign::load_campaign_checkpoint(path);
    hooks.resume = &resume_state;
    std::fprintf(stderr, "resuming from %s (epoch %zu/%zu)\n", path.c_str(),
                 resume_state.next_epoch, resume_state.total_epochs);
  }
  std::string checkpoint_path;
  if (args.has("checkpoint-dir")) {
    const std::string dir = args.get("checkpoint-dir");
    std::filesystem::create_directories(dir);
    checkpoint_path = dir + "/campaign_checkpoint.json";
    hooks.checkpoint_every = args.get_size("checkpoint-every", 5);
    hooks.on_checkpoint = [&](const campaign::CampaignCheckpoint& ck) {
      campaign::save_campaign_checkpoint(checkpoint_path, ck);
    };
  }

  std::fprintf(stderr, "campaign: %zu targets, one shared supernet...\n",
               config.targets.size());
  campaign::CampaignOrchestrator orchestrator(
      space, predictor, task, core::SupernetConfig{}, config);
  const campaign::CampaignResult result = orchestrator.run(hooks);

  util::Table table({"job", "target", "state", "predicted", "gap", "acc",
                     "front"});
  for (const campaign::JobResult& job : result.jobs) {
    table.add_row({std::to_string(job.job_id),
                   util::fmt_double(job.target, 1),
                   campaign::to_string(job.state),
                   util::fmt_double(job.predicted_cost, 2),
                   util::fmt_pct(100.0 * job.gap) + " %",
                   util::fmt_pct(100.0 * job.valid_accuracy) + " %",
                   job.on_front ? "*" : ""});
  }
  table.print(std::cout);
  std::printf(
      "campaign: %zu epochs, %zu weight + %zu alpha updates, "
      "%zu/%zu converged, %zu on front\n",
      result.completed_epochs, result.weight_updates, result.alpha_updates,
      result.count(campaign::JobState::kConverged), result.jobs.size(),
      result.front.size());

  const std::string out = args.get("out", "campaign.json");
  campaign::save_campaign_result(out, result);
  std::printf("wrote campaign result (with traces) to %s\n", out.c_str());
  if (args.has("csv")) {
    const std::string csv = args.get("csv");
    if (campaign::write_campaign_csv(csv, result)) {
      std::printf("wrote per-target report to %s\n", csv.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", csv.c_str());
    }
  }
  if (!checkpoint_path.empty()) {
    std::printf("final checkpoint: %s\n", checkpoint_path.c_str());
  }
  return 0;
}

int cmd_show(const cli::Args& args) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  space::Architecture arch;
  if (args.has("result")) {
    arch = io::load_search_result(args.get("result")).architecture;
  } else {
    arch = space::Architecture::deserialize(args.get("arch"));
  }
  if (arch.num_layers() != space.num_layers()) {
    throw std::runtime_error("architecture has wrong layer count");
  }

  const hw::CostModel model(device_by_name(args.get("device", "xavier")),
                            args.get_size("batch", 8));
  const eval::AccuracyModel accuracy(space);
  std::printf("%s\n\n", arch.to_diagram(space).c_str());
  util::Table table({"metric", "value"});
  table.add_row({"MACs",
                 util::fmt_double(space::count_macs(space, arch) / 1e6, 1) +
                     " M"});
  table.add_row({"params",
                 util::fmt_double(space::count_params(space, arch) / 1e6,
                                  2) +
                     " M"});
  table.add_row({"latency (sim)",
                 util::fmt_ms(model.network_latency_ms(space, arch)) +
                     " ms"});
  table.add_row({"energy (sim)",
                 util::fmt_double(model.network_energy_mj(space, arch), 0) +
                     " mJ"});
  table.add_row({"effective depth",
                 std::to_string(arch.effective_depth(space))});
  table.add_row({"surrogate top-1",
                 util::fmt_pct(accuracy.top1(arch)) + " %"});
  table.print(std::cout);
  return 0;
}

int cmd_predict(const cli::Args& args) {
  const space::Architecture arch =
      space::Architecture::deserialize(args.get("arch"));
  const predictors::MlpPredictor predictor =
      io::load_predictor(args.get("predictor", "predictor.json"));
  std::printf("%.3f %s\n", predictor.predict(arch),
              predictor.unit().c_str());
  return 0;
}

serve::OverflowPolicy overflow_by_name(const std::string& name) {
  if (name == "block") return serve::OverflowPolicy::kBlock;
  if (name == "shed-newest") return serve::OverflowPolicy::kShedNewest;
  if (name == "shed-oldest") return serve::OverflowPolicy::kShedOldest;
  throw std::runtime_error(
      "unknown --overflow '" + name +
      "' (expected block | shed-newest | shed-oldest)");
}

int cmd_serve_bench(const cli::Args& args) {
  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();

  // Validate every flag before spending time on training or load
  // generation — a typo should fail in milliseconds.
  const std::size_t seed = args.get_size("seed", 42);
  const std::size_t samples = args.get_size("samples", 2000);
  const std::size_t epochs = args.get_size("epochs", 60);
  const std::size_t pool_size = args.get_size("pool", 2048);
  if (pool_size == 0) {
    throw std::runtime_error("flag --pool: must be at least 1");
  }
  const double zipf_s = args.get_double("zipf", 1.1);
  const std::size_t clients =
      std::max<std::size_t>(args.get_size("clients", 32), 1);
  const std::size_t requests = args.get_size("requests", 100000);

  serve::ServiceConfig config;
  config.num_workers = args.get_size("workers", 2);
  config.max_batch = args.get_size("batch", 64);
  config.queue_capacity = args.get_size("queue", 256);
  config.cache_capacity = args.get_size("cache", 1 << 16);
  config.pool_tensors = args.get("tensor-pool", "1") != "0";

  // Resilience knobs (all default off: plain serve-bench is unchanged).
  config.default_deadline =
      std::chrono::milliseconds(args.get_size("deadline-ms", 0));
  config.overflow = overflow_by_name(args.get("overflow", "block"));
  config.cache_ttl =
      std::chrono::milliseconds(args.get_size("cache-ttl-ms", 0));
  config.breaker.enabled = args.get("breaker", "0") != "0";
  config.worker_stall_timeout =
      std::chrono::milliseconds(args.get_size("stall-ms", 0));
  const bool want_fallback = args.get("fallback", "0") != "0";
  config.validate();  // fail on flag typos before training anything

  serve::OracleFaultConfig storm;
  storm.spec.transient_failure_prob =
      args.get_double("storm-transients", 0.0);
  storm.spec.hang_prob = args.get_double("storm-hangs", 0.0);
  storm.spec.drift_per_measurement = args.get_double("storm-drift", 0.0);
  storm.spec.outlier_prob = args.get_double("storm-outliers", 0.0);
  storm.hang_duration =
      std::chrono::milliseconds(args.get_size("storm-hang-ms", 50));
  const bool with_storm = storm.spec.enabled();

  // Serve a trained predictor artifact when given one; otherwise run a
  // small in-process campaign so the command works standalone.
  predictors::MlpPredictor predictor(space.num_layers(), space.num_ops());
  if (args.has("predictor")) {
    predictor = io::load_predictor(args.get("predictor"));
  } else {
    hw::HardwareSimulator device(
        device_by_name(args.get("device", "xavier")), 8, seed);
    util::Rng rng(seed + 1);
    std::fprintf(stderr,
                 "no --predictor given; training one on %zu samples...\n",
                 samples);
    const predictors::MeasurementDataset data =
        predictors::build_measurement_dataset(
            space, device, samples, predictors::Metric::kLatencyMs, rng);
    predictors::MlpTrainConfig train_config;
    train_config.epochs = epochs;
    train_config.batch_size = 128;
    predictor.train(data, train_config);
  }

  util::Rng pool_rng(seed + 2);
  const std::vector<space::Architecture> pool =
      serve::random_architecture_pool(space, pool_size, pool_rng);
  const serve::ZipfSampler zipf(pool.size(), zipf_s);

  // Degraded-mode proxy tier: a FLOPs-linear oracle calibrated against
  // the served predictor on a slice of the pool.
  std::unique_ptr<predictors::FlopsProxyOracle> proxy;
  if (want_fallback) {
    const std::vector<space::Architecture> calibration(
        pool.begin(),
        pool.begin() + std::min<std::size_t>(pool.size(), 256));
    proxy = std::make_unique<predictors::FlopsProxyOracle>(
        predictors::FlopsProxyOracle::calibrated(space, predictor,
                                                 calibration));
    config.fallback_oracle = proxy.get();
  }

  // Chaos mode: serve through a fault-injecting decorator instead of
  // the bare predictor.
  serve::FaultyOracle faulty(predictor, storm);
  faulty.set_storm(with_storm);
  const predictors::CostOracle& backend =
      with_storm ? static_cast<const predictors::CostOracle&>(faulty)
                 : predictor;

  std::fprintf(stderr,
               "load: %zu clients x %zu requests over %zu architectures "
               "(zipf s=%.2f)%s\n",
               clients, requests / clients, pool.size(), zipf_s,
               with_storm ? " [fault storm active]" : "");

  const bool with_baseline = args.get("baseline", "1") != "0";
  serve::LoadResult baseline;
  if (with_baseline) {
    baseline = serve::run_sequential_baseline(predictor, pool, zipf,
                                              requests, 99);
  }

  // A deadline (or a storm) means requests may legitimately resolve
  // with typed errors — drive the load through the resilient runner
  // that classifies every outcome instead of rethrowing the first one.
  const bool resilient_load = config.default_deadline.count() > 0 ||
                              config.breaker.enabled || with_storm;

  serve::PredictionService service(backend, config);
  serve::LoadResult load;
  serve::ResilientLoadResult rload;
  if (resilient_load) {
    const auto wait_budget =
        config.default_deadline.count() > 0
            ? config.default_deadline + std::chrono::milliseconds(500)
            : std::chrono::milliseconds(5000);
    rload = serve::run_resilient_closed_loop(
        service, pool, zipf, clients, requests / clients, 99, wait_budget);
    load.requests = rload.requests;
    load.wall_seconds = rload.wall_seconds;
    load.checksum = rload.checksum;
  } else {
    load = serve::run_closed_loop(service, pool, zipf, clients,
                                  requests / clients, 99);
  }
  const serve::ServiceStats stats = service.stats();
  service.shutdown();

  util::Table table({"metric", "value"});
  table.add_row({"throughput", util::fmt_double(load.qps(), 0) + " q/s"});
  if (with_baseline) {
    table.add_row({"sequential baseline",
                   util::fmt_double(baseline.qps(), 0) + " q/s"});
    table.add_row({"speedup",
                   util::fmt_double(load.qps() / baseline.qps(), 1) + "x"});
  }
  table.add_row({"cache hit rate",
                 util::fmt_pct(100.0 * stats.cache.hit_rate()) + " %"});
  table.add_row({"latency p50",
                 util::fmt_double(stats.latency_us.p50, 0) + " us"});
  table.add_row({"latency p95",
                 util::fmt_double(stats.latency_us.p95, 0) + " us"});
  table.add_row({"latency p99",
                 util::fmt_double(stats.latency_us.p99, 0) + " us"});
  table.add_row({"mean batch size",
                 util::fmt_double(stats.batch_size.mean(), 1)});
  table.add_row({"mean queue depth",
                 util::fmt_double(stats.queue_depth.mean(), 1)});
  table.add_row({"batches", std::to_string(stats.batches)});
  table.add_row({"tensor-pool hit rate",
                 util::fmt_pct(100.0 * stats.pool.buffer_hit_rate()) +
                     " %"});
  table.add_row({"tensor-pool misses",
                 std::to_string(stats.pool.buffer_misses)});
  table.add_row({"tensor-pool recycled",
                 util::fmt_double(
                     static_cast<double>(stats.pool.bytes_recycled) /
                         (1 << 20),
                     1) +
                     " MB"});
  if (resilient_load) {
    table.add_row({"resolved ratio",
                   util::fmt_double(rload.resolved_ratio(), 4) + " (" +
                       std::to_string(rload.values) + " values, " +
                       std::to_string(rload.typed_errors) +
                       " typed errors, " +
                       std::to_string(rload.unresolved) + " unresolved)"});
    table.add_row({"shed / expired", std::to_string(stats.shed) + " / " +
                                         std::to_string(stats.expired)});
    table.add_row({"degraded stale / proxy",
                   std::to_string(stats.degraded_stale) + " / " +
                       std::to_string(stats.degraded_proxy)});
    table.add_row({"oracle failures", std::to_string(stats.oracle_failures)});
    table.add_row({"breaker",
                   std::string(serve::to_string(stats.breaker_state)) +
                       " (opened " + std::to_string(stats.breaker_opens) +
                       "x)"});
    table.add_row({"worker respawns", std::to_string(stats.worker_respawns)});
    table.add_row({"deadline hit ratio",
                   util::fmt_double(stats.deadline_hit_ratio(), 4)});
  }
  table.print(std::cout);
  return 0;
}

void print_usage() {
  std::printf(
      "usage: lightnas <command> [--flag value ...]\n"
      "\n"
      "global flag (every command):\n"
      "  --isa T         SIMD tier of the dense kernels: scalar | avx2 |\n"
      "                  avx2fma (default: best bit-identical tier the\n"
      "                  CPU supports; env LIGHTNAS_ISA overrides too).\n"
      "                  scalar and avx2 are bit-identical; avx2fma is\n"
      "                  faster but changes rounding (opt-in)\n"
      "\n"
      "train-predictor, search, search-campaign and serve-bench also take:\n"
      "  --tensor-pool 0|1  recycle tensor buffers / autograd graphs\n"
      "                  (default 1; results are bit-identical)\n"
      "\n"
      "A flag the command does not read is an error (unknown flag).\n"
      "\n"
      "commands:\n"
      "  devices                                list device profiles\n"
      "  measure         --device D --metric latency|energy --samples N\n"
      "                  [--robust 1] [--fault-outliers P]\n"
      "                  [--fault-transients P] [--fault-hangs P]\n"
      "                  [--fault-drift D] --out dataset.json\n"
      "  train-predictor --dataset F --epochs N --unit ms|mJ\n"
      "                  --out predictor.json\n"
      "  eval-predictor  --predictor F --dataset F\n"
      "  search          --predictor F --target T\n"
      "                  [--predictor2 F --target2 T] [--seed N]\n"
      "                  [--epochs N] [--warmup N]\n"
      "                  [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "                  [--resume DIR/checkpoint.json]\n"
      "                  --out result.json\n"
      "  search-campaign --predictor F --targets \"T1,T2,...\"\n"
      "                  [--tolerance R] [--patience N] [--preempt 0|1]\n"
      "                  [--seed N] [--epochs N] [--warmup N]\n"
      "                  [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "                  [--resume DIR/campaign_checkpoint.json]\n"
      "                  [--threads N] [--csv campaign.csv]\n"
      "                  --out campaign.json\n"
      "                  --threads: lanes for the per-target epoch\n"
      "                  evaluation (default 1; results are bit-identical)\n"
      "  show            --result F | --arch \"0,1,...\" [--device D]\n"
      "  predict         --predictor F --arch \"0,1,...\"\n"
      "  serve-bench     [--predictor F] [--clients N] [--requests N]\n"
      "                  [--workers N] [--batch B] [--cache N]\n"
      "                  [--queue N] [--pool N] [--zipf S]\n"
      "                  [--baseline 0|1]\n"
      "                  resilience (all default off):\n"
      "                  [--deadline-ms N] [--overflow block|shed-newest|\n"
      "                  shed-oldest] [--breaker 0|1] [--fallback 0|1]\n"
      "                  [--cache-ttl-ms N] [--stall-ms N]\n"
      "                  fault storm (chaos-test the service):\n"
      "                  [--storm-transients P] [--storm-hangs P]\n"
      "                  [--storm-hang-ms N] [--storm-drift D]\n"
      "                  [--storm-outliers P]\n");
}

/// One subcommand: its name, the flags it reads (besides the global
/// --isa) and its body.
struct Command {
  const char* name;
  std::vector<std::string> flags;
  int (*run)(const cli::Args&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"devices", {}, cmd_devices},
      {"measure",
       {"device", "batch", "seed", "metric", "samples", "fault-outliers",
        "fault-transients", "fault-hangs", "fault-drift", "robust", "out"},
       cmd_measure},
      {"train-predictor",
       {"dataset", "seed", "unit", "epochs", "batch", "log-every",
        "tensor-pool", "out"},
       cmd_train_predictor},
      {"eval-predictor", {"predictor", "dataset"}, cmd_eval_predictor},
      {"search",
       {"predictor", "target", "predictor2", "target2", "task-size", "seed",
        "epochs", "warmup", "verbose", "tensor-pool", "resume",
        "checkpoint-dir", "checkpoint-every", "out"},
       cmd_search},
      {"search-campaign",
       {"predictor", "targets", "tolerance", "patience", "preempt", "seed",
        "epochs", "warmup", "verbose", "tensor-pool", "threads", "task-size",
        "resume", "checkpoint-dir", "checkpoint-every", "out", "csv"},
       cmd_search_campaign},
      {"show", {"result", "arch", "device", "batch"}, cmd_show},
      {"predict", {"predictor", "arch"}, cmd_predict},
      {"serve-bench",
       {"predictor", "device", "seed", "samples", "epochs", "pool", "zipf",
        "clients", "requests", "workers", "batch", "queue", "cache",
        "tensor-pool", "deadline-ms", "overflow", "cache-ttl-ms", "breaker",
        "stall-ms", "fallback", "storm-transients", "storm-hangs",
        "storm-drift", "storm-outliers", "storm-hang-ms", "baseline"},
       cmd_serve_bench},
  };
  return table;
}

/// A flag the command never reads is a typo or a removed option; fail
/// before any work instead of silently running with defaults.
void reject_unknown_flags(const Command& command, const cli::Args& args) {
  for (const std::string& name : args.flag_names()) {
    if (name != "isa" &&
        std::find(command.flags.begin(), command.flags.end(), name) ==
            command.flags.end()) {
      throw std::runtime_error("unknown flag --" + name + " for '" +
                               command.name + "'");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      print_usage();
      return 1;
    }
    const std::string command = argv[1];
    if (command == "help" || command == "--help") {
      print_usage();
      return 0;
    }
    const cli::Args args(argc - 1, argv + 1);
    for (const Command& entry : commands()) {
      if (command != entry.name) continue;
      reject_unknown_flags(entry, args);
      install_isa(args);
      return entry.run(args);
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
    print_usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
