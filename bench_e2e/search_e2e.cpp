// search_e2e — end-to-end benchmark of what LightNAS users wait for: a
// paper-shaped search, a K-target campaign, and predictor queries served
// under open-loop load. See bench_e2e/README.md.
//
//   search_e2e --workload <search_paper|campaign_k8|serve_zipf|serve_cold|all>
//              [--seed S] [--seconds N] [--trace 0|1|PATH] [--smoke]
//              [--out e2e.json] [--baseline bench_e2e/baseline/e2e.json]
//              [--scratch DIR]
//
// Prints every metric by name with unit, value and sample count, writes
// the same data as JSON to --out, and exits non-zero when any correctness
// check fails. Metric names and units come from bench_e2e/metrics.json in
// the source tree it was built from; `e2e_compare.py --validate` checks a
// report against the same file.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "e2e.hpp"
#include "hw/device.hpp"
#include "hw/simulator.hpp"
#include "nn/simd.hpp"
#include "predictors/dataset.hpp"

extern char** environ;

namespace lightnas::e2e {
namespace {

const std::vector<std::string> kWorkloads = {"search_paper", "campaign_k8",
                                             "serve_zipf", "serve_cold"};

/// Environment variables that change which program gets measured; any
/// of them set makes the run unmeasured.
const std::vector<std::string> kProgramChangingEnv = {
    "LIGHTNAS_PLAN", "LIGHTNAS_ISA", "LIGHTNAS_FAST"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool smoke = false;
  std::string trace_path;  // empty = untraced
  std::string out;
  std::string baseline;
  std::string scratch;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "search_e2e: %s\n"
               "usage: search_e2e --workload "
               "<search_paper|campaign_k8|serve_zipf|serve_cold|all>\n"
               "       [--seed S] [--seconds N] [--trace 0|1|PATH] [--smoke]\n"
               "       [--out e2e.json] [--baseline FILE] [--scratch DIR]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value == "1") {
          args.trace_path = "trace.json";
        } else if (value != "0") {
          args.trace_path = value;
        }
      } else if (flag == "--out") {
        args.out = value;
      } else if (flag == "--baseline") {
        args.baseline = value;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload != "all" &&
      std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
          kWorkloads.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.scratch.empty()) args.scratch = ".search_e2e_scratch";
  return args;
}

// ---------------------------------------------------------- environment

std::size_t online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string read_loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return in ? a + " " + b + " " + c : "unknown";
}

io::Json environment(std::size_t lanes, bool* program_changed) {
  io::Json env = io::Json::object();
  io::Json vars = io::Json::object();
  *program_changed = false;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("LIGHTNAS_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    const std::string name = entry.substr(0, eq);
    vars.set(name,
             io::Json(eq == std::string::npos ? "" : entry.substr(eq + 1)));
    if (std::find(kProgramChangingEnv.begin(), kProgramChangingEnv.end(),
                  name) != kProgramChangingEnv.end()) {
      *program_changed = true;
    }
  }
  env.set("lightnas_env", std::move(vars));
  env.set("started_at",
          io::Json(std::chrono::duration<double>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count()));
  env.set("nproc", io::Json(online_cpus()));
  env.set("loadavg_at_start", io::Json(read_loadavg()));
  env.set("isa", io::Json(nn::simd::isa_name(nn::simd::global_isa())));
  env.set("lanes", io::Json(lanes));
  env.set("compiler", io::Json(__VERSION__));
  env.set("build_type", io::Json(E2E_BUILD_TYPE));
  env.set("git_rev", io::Json(E2E_GIT_REV));
  return env;
}

BaselineFingerprints load_baseline(const std::string& path) {
  BaselineFingerprints prints;
  if (path.empty()) return prints;
  const io::Json doc = io::read_json_file(path);
  if (!doc.contains("fingerprints")) return prints;
  for (const auto& [key, value] : doc.at("fingerprints").as_object()) {
    prints[key] = std::stoull(value.as_string(), nullptr, 16);
  }
  return prints;
}

// --------------------------------------------------------------- set-up

/// The Sec 3.2 pipeline on the simulated Xavier: measure 10,000 sampled
/// architectures, split 80/20, train the MLP predictor for 60 epochs
/// (batch 128) with the CLI's seeds. Fixed seeds: set-up is identical in
/// every run, so its fingerprint is checked against the baseline.
struct PredictorBuild {
  std::unique_ptr<predictors::MlpPredictor> predictor;
  double measure_s = 0.0;
  double train_s = 0.0;
  predictors::PredictorReport held_out;
};

PredictorBuild build_predictor(const space::SearchSpace& space, bool smoke) {
  PredictorBuild build;
  Clock::time_point t0 = Clock::now();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8, 42);
  util::Rng rng(43);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space, device, smoke ? 768 : 10000, predictors::Metric::kLatencyMs,
          rng);
  build.measure_s = seconds_since(t0);

  t0 = Clock::now();
  util::Rng split_rng(7);
  const auto [train, valid] = data.split(0.8, split_rng);
  build.predictor = std::make_unique<predictors::MlpPredictor>(
      space.num_layers(), space.num_ops(), 7, "ms");
  predictors::MlpTrainConfig config;
  config.epochs = smoke ? 4 : 60;
  config.batch_size = 128;
  build.predictor->train(train, config);
  build.train_s = seconds_since(t0);
  build.held_out = build.predictor->evaluate(valid);
  return build;
}

std::uint64_t predictor_fingerprint(const predictors::MlpPredictor& p) {
  const predictors::MlpPredictor::State state = p.export_state();
  Fingerprint f;
  f.add_double(state.target_mean);
  f.add_double(state.target_std);
  for (const std::vector<float>& tensor : state.tensors) {
    f.add_u64(tensor.size());
    for (const float v : tensor) f.add_float(v);
  }
  return f.value();
}

/// Predictor builds per run; `setup_s` is their median. (At ~4.5 s a
/// build, a third would push a full BENCHMARK.json pass, 92 runs, past
/// its time budget.)
constexpr std::size_t kSetupBuilds = 2;

/// Build the predictor several times, check every build is identical and
/// sound, then build the task.
Setup set_up(const Args& args, const BaselineFingerprints& baseline,
             Report& report) {
  Setup setup;
  const std::size_t repeats = args.smoke ? 1 : kSetupBuilds;
  std::vector<double> total_s, measure_s, train_s;
  std::vector<std::uint64_t> prints;
  PredictorBuild build;
  for (std::size_t r = 0; r < repeats; ++r) {
    build = build_predictor(setup.space, args.smoke);
    total_s.push_back(build.measure_s + build.train_s);
    measure_s.push_back(build.measure_s);
    train_s.push_back(build.train_s);
    prints.push_back(predictor_fingerprint(*build.predictor));
  }
  const bool same =
      std::all_of(prints.begin(), prints.end(),
                  [&](std::uint64_t p) { return p == prints[0]; });
  report.check("set-up builds identical", same,
               std::to_string(repeats) + " builds, " + hex64(prints[0]));
  check_fingerprint(report, baseline,
                    std::string("predictor/") + (args.smoke ? "smoke" : "full"),
                    prints[0]);
  const bool sound = args.smoke || (build.held_out.rmse < 0.5 &&
                                    build.held_out.pearson > 0.99);
  report.check("predictor held-out", sound,
               build.held_out.to_string(build.predictor->unit()));
  report.metric("setup_s", "s", quantile(total_s, 0.5), repeats);
  report.layer("hw.measure_s", "s", quantile(measure_s, 0.5), repeats);
  report.layer("predictors.train_s", "s", quantile(train_s, 0.5), repeats);
  setup.predictor = std::move(build.predictor);

  if (args.workload == "search_paper" || args.workload == "campaign_k8") {
    nn::SyntheticTaskConfig task;  // the CLI's search task
    if (args.smoke) {
      task.train_size = 512;
      task.valid_size = 256;
    }
    setup.task = nn::make_synthetic_task(task);
  }
  return setup;
}

// -------------------------------------------------------------- output

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Give every catalogue name a value: null where this workload does not
/// measure the metric, 0 for the count or share of a layer the workload
/// never calls. Per-layer names only in traced runs.
void complete(Report& report, const Catalogue& catalogue,
              const std::string& workload, bool traced) {
  for (const Catalogue::Entry& m : catalogue.end_to_end) {
    if (report.metrics().count(m.name) == 0) {
      report.metric(m.name, m.unit, std::nullopt, 0);
    }
  }
  if (!traced) return;
  for (const Catalogue::Entry& m : catalogue.per_layer) {
    if (report.layers().count(m.name) == 0) {
      report.layer(m.name, m.unit,
                   contains(m.idle, workload) ? std::optional<double>(0.0)
                                              : std::nullopt,
                   0);
    }
  }
}

void print_table(const std::string& title,
                 const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const auto& [name, m] : metrics) {
    if (m.value) {
      std::printf("  %-32s %14.6g %-9s n=%zu\n", name.c_str(), *m.value,
                  m.unit.c_str(), m.n);
    } else {
      std::printf("  %-32s %14s %-9s\n", name.c_str(), "null", m.unit.c_str());
    }
  }
}

// ------------------------------------------------------------ workloads

int run_one(const Args& args) {
  const std::size_t lanes = std::min<std::size_t>(4, online_cpus());
  bool program_changed = false;
  io::Json env = environment(lanes, &program_changed);
  const bool measured = !args.smoke && !program_changed;
  if (!args.smoke && program_changed) {
    std::fprintf(stderr,
                 "search_e2e: LIGHTNAS_PLAN/ISA/FAST is set; this run "
                 "is reported as unmeasured\n");
  }
  const Catalogue catalogue = Catalogue::load(E2E_METRICS);
  Report report(measured, catalogue.timing_units);
  const BaselineFingerprints baseline = load_baseline(args.baseline);

  const Setup setup = set_up(args, baseline, report);

  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.smoke = args.smoke;
  options.traced = !args.trace_path.empty();
  options.lanes = args.workload == "campaign_k8" ? lanes : 1;
  options.scratch_dir =
      args.scratch + "/" + args.workload + "." + std::to_string(getpid());
  env.set("lanes", io::Json(options.lanes));

  if (args.workload == "search_paper") {
    run_search_paper(options, setup, baseline, report);
  } else if (args.workload == "campaign_k8") {
    run_campaign_k8(options, setup, baseline, report);
  } else {
    run_serve(options,
              args.workload == "serve_zipf" ? serve_zipf_profile(args.smoke)
                                            : serve_cold_profile(args.smoke),
              setup, report);
  }
  std::filesystem::remove_all(options.scratch_dir);

  report.metric("peak_rss_mb", "MB", peak_rss_mb());
  report.metric("error_rate", "fraction",
                report.attempted() == 0
                    ? 1.0
                    : static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted()),
                report.attempted());
  complete(report, catalogue, args.workload, options.traced);

  if (options.traced) {
    const bool wrote = trace::write_chrome_trace(args.trace_path);
    report.check("trace written", wrote && trace::dropped() == 0,
                 args.trace_path + " (" + std::to_string(trace::dropped()) +
                     " spans dropped)");
  }

  io::Json doc = report.to_json();
  doc.set("schema", io::Json("search_e2e/1"));
  doc.set("workload", io::Json(args.workload));
  doc.set("seed", io::Json(static_cast<std::size_t>(args.seed)));
  doc.set("seconds", io::Json(args.seconds));
  doc.set("smoke", io::Json(args.smoke));
  doc.set("traced", io::Json(options.traced));
  doc.set("env", std::move(env));
  if (!args.out.empty()) io::write_json_file(args.out, doc);

  std::printf("search_e2e %s seed=%llu%s%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.smoke ? " (smoke)" : "", options.traced ? " (traced)" : "");
  print_table("end-to-end:", report.metrics());
  if (options.traced) print_table("per-layer:", report.layers());
  std::printf("correct=%s attempted=%zu failed=%zu\n",
              report.correct() ? "true" : "false", report.attempted(),
              report.failed());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

/// --workload all: each workload in its own process (so set-up time and
/// peak RSS are per workload), merged into one document.
int run_all(const Args& args, const char* self) {
  io::Json merged = io::Json::object();
  io::Json docs = io::Json::object();
  bool all_ok = true;
  for (const std::string& workload : kWorkloads) {
    const std::string out =
        (args.out.empty() ? std::string("search_e2e") : args.out) + "." +
        workload + ".json";
    std::vector<std::string> argv_s = {
        self, "--workload", workload, "--seed", std::to_string(args.seed),
        "--seconds", std::to_string(args.seconds), "--out", out,
        "--scratch", args.scratch};
    if (args.smoke) argv_s.push_back("--smoke");
    if (!args.baseline.empty()) {
      argv_s.push_back("--baseline");
      argv_s.push_back(args.baseline);
    }
    if (!args.trace_path.empty()) {
      argv_s.push_back("--trace");
      argv_s.push_back("trace_" + workload + ".json");
    }
    std::vector<char*> argv_c;
    for (std::string& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, self, nullptr, nullptr, argv_c.data(), environ) !=
        0) {
      std::fprintf(stderr, "search_e2e: cannot start %s\n", self);
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    all_ok = all_ok && ok;
    try {
      docs.set(workload, io::read_json_file(out));
      std::filesystem::remove(out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "search_e2e: %s: %s\n", workload.c_str(), e.what());
      all_ok = false;
    }
  }
  merged.set("schema", io::Json("search_e2e/1"));
  merged.set("workloads", std::move(docs));
  if (!args.out.empty()) io::write_json_file(args.out, merged);
  std::printf("search_e2e all: %s\n", all_ok ? "every workload correct"
                                             : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace lightnas::e2e

int main(int argc, char** argv) {
  using namespace lightnas::e2e;
  const Args args = parse_args(argc, argv);
  try {
    if (args.workload == "all") return run_all(args, "/proc/self/exe");
    return run_one(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "search_e2e: %s\n", e.what());
    return 1;
  }
}
