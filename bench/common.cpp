#include "common.hpp"

#include <cstdio>

#include "predictors/dataset.hpp"
#include "util/rng.hpp"

namespace lightnas::bench {

bool fast_mode() {
  const char* env = std::getenv("LIGHTNAS_FAST");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::size_t scaled(std::size_t full, std::size_t fast) {
  return fast_mode() ? fast : full;
}

namespace {

std::unique_ptr<predictors::MlpPredictor> train_predictor(
    Pipeline& pipeline, predictors::Metric metric, std::size_t samples,
    std::size_t epochs, std::uint64_t seed, const char* unit) {
  if (samples == 0) samples = scaled(10000, 2500);
  if (epochs == 0) epochs = scaled(120, 60);
  util::Rng rng(seed);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(pipeline.space, pipeline.device,
                                            samples, metric, rng);
  auto predictor = std::make_unique<predictors::MlpPredictor>(
      pipeline.space.num_layers(), pipeline.space.num_ops(), seed + 100,
      unit);
  predictors::MlpTrainConfig config;
  config.epochs = epochs;
  config.batch_size = 128;
  predictor->train(data, config);
  return predictor;
}

}  // namespace

std::unique_ptr<predictors::MlpPredictor> train_latency_predictor(
    Pipeline& pipeline, std::size_t samples, std::size_t epochs,
    std::uint64_t seed) {
  return train_predictor(pipeline, predictors::Metric::kLatencyMs, samples,
                         epochs, seed, "ms");
}

std::unique_ptr<predictors::MlpPredictor> train_energy_predictor(
    Pipeline& pipeline, std::size_t samples, std::size_t epochs,
    std::uint64_t seed) {
  return train_predictor(pipeline, predictors::Metric::kEnergyMj, samples,
                         epochs, seed, "mJ");
}

void update_bench_json(const std::string& path, const std::string& key,
                       const io::Json& section) {
  io::Json root = io::Json::object();
  try {
    io::Json existing = io::read_json_file(path);
    if (existing.type() == io::Json::Type::kObject) root = std::move(existing);
  } catch (...) {
    // Missing or corrupt file: start fresh.
  }
  root.set(key, section);
  io::write_json_file(path, root);
}

io::Json reading(bool measured, double value) {
  return measured ? io::Json(value) : io::Json();
}

void banner(const std::string& title, const std::string& paper_artifact) {
  std::printf("=======================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_artifact.c_str());
  std::printf("Substrate : simulated Jetson AGX Xavier (MAXN, batch 8)\n");
  if (fast_mode()) std::printf("Mode      : FAST (reduced scale)\n");
  std::printf("=======================================================\n\n");
}

}  // namespace lightnas::bench
