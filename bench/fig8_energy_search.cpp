// Reproduces Figure 8: (left) the same predictor machinery trained on
// energy measurements; (right) the search under an energy constraint of
// 500 mJ. Demonstrates the Sec 4.3 generality claim: only the predictor
// is swapped, the engine is untouched.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/lightnas.hpp"
#include "util/csv.hpp"
#include "util/plot.hpp"
#include "util/table.hpp"

using namespace lightnas;

int main() {
  bench::banner("fig8_energy_search",
                "Figure 8 (energy predictor + search at 500 mJ)");
  bench::Pipeline pipeline;

  // --- left panel: energy predictor quality --------------------------
  const std::size_t samples = bench::scaled(10000, 2500);
  util::Rng rng(2);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(pipeline.space, pipeline.device,
                                            samples,
                                            predictors::Metric::kEnergyMj,
                                            rng);
  auto [train, valid] = data.split(0.8, rng);
  predictors::MlpPredictor energy(pipeline.space.num_layers(),
                                  pipeline.space.num_ops(), 9, "mJ");
  predictors::MlpTrainConfig train_config;
  train_config.epochs = bench::scaled(150, 60);
  train_config.batch_size = 128;
  energy.train(train, train_config);
  const predictors::PredictorReport report = energy.evaluate(valid);
  std::printf("energy predictor (%zu measurements): %s\n", samples,
              report.to_string("mJ").c_str());
  std::printf(
      "(energy measurements carry thermal noise, Sec 4.3 — the RMSE floor\n"
      " is set by the device, not the predictor)\n\n");

  util::CsvWriter scatter({"measured_mj", "predicted_mj"});
  for (std::size_t i = 0; i < valid.size(); ++i) {
    scatter.add_row(std::vector<double>{
        valid.targets[i], energy.predict(valid.architectures[i])});
  }
  scatter.write_file("fig8_energy_predictor.csv");

  // --- right panel: energy-constrained search ------------------------
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = bench::scaled(16384, 4096);
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  const double target_mj = 500.0;  // the paper's constraint
  core::LightNasConfig config;
  config.target = target_mj;
  config.seed = 21;
  if (bench::fast_mode()) {
    config.epochs = 24;
    config.warmup_epochs = 8;
    config.w_steps_per_epoch = 24;
    config.alpha_steps_per_epoch = 16;
  }
  core::LightNas engine(pipeline.space, energy, task,
                        core::SupernetConfig{}, config);
  const core::SearchResult result = engine.search();

  util::CsvWriter trace({"epoch", "derived_pred_mj", "lambda"});
  for (const core::SearchEpochStats& stats : result.trace) {
    trace.add_row(std::vector<double>{static_cast<double>(stats.epoch),
                                      stats.predicted_cost, stats.lambda});
  }
  trace.write_file("fig8_energy_search_trace.csv");

  {
    std::vector<double> derived;
    for (const core::SearchEpochStats& stats : result.trace) {
      derived.push_back(stats.predicted_cost);
    }
    util::AsciiChart chart(64, 14);
    chart.add_hline(target_mj, '.');
    chart.add_series("derived arch predicted energy (mJ)", derived, '*');
    std::printf("search trace (x-axis: epoch):\n%s\n",
                chart.render().c_str());
  }

  util::Table table({"quantity", "value"});
  table.add_row({"energy constraint T_E", "500.0 mJ"});
  table.add_row({"predicted energy of searched arch",
                 util::fmt_double(result.final_predicted_cost, 1) + " mJ"});
  table.add_row(
      {"measured energy (noise-free model)",
       util::fmt_double(pipeline.cost().network_energy_mj(
                            pipeline.space, result.architecture),
                        1) +
           " mJ"});
  table.add_row(
      {"corresponding latency",
       util::fmt_double(pipeline.cost().network_latency_ms(
                            pipeline.space, result.architecture),
                        1) +
           " ms"});
  table.add_row({"final lambda", util::fmt_double(result.final_lambda, 3)});
  table.print(std::cout);

  std::printf(
      "\nPaper's shape: the energy-constrained search converges to the\n"
      "500 mJ budget exactly like the latency-constrained one — the\n"
      "framework is metric-agnostic (Sec 3.5 / 4.3).\n");
  return 0;
}
