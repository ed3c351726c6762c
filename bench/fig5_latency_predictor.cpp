// Reproduces Figure 5: the MLP latency predictor (left) against the
// latency lookup table (right). The paper reports MLP RMSE ~0.04 ms,
// a consistent LUT gap of ~11.5 ms and a debiased LUT RMSE of ~0.41 ms.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "predictors/lut_predictor.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace lightnas;

int main() {
  bench::banner("fig5_latency_predictor",
                "Figure 5 (MLP latency predictor vs lookup table)");
  bench::Pipeline pipeline;

  // The paper's campaign: 10,000 measured architectures, 80/20 split.
  const std::size_t samples = bench::scaled(10000, 2500);
  util::Rng rng(1);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(pipeline.space, pipeline.device,
                                            samples,
                                            predictors::Metric::kLatencyMs,
                                            rng);
  auto [train, valid] = data.split(0.8, rng);
  std::printf("campaign: %zu measurements (%zu train / %zu valid)\n\n",
              samples, train.size(), valid.size());

  predictors::MlpPredictor mlp(pipeline.space.num_layers(),
                               pipeline.space.num_ops(), 7);
  predictors::MlpTrainConfig config;
  config.epochs = bench::scaled(150, 60);
  config.batch_size = 128;
  mlp.train(train, config);
  const predictors::PredictorReport mlp_report = mlp.evaluate(valid);

  const predictors::LutPredictor lut(pipeline.space, pipeline.device);
  const predictors::PredictorReport lut_report = lut.evaluate(valid);

  util::Table table({"predictor", "RMSE (ms)", "bias (ms)",
                     "debiased RMSE (ms)", "pearson", "kendall"});
  table.add_row({"MLP (ours, Sec 3.2)", util::fmt_double(mlp_report.rmse, 3),
                 util::fmt_double(mlp_report.bias, 3),
                 util::fmt_double(mlp_report.debiased_rmse, 3),
                 util::fmt_double(mlp_report.pearson, 4),
                 util::fmt_double(mlp_report.kendall, 4)});
  table.add_row({"LUT [4,5,18]", util::fmt_double(lut_report.rmse, 3),
                 util::fmt_double(lut_report.bias, 3),
                 util::fmt_double(lut_report.debiased_rmse, 3),
                 util::fmt_double(lut_report.pearson, 4),
                 util::fmt_double(lut_report.kendall, 4)});
  table.print(std::cout);

  // Dump the scatter for plotting (Fig 5's two panels).
  util::CsvWriter csv({"measured_ms", "mlp_predicted_ms",
                       "lut_predicted_ms"});
  for (std::size_t i = 0; i < valid.size(); ++i) {
    csv.add_row(std::vector<double>{
        valid.targets[i], mlp.predict(valid.architectures[i]),
        lut.predict(valid.architectures[i])});
  }
  csv.write_file("fig5_latency_predictor.csv");

  std::printf(
      "\nPaper's numbers: MLP RMSE = 0.04 ms; LUT gap ~ 11.48 ms with\n"
      "0.41 ms RMSE after debiasing. Expected shape: MLP RMSE well under\n"
      "the debiased LUT RMSE, LUT bias in the ~10 ms range (one isolated\n"
      "measurement sync per layer), both predictors strongly rank-\n"
      "correlated with ground truth.\n");
  return 0;
}
