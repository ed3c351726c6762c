#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "io/serialize.hpp"
#include "nn/ops.hpp"
#include "predictors/lut_predictor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "predictors/ensemble.hpp"
#include "predictors/oracle.hpp"
#include "util/stats.hpp"

namespace lightnas::predictors {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  space::SearchSpace space_ = space::SearchSpace::fbnet_xavier();
  hw::HardwareSimulator device_{hw::DeviceProfile::jetson_xavier_maxn(), 8,
                                42};
};

TEST_F(PredictorTest, DatasetBuilderShapesAndEncodings) {
  util::Rng rng(1);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 50, Metric::kLatencyMs, rng);
  EXPECT_EQ(data.size(), 50u);
  ASSERT_EQ(data.architectures.size(), 50u);
  for (const space::Architecture& arch : data.architectures) {
    const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
    ASSERT_EQ(enc.size(), space_.num_layers() * space_.num_ops());
    float total = 0.0f;
    for (float v : enc) total += v;
    EXPECT_FLOAT_EQ(total, static_cast<float>(space_.num_layers()));
  }
  for (double t : data.targets) EXPECT_GT(t, 0.0);
}

TEST_F(PredictorTest, DatasetSplitFractions) {
  util::Rng rng(2);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 100, Metric::kLatencyMs, rng);
  const auto [train, valid] = data.split(0.8, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(valid.size(), 20u);
}

TEST_F(PredictorTest, BiasedSamplingWidensCostRange) {
  util::Rng rng_a(3), rng_b(3);
  const MeasurementDataset uniform = build_measurement_dataset(
      space_, device_, 400, Metric::kLatencyMs, rng_a, 0.0);
  const MeasurementDataset enriched = build_measurement_dataset(
      space_, device_, 400, Metric::kLatencyMs, rng_b, 0.6);
  const double uniform_range = util::max_of(uniform.targets) -
                               util::min_of(uniform.targets);
  const double enriched_range = util::max_of(enriched.targets) -
                                util::min_of(enriched.targets);
  EXPECT_GT(enriched_range, uniform_range);
}

TEST_F(PredictorTest, MlpLearnsLatencyToLowRmse) {
  util::Rng rng(4);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 1200, Metric::kLatencyMs, rng);
  auto [train, valid] = data.split(0.8, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 60;
  config.batch_size = 64;
  mlp.train(train, config);
  const PredictorReport report = mlp.evaluate(valid);
  EXPECT_LT(report.rmse, 0.6);      // << the multi-ms latency spread
  EXPECT_GT(report.pearson, 0.97);
  EXPECT_GT(report.kendall, 0.8);
  EXPECT_LT(std::abs(report.bias), 0.2);
}

TEST_F(PredictorTest, MlpForwardVarMatchesPredict) {
  util::Rng rng(5);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 10;
  mlp.train(data, config);

  const space::Architecture arch = space_.random_architecture(rng);
  const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
  nn::Tensor x(1, enc.size());
  std::copy(enc.begin(), enc.end(), x.data().begin());
  const nn::VarPtr out = mlp.forward_var(nn::make_const(std::move(x)));
  EXPECT_NEAR(out->value.item(), mlp.predict(arch), 1e-3);
}

// Regression: a state blob whose shapes array is shorter than its
// tensors array used to index state.shapes[i] out of bounds during
// reconstruction. Every count mismatch must be a clean runtime_error.
TEST_F(PredictorTest, FromStateRejectsInconsistentStateBlobs) {
  const MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  const MlpPredictor::State good = predictor.export_state();
  ASSERT_EQ(good.tensors.size(), good.shapes.size());

  // Round trip of a consistent blob works.
  EXPECT_NO_THROW(MlpPredictor::from_state(good));

  MlpPredictor::State missing_shape = good;
  missing_shape.shapes.pop_back();
  EXPECT_THROW(MlpPredictor::from_state(missing_shape),
               std::runtime_error);

  MlpPredictor::State no_shapes = good;
  no_shapes.shapes.clear();
  EXPECT_THROW(MlpPredictor::from_state(no_shapes), std::runtime_error);

  MlpPredictor::State missing_tensor = good;
  missing_tensor.tensors.pop_back();
  EXPECT_THROW(MlpPredictor::from_state(missing_tensor),
               std::runtime_error);

  MlpPredictor::State bad_shape = good;
  bad_shape.shapes.front().first += 1;
  EXPECT_THROW(MlpPredictor::from_state(bad_shape), std::runtime_error);
}

// Regression: these checks were asserts, so a Release build with batch
// size 0 spun forever in the batch loop (`start += 0`), and a one-sample
// or narrow-encoding dataset went unchecked. Every build must reject them.
TEST_F(PredictorTest, TrainRejectsBadInputInEveryBuild) {
  util::Rng rng(4);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 8, Metric::kLatencyMs, rng);
  MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 1;

  config.batch_size = 0;
  EXPECT_THROW(predictor.train(data, config), std::invalid_argument);
  config.batch_size = 4;

  MeasurementDataset one = data;
  one.architectures.resize(1);
  one.targets.resize(1);
  EXPECT_THROW(predictor.train(one, config), std::invalid_argument);

  MeasurementDataset missing = data;
  missing.architectures.pop_back();
  EXPECT_THROW(predictor.train(missing, config), std::invalid_argument);

  // The last row is bad, so every check must run before the first step.
  MeasurementDataset shallow = data;
  shallow.architectures.back() = space::Architecture({0, 1, 2, 3, 4});
  EXPECT_THROW(predictor.train(shallow, config), std::invalid_argument);

  MeasurementDataset wide_op = data;
  wide_op.architectures.back().set_op(3, space_.num_ops());
  EXPECT_THROW(predictor.train(wide_op, config), std::out_of_range);

  EXPECT_FALSE(predictor.is_trained());
  MlpPredictor fresh(space_.num_layers(), space_.num_ops(), 7);
  fresh.train(data, config);
  predictor.train(data, config);
  EXPECT_EQ(predictor.export_state().tensors, fresh.export_state().tensors);
}

// Regression: the predict paths only asserted the width, so in Release
// eval-predictor on a 5-layer dataset reported an RMSE computed from the
// unset tail of the input row, and a longer encoding overran it.
TEST_F(PredictorTest, PredictAndEvaluateRejectBadInputInEveryBuild) {
  util::Rng rng(5);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 8, Metric::kLatencyMs, rng);
  MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 1;
  predictor.train(data, config);

  const space::Architecture short_arch({0, 1, 2, 3, 4});
  EXPECT_THROW(predictor.predict(short_arch), std::invalid_argument);
  EXPECT_THROW(predictor.predict_batch({data.architectures[0], short_arch}),
               std::invalid_argument);
  std::vector<std::size_t> deep_ops = data.architectures.front().ops();
  deep_ops.push_back(0);
  const space::Architecture deep_arch(deep_ops);
  EXPECT_THROW(predictor.predict(deep_arch), std::invalid_argument);
  EXPECT_THROW(predictor.predict_batch({data.architectures[0], deep_arch}),
               std::invalid_argument);

  MeasurementDataset shallow = data;
  shallow.architectures.back() = short_arch;
  EXPECT_THROW(predictor.evaluate(shallow), std::invalid_argument);

  // An op past num_ops would set the next layer's slot, or write past
  // the row in the last layer.
  space::Architecture wide_op = data.architectures.front();
  wide_op.set_op(wide_op.num_layers() - 1, space_.num_ops());
  EXPECT_THROW(predictor.predict(wide_op), std::out_of_range);
  EXPECT_THROW(predictor.predict_batch({data.architectures[0], wide_op}),
               std::out_of_range);
  MeasurementDataset bad_op = data;
  bad_op.architectures.back() = wide_op;
  EXPECT_THROW(predictor.evaluate(bad_op), std::out_of_range);

  MeasurementDataset extra_target = data;
  extra_target.targets.push_back(1.0);
  EXPECT_THROW(predictor.evaluate(extra_target), std::invalid_argument);

  EXPECT_NO_THROW(predictor.evaluate(data));
}

// FNV-1a over the bit patterns of a predictor's weights and target
// normalization.
std::uint64_t weight_fingerprint(const MlpPredictor& predictor) {
  const MlpPredictor::State state = predictor.export_state();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](const void* bytes, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  add(&state.target_mean, sizeof(double));
  add(&state.target_std, sizeof(double));
  for (const std::vector<float>& tensor : state.tensors) {
    add(tensor.data(), tensor.size() * sizeof(float));
  }
  return h;
}

// Golden: training writes each batch's one-hot rows from the
// architectures, and the weights must be bit-identical to those trained
// from stored encodings. The value was recorded from that older build
// (100 samples, so the last batch of 32 is partial).
TEST_F(PredictorTest, TrainedWeightsMatchGolden) {
  util::Rng rng(21);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 100, Metric::kLatencyMs, rng);
  MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 3;
  config.batch_size = 32;
  predictor.train(data, config);
  EXPECT_EQ(weight_fingerprint(predictor), 0x31a86ac2f2a2e009ULL);
}

// predict_batch writes its rows into one tensor and runs the graph-free
// forward; each answer must equal the 1-row autograd forward of predict,
// including a repeated architecture and a batch that is not a multiple
// of the kernel's row block.
TEST_F(PredictorTest, PredictBatchMatchesPredictBitForBit) {
  util::Rng rng(22);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 120, Metric::kLatencyMs, rng);
  MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 2;
  predictor.train(data, config);

  std::vector<space::Architecture> archs(data.architectures.begin(),
                                         data.architectures.begin() + 37);
  archs.push_back(archs[5]);
  const std::vector<double> batched = predictor.predict_batch(archs);
  ASSERT_EQ(batched.size(), archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(batched[i], predictor.predict(archs[i])) << "row " << i;
  }
}

// Regression: predict, predict_batch and forward_var only asserted that
// the predictor was trained, and io::load_predictor accepts
// "trained": false, so in Release `lightnas predict` on such a file
// printed the untrained network's answer and exited 0.
TEST_F(PredictorTest, UntrainedPredictorThrowsInEveryBuild) {
  const MlpPredictor fresh(space_.num_layers(), space_.num_ops(), 7);
  const std::string file =
      ::testing::TempDir() + "untrained_predictor_test.json";
  io::save_predictor(file, fresh);
  const MlpPredictor reloaded = io::load_predictor(file);
  std::remove(file.c_str());

  const space::Architecture arch = space_.uniform_architecture(0);
  for (const MlpPredictor* predictor : {&fresh, &reloaded}) {
    ASSERT_FALSE(predictor->is_trained());
    EXPECT_THROW(predictor->predict(arch), std::logic_error);
    EXPECT_THROW(predictor->predict_batch({arch}), std::logic_error);
    EXPECT_THROW(predictor->predict_batch({}), std::logic_error);
    EXPECT_THROW(predictor->forward_var(nn::make_const(
                     nn::Tensor(1, predictor->input_dim()))),
                 std::logic_error);
    EXPECT_THROW(predictor->evaluate(MeasurementDataset{}),
                 std::logic_error);
  }
}

TEST_F(PredictorTest, MlpIsDifferentiableWrtEncoding) {
  util::Rng rng(6);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 10;
  mlp.train(data, config);

  const space::Architecture arch = space_.random_architecture(rng);
  const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
  nn::Tensor x(1, enc.size());
  std::copy(enc.begin(), enc.end(), x.data().begin());
  nn::VarPtr input = nn::make_leaf(std::move(x));
  nn::backward(mlp.forward_var(input));
  EXPECT_GT(input->grad.abs_max(), 0.0f);  // dLAT/dencoding exists (Eq 12)
}

TEST_F(PredictorTest, LutEntriesPositiveAndComplete) {
  const LutPredictor lut(space_, device_);
  EXPECT_EQ(lut.num_layers(), space_.num_layers());
  EXPECT_EQ(lut.num_ops(), space_.num_ops());
  for (std::size_t l = 0; l < lut.num_layers(); ++l) {
    for (std::size_t k = 0; k < lut.num_ops(); ++k) {
      EXPECT_GT(lut.entry(l, k), 0.0);
    }
  }
}

TEST_F(PredictorTest, LutPredictIsSumOfEntries) {
  const LutPredictor lut(space_, device_);
  const space::Architecture arch = space_.mobilenet_v2_like();
  double manual = 0.0;
  for (std::size_t l = 0; l < space_.num_layers(); ++l) {
    manual += lut.entry(l, arch.op_at(l));
  }
  EXPECT_NEAR(lut.predict(arch), manual, 1e-9);
}

// evaluate writes each architecture's row and dots it with the table: the
// same sum, in the same layer order, as predict. A row it cannot write
// is a typed error.
TEST_F(PredictorTest, LutEvaluateMatchesPredictAndRejectsBadRows) {
  const LutPredictor lut(space_, device_);
  util::Rng rng(9);
  MeasurementDataset data = build_measurement_dataset(
      space_, device_, 20, Metric::kLatencyMs, rng);
  std::vector<double> predicted;
  for (const space::Architecture& arch : data.architectures) {
    predicted.push_back(lut.predict(arch));
  }
  const PredictorReport direct = evaluate_predictions(predicted, data.targets);
  EXPECT_EQ(lut.evaluate(data).rmse, direct.rmse);

  data.architectures.back().set_op(0, space_.num_ops());
  EXPECT_THROW(lut.evaluate(data), std::out_of_range);
  data.architectures.back() = space::Architecture({0, 1, 2});
  EXPECT_THROW(lut.evaluate(data), std::invalid_argument);
}

TEST_F(PredictorTest, LutShowsSystematicPositiveBias) {
  // Fig 5 (right): the LUT consistently over-predicts (isolated
  // measurements include per-op sync overheads the fused network run
  // does not pay).
  const LutPredictor lut(space_, device_);
  util::Rng rng(8);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 200, Metric::kLatencyMs, rng);
  const PredictorReport report = lut.evaluate(data);
  EXPECT_GT(report.bias, 5.0);  // multi-ms constant gap
  EXPECT_GT(report.debiased_rmse, 0.05);
  EXPECT_GT(report.pearson, 0.95);  // still strongly rank-correlated
}

TEST_F(PredictorTest, MlpBeatsDebiasedLutOnHeldout) {
  // The paper's headline predictor claim: MLP RMSE (0.04 ms) is well
  // below even the debiased LUT RMSE (0.41 ms). We check the ordering at
  // reduced scale.
  util::Rng rng(9);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 2500, Metric::kLatencyMs, rng);
  auto [train, valid] = data.split(0.8, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 110;
  config.batch_size = 64;
  mlp.train(train, config);
  const LutPredictor lut(space_, device_);
  EXPECT_LT(mlp.evaluate(valid).rmse, lut.evaluate(valid).debiased_rmse);
}

TEST_F(PredictorTest, EnergyPredictorWorksThroughSameMachinery) {
  util::Rng rng(10);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 1200, Metric::kEnergyMj, rng);
  auto [train, valid] = data.split(0.8, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7, "mJ");
  MlpTrainConfig config;
  config.epochs = 60;
  mlp.train(train, config);
  const PredictorReport report = mlp.evaluate(valid);
  EXPECT_EQ(mlp.unit(), "mJ");
  EXPECT_GT(report.pearson, 0.95);
  // Energy targets are in the hundreds of mJ; RMSE should be a tiny
  // fraction of the spread despite thermal noise.
  EXPECT_LT(report.rmse, 40.0);
}

TEST_F(PredictorTest, OracleMatchesCostModel) {
  const SimulatorOracle oracle(space_, device_.model(),
                               Metric::kLatencyMs);
  const space::Architecture arch = space_.mobilenet_v2_like();
  EXPECT_DOUBLE_EQ(oracle.predict(arch),
                   device_.model().network_latency_ms(space_, arch));
  EXPECT_EQ(oracle.unit(), "ms");
  const SimulatorOracle energy(space_, device_.model(), Metric::kEnergyMj);
  EXPECT_EQ(energy.unit(), "mJ");
  EXPECT_DOUBLE_EQ(energy.predict(arch),
                   device_.model().network_energy_mj(space_, arch));
}

TEST_F(PredictorTest, EnsembleAtLeastMatchesWorstMember) {
  util::Rng rng(11);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 1000, Metric::kLatencyMs, rng);
  auto [train, valid] = data.split(0.8, rng);
  EnsemblePredictor ensemble(space_.num_layers(), space_.num_ops(), 3);
  MlpTrainConfig config;
  config.epochs = 30;
  ensemble.train(train, config);
  const double ensemble_rmse = ensemble.evaluate(valid).rmse;
  double worst_member = 0.0;
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    worst_member =
        std::max(worst_member, ensemble.member(m).evaluate(valid).rmse);
  }
  EXPECT_LE(ensemble_rmse, worst_member);
}

TEST_F(PredictorTest, EnsembleForwardVarIsMemberMean) {
  util::Rng rng(12);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  EnsemblePredictor ensemble(space_.num_layers(), space_.num_ops(), 2);
  MlpTrainConfig config;
  config.epochs = 8;
  ensemble.train(data, config);

  const space::Architecture arch = space_.random_architecture(rng);
  const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
  nn::Tensor x(1, enc.size());
  std::copy(enc.begin(), enc.end(), x.data().begin());
  const nn::VarPtr out = ensemble.forward_var(nn::make_const(std::move(x)));
  EXPECT_NEAR(out->value.item(), ensemble.predict(arch), 1e-3);
  const double manual_mean = (ensemble.member(0).predict(arch) +
                              ensemble.member(1).predict(arch)) /
                             2.0;
  EXPECT_NEAR(ensemble.predict(arch), manual_mean, 1e-6);
}

TEST_F(PredictorTest, EnsembleUncertaintyProperties) {
  util::Rng rng(13);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 600, Metric::kLatencyMs, rng);
  EnsemblePredictor ensemble(space_.num_layers(), space_.num_ops(), 4);
  MlpTrainConfig config;
  config.epochs = 15;
  ensemble.train(data, config);

  // Disagreement is non-negative everywhere and strictly positive
  // somewhere (independently-initialized members never coincide).
  double max_unc = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double u = ensemble.uncertainty(space_.random_architecture(rng));
    EXPECT_GE(u, 0.0);
    max_unc = std::max(max_unc, u);
  }
  EXPECT_GT(max_unc, 0.0);

  // A single-member "ensemble" has zero disagreement by construction.
  EnsemblePredictor solo(space_.num_layers(), space_.num_ops(), 1);
  MlpTrainConfig solo_config;
  solo_config.epochs = 5;
  solo.train(data, solo_config);
  EXPECT_DOUBLE_EQ(solo.uncertainty(space_.mobilenet_v2_like()), 0.0);
}

TEST_F(PredictorTest, ReportToStringContainsMetrics) {
  const PredictorReport report =
      evaluate_predictions({1.0, 2.0, 3.0}, {1.1, 2.1, 2.9});
  const std::string text = report.to_string("ms");
  EXPECT_NE(text.find("RMSE"), std::string::npos);
  EXPECT_NE(text.find("kendall"), std::string::npos);
}

}  // namespace
}  // namespace lightnas::predictors
