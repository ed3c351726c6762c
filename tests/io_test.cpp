#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "io/serialize.hpp"
#include "legacy_tensors.hpp"

namespace lightnas::io {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-42").as_number(), -42.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\te")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\te");
  // Round-trip through dump.
  EXPECT_EQ(Json::parse(j.dump()).as_string(), j.as_string());
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

// A \u escape is exactly four hex digits. std::stoul used to read the
// sign or space of "\u-001" and "\u 12a" and throw std::invalid_argument
// on "\uzzzz".
TEST(Json, UnicodeEscapeNeedsFourHexDigits) {
  EXPECT_EQ(Json::parse(R"("\u00e9\u00C9")").as_string(), "\xc3\xa9\xc3\x89");
  for (const char* text : {R"("\uzzzz")", R"("\u-001")", R"("\u 12a")",
                           R"("\u+7ff")", R"("\u12")", R"("\u12)"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad \\u escape"),
                std::string::npos)
          << text << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << text << " threw an untyped " << e.what();
    }
  }
}

TEST(Json, ArraysAndObjects) {
  const Json j = Json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.0);
  EXPECT_TRUE(j.at("b").at("c").as_bool());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("z"));
}

TEST(Json, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("name", Json("lightnas"));
  obj.set("values", Json::from_doubles({1.5, -2.25, 1e-6}));
  obj.set("flag", Json(true));
  Json nested = Json::object();
  nested.set("x", Json(7));
  obj.set("nested", std::move(nested));

  const Json restored = Json::parse(obj.dump());
  EXPECT_EQ(restored.at("name").as_string(), "lightnas");
  EXPECT_DOUBLE_EQ(restored.at("values").at(2).as_number(), 1e-6);
  EXPECT_DOUBLE_EQ(restored.at("nested").at("x").as_number(), 7.0);
}

// Every float bit pattern survives the f32 tensor codec, -0, NaN
// payloads and signalling NaNs included. Each prefix of the values is
// its own tensor, so all three base64 paddings and the empty tensor
// round-trip too.
TEST(Json, F32TensorRoundTripIsBitExact) {
  const std::vector<std::uint32_t> patterns{
      0x7fc00123u, 0xffc00001u, 0x7f800001u, 0x7fffffffu};
  std::vector<float> values{1.0f,
                            -0.333333343f,
                            3.14159274f,
                            1e-20f,
                            123456.789f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40f,
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (std::uint32_t bits : patterns) {
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  for (std::size_t n = 0; n <= values.size(); ++n) {
    nn::Tensor t(1, n);
    std::copy_n(values.begin(), n, t.data().begin());
    const nn::Tensor back = detail::tensor_from_json(
        Json::parse(detail::tensor_to_json(t).dump()));
    ASSERT_EQ(back.rows(), 1u);
    ASSERT_EQ(back.cols(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(back[k]),
                std::bit_cast<std::uint32_t>(values[k]))
          << n << " values, index " << k;
    }
  }
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]2"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  // A malformed number is an error, not its longest valid prefix.
  for (const char* text : {"[1-2]", "1e", "1e+", "1.2.3", "01", "+1"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed number"),
                std::string::npos) << text << ": " << e.what();
    }
  }
}

// memcmp, not ==: -0.0 == 0.0, and a subnormal that decays to zero or a
// neighbour must not pass.
void expect_bits_round_trip(double v) {
  const double back = Json::parse(Json(v).dump()).as_number();
  EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
      << Json(v).dump() << " came back as " << back;
}

TEST(Json, ExtremeDoublesRoundTripBitExact) {
  expect_bits_round_trip(5e-324);
  expect_bits_round_trip(1e-310);
  expect_bits_round_trip(std::numeric_limits<double>::min());
  expect_bits_round_trip(std::numeric_limits<double>::max());
  expect_bits_round_trip(-0.0);
  expect_bits_round_trip(
      static_cast<double>(std::numeric_limits<float>::denorm_min()));
  // The literals Json::dump writes for subnormals parse back exactly.
  EXPECT_EQ(Json::parse("4.9406564584124654e-324").as_number(), 5e-324);
  EXPECT_EQ(Json::parse("1e-310").as_number(), 1e-310);
  EXPECT_EQ(Json::parse("2.2250738585072009e-308").as_number(),
            2.2250738585072009e-308);
  EXPECT_THROW(Json::parse("1e999"), std::runtime_error);
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, NestingDepthIsCapped) {
  const Json at_cap = Json::parse(nested_arrays(Json::kMaxDepth));
  EXPECT_EQ(at_cap.size(), 1u);
  EXPECT_THROW(Json::parse(nested_arrays(Json::kMaxDepth + 1)),
               std::runtime_error);
  // Far past the cap: a typed error, not a stack overflow.
  EXPECT_THROW(Json::parse(std::string(1000000, '[')), std::runtime_error);
  EXPECT_THROW(Json::parse(nested_arrays(1000000)), std::runtime_error);
}

TEST(Json, AccessorsThrowOnWrongType) {
  Json arr = Json::array();
  arr.push_back(Json(1));
  Json obj = Json::object();
  obj.set("k", Json(1));
  const std::vector<Json> samples{Json(), Json(true), Json(2.5),
                                  Json("s"), arr, obj};
  using T = Json::Type;
  const std::vector<std::pair<T, std::function<void(Json&)>>> accessors{
      {T::kBool, [](Json& j) { (void)j.as_bool(); }},
      {T::kNumber, [](Json& j) { (void)j.as_number(); }},
      {T::kString, [](Json& j) { (void)j.as_string(); }},
      {T::kArray, [](Json& j) { (void)j.as_array(); }},
      {T::kObject, [](Json& j) { (void)j.as_object(); }},
      {T::kArray, [](Json& j) { j.push_back(Json(3)); }},
      {T::kObject, [](Json& j) { j.set("x", Json(3)); }},
      {T::kObject, [](Json& j) { (void)j.contains("k"); }},
      {T::kObject, [](Json& j) { (void)j.at("k"); }},
      {T::kArray, [](Json& j) { (void)j.at(std::size_t{0}); }},
  };
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  for (std::size_t a = 0; a < accessors.size(); ++a) {
    const auto& [expected, call] = accessors[a];
    for (const Json& sample : samples) {
      Json j = sample;
      if (j.type() == expected) {
        EXPECT_NO_THROW(call(j)) << "accessor " << a;
        continue;
      }
      try {
        call(j);
        ADD_FAILURE() << "accessor " << a << " accepted "
                      << names[static_cast<int>(j.type())];
      } catch (const std::runtime_error& e) {
        const std::string want =
            std::string("expected ") + names[static_cast<int>(expected)];
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW((void)Json("s").number_or_nan(), std::runtime_error);
  EXPECT_THROW((void)Json(1).to_doubles(), std::runtime_error);
}

TEST(Json, CopyIsDeepAndMoveLeavesNull) {
  Json a = Json::object();
  a.set("v", Json::from_doubles({1.0, 2.0}));
  a.set("s", Json("text"));
  Json b = a;
  b.set("s", Json("changed"));
  EXPECT_EQ(a.at("s").as_string(), "text");
  Json c = std::move(b);
  EXPECT_TRUE(b.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.at("s").as_string(), "changed");
  c = c;  // self-assignment keeps the value
  EXPECT_EQ(c.at("v").size(), 2u);
  a = std::move(c);
  EXPECT_EQ(a.at("s").as_string(), "changed");
  EXPECT_EQ(a.dump(), R"({"s":"changed","v":[1,2]})");
  a = a.at("v");  // assigning a value its own child
  EXPECT_EQ(a.dump(), "[1,2]");
}

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of this fixture as
    // parallel processes, and TearDown removes the whole directory.
    dir_ = std::filesystem::temp_directory_path() /
           ("lightnas_io_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  space::SearchSpace space_ = space::SearchSpace::fbnet_xavier();
};

TEST_F(SerializeTest, PredictorRoundTripPreservesPredictions) {
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               42);
  util::Rng rng(1);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space_, device, 400, predictors::Metric::kLatencyMs, rng);
  predictors::MlpPredictor predictor(space_.num_layers(), space_.num_ops());
  predictors::MlpTrainConfig config;
  config.epochs = 15;
  predictor.train(data, config);

  save_predictor(path("predictor.json"), predictor);
  const predictors::MlpPredictor restored =
      load_predictor(path("predictor.json"));
  EXPECT_TRUE(restored.is_trained());
  EXPECT_EQ(restored.unit(), predictor.unit());
  for (int i = 0; i < 10; ++i) {
    const space::Architecture arch = space_.random_architecture(rng);
    EXPECT_NEAR(restored.predict(arch), predictor.predict(arch), 1e-5);
  }
}

TEST_F(SerializeTest, PredictorWrongKindRejected) {
  Json bogus = Json::object();
  bogus.set("kind", Json("something.else"));
  bogus.set("version", Json(1));
  write_json_file(path("bogus.json"), bogus);
  EXPECT_THROW(load_predictor(path("bogus.json")), std::runtime_error);
}

TEST_F(SerializeTest, DatasetRoundTrip) {
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               7);
  util::Rng rng(2);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space_, device, 50, predictors::Metric::kEnergyMj, rng);
  save_dataset(path("dataset.json"), data, space_.num_ops());
  const predictors::MeasurementDataset restored =
      load_dataset(path("dataset.json"));
  ASSERT_EQ(restored.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(restored.architectures[i].ops(), data.architectures[i].ops());
    EXPECT_NEAR(restored.targets[i], data.targets[i], 1e-6);
    EXPECT_EQ(restored.architectures[i], data.architectures[i]);
  }
}

// A dataset with num_ops = 3 and the given architecture strings.
Json dataset_json(const std::vector<std::string>& archs) {
  Json json = Json::object();
  json.set("kind", Json("lightnas.dataset"));
  json.set("version", Json(detail::format_version()));
  json.set("num_ops", Json(3));
  Json rows = Json::array();
  for (const std::string& arch : archs) {
    Json row = Json::object();
    row.set("arch", Json(arch));
    row.set("target", Json(1.5));
    rows.push_back(std::move(row));
  }
  json.set("rows", std::move(rows));
  return json;
}

std::string dataset_error(const std::vector<std::string>& archs) {
  try {
    dataset_from_json(dataset_json(archs));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Regression: the loader only asserted op < num_ops inside
// encode_one_hot, so in Release an op of num_ops in the last layer wrote
// past the encoding (heap corruption), one in a middle layer set the
// next layer's slot, and "-1" wrapped to 2^64 - 1.
TEST_F(SerializeTest, DatasetRejectsOutOfRangeOps) {
  EXPECT_EQ(dataset_from_json(dataset_json({"0,1,2", "2,2,0"})).size(), 2u);
  EXPECT_EQ(dataset_error({"0,1,2", "0,1,3"}),
            "dataset row 1: layer 2 has op 3, but num_ops is 3");
  EXPECT_EQ(dataset_error({"0,3,2"}),
            "dataset row 0: layer 1 has op 3, but num_ops is 3");
  EXPECT_NE(dataset_error({"0,-1,2"}).find("dataset row 0: layer 1 has op"),
            std::string::npos);
}

// Ops are one byte: 256 and 263 would wrap to ops 0 and 7, so they must
// fail with the row and layer, not as a malformed architecture.
TEST_F(SerializeTest, DatasetRejectsOpsWiderThanOneByte) {
  EXPECT_EQ(dataset_error({"0,256,2"}),
            "dataset row 0: layer 1 has op 256, but an op index is at most "
            "255");
  EXPECT_EQ(dataset_error({"0,1,2", "0,263,2"}),
            "dataset row 1: layer 1 has op 263, but an op index is at most "
            "255");
}

TEST_F(SerializeTest, DatasetRejectsRaggedAndMalformedRows) {
  EXPECT_EQ(dataset_error({"0,1,2", "0,1"}),
            "dataset row 1: 2 layers, but row 0 has 3");
  EXPECT_EQ(dataset_error({"0,1,2", "0,,2"}),
            "dataset row 1: malformed architecture '0,,2'");
  EXPECT_EQ(dataset_error({"0,x,2"}),
            "dataset row 0: malformed architecture '0,x,2'");
  Json zero_ops = dataset_json({"0,0,0"});
  zero_ops.set("num_ops", Json(0));
  EXPECT_THROW(dataset_from_json(zero_ops), std::runtime_error);
}

TEST_F(SerializeTest, SearchResultRoundTrip) {
  core::SearchResult result;
  util::Rng rng(3);
  result.architecture = space_.random_architecture(rng);
  result.final_predicted_cost = 23.9;
  result.final_lambda = -0.4;
  result.weight_updates = 100;
  result.alpha_updates = 50;
  for (int e = 0; e < 3; ++e) {
    core::SearchEpochStats stats;
    stats.epoch = static_cast<std::size_t>(e);
    stats.tau = 5.0 - e;
    stats.lambda = -0.1 * e;
    stats.predicted_cost = 20.0 + e;
    stats.sampled_cost_mean = 19.0 + e;
    stats.valid_loss = 2.0 - 0.1 * e;
    stats.valid_accuracy = 0.3 + 0.05 * e;
    stats.derived = space_.random_architecture(rng);
    result.trace.push_back(std::move(stats));
  }

  save_search_result(path("result.json"), result);
  const core::SearchResult restored =
      load_search_result(path("result.json"));
  EXPECT_EQ(restored.architecture, result.architecture);
  EXPECT_NEAR(restored.final_predicted_cost, 23.9, 1e-9);
  EXPECT_NEAR(restored.final_lambda, -0.4, 1e-9);
  EXPECT_EQ(restored.weight_updates, 100u);
  ASSERT_EQ(restored.trace.size(), 3u);
  EXPECT_EQ(restored.trace[2].derived, result.trace[2].derived);
  EXPECT_NEAR(restored.trace[1].valid_accuracy, 0.35, 1e-9);
}

// --- golden bytes ---------------------------------------------------------
//
// The serialized form is a compatibility contract: checkpoints written by
// one build must resume under the next. These fixtures pin the exact
// bytes the writer emits for every double form (integer, fraction, -0,
// non-finite -> null, extremes), f32 tensors, string escapes, u64 hex
// and nesting. The legacy fixtures pin files written before tensors
// were packed into `f32`, which must still load exactly.

core::SearchCheckpoint golden_checkpoint() {
  core::SearchCheckpoint ck;
  ck.seed = 0x0123456789abcdefULL;
  ck.total_epochs = 12;
  ck.targets = {24.0, 3.5};
  ck.next_epoch = 5;
  ck.w_step_counter = 240;
  ck.alpha = nn::Tensor(2, 3);
  const float alpha[] = {0.1f, -0.25f, 1e-20f, 3.14159274f, 0.0f, -1.5f};
  for (std::size_t i = 0; i < 6; ++i) ck.alpha[i] = alpha[i];
  nn::Tensor w(1, 2);
  w[0] = 1.0f / 3.0f;
  w[1] = -7.0f;
  ck.supernet_weights = {w, nn::Tensor(2, 1, 0.5f)};
  ck.w_velocity = {nn::Tensor(1, 2, 1e-8f)};
  ck.adam_m = {nn::Tensor(1, 1, -0.0f)};
  ck.adam_v = {nn::Tensor(1, 1, 123456.789f)};
  ck.adam_t = 7;
  ck.lambdas = {0.12345678901234568, -0.0};
  ck.cooldown_scale = 0.5;
  ck.tau_floor = std::numeric_limits<double>::quiet_NaN();
  ck.rng.s = {1, 2, 0xffffffffffffffffULL, 0x8000000000000000ULL};
  ck.rng.have_cached_normal = true;
  ck.rng.cached_normal = -1.2345678901234567;
  ck.data_rng.s = {5, 6, 7, 8};
  ck.train_batcher.order = {3, 1, 2, 0};
  ck.train_batcher.cursor = 2;
  ck.weight_updates = 240;
  ck.alpha_updates = 100;
  ck.health.rollbacks = 1;
  ck.health.completed_epochs = 5;
  ck.health.pool_bytes_recycled = 999999999999999ULL;
  ck.health.events.push_back({3, "loss \"nan\"\n\tat\x01 epoch\\3", true});
  core::SearchEpochStats stats;
  stats.epoch = 4;
  stats.tau = 2.5;
  stats.lambda = -1e-300;
  stats.predicted_cost = 1.7976931348623157e308;
  stats.lambdas = {-1e-300};
  stats.predicted_costs = {std::numeric_limits<double>::infinity()};
  stats.sampled_cost_mean = 23.25;
  stats.valid_loss = 2.0 / 3.0;
  stats.valid_accuracy = 0.875;
  stats.derived = space::Architecture({0, 2, 1});
  ck.trace.push_back(stats);
  return ck;
}

constexpr const char* kGoldenCheckpoint =
    R"({"adam_m":[{"cols":1,"f32":"AAAAgA==","rows":1}],"adam_t":7,"adam_v")"
    R"(:[{"cols":1,"f32":"ZSDxRw==","rows":1}],"alpha":{"cols":3,"f32":"zcz)"
    R"(MPQAAgL4I5Twe2w9JQAAAAAAAAMC/","rows":2},"alpha_updates":100,"cooldo)"
    R"(wn_scale":0.5,"data_rng":{"cached_normal":0,"have_cached_normal":fal)"
    R"(se,"s":["0000000000000005","0000000000000006","0000000000000007","00)"
    R"(00000000000008"]},"health":{"aborted_early":false,"completed_epochs")"
    R"(:5,"events":[{"epoch":3,"reason":"loss \"nan\"\n\tat\u0001 epoch\\3")"
    R"(,"rolled_back":true}],"interrupted":false,"measurement_retries":0,"m)"
    R"(easurements_rejected":0,"pool_buffer_hits":0,"pool_buffer_misses":0,)"
    R"("pool_bytes_recycled":999999999999999,"resumed":false,"resumed_from_)"
    R"(epoch":0,"rollbacks":1},"kind":"lightnas.checkpoint","lambdas":[0.12)"
    R"(345678901234568,-0],"next_epoch":5,"rng":{"cached_normal":-1.2345678)"
    R"(901234567,"have_cached_normal":true,"s":["0000000000000001","0000000)"
    R"(000000002","ffffffffffffffff","8000000000000000"]},"seed":"012345678)"
    R"(9abcdef","supernet_weights":[{"cols":2,"f32":"q6qqPgAA4MA=","rows":1)"
    R"(},{"cols":1,"f32":"AAAAPwAAAD8=","rows":2}],"targets":[24,3.5],"tau_)"
    R"(floor":null,"total_epochs":12,"trace":[{"derived":"0,2,1","epoch":4,)"
    R"("lambda":-1e-300,"lambdas":[-1e-300],"predicted_cost":1.797693134862)"
    R"(3157e+308,"predicted_costs":[null],"sampled_cost_mean":23.25,"tau":2)"
    R"(.5,"valid_accuracy":0.875,"valid_loss":0.66666666666666663}],"train_)"
    R"(batcher":{"cursor":2,"order":[3,1,2,0]},"valid_batcher":{"cursor":0,)"
    R"("order":[]},"valid_rng":{"cached_normal":0,"have_cached_normal":fals)"
    R"(e,"s":["0000000000000000","0000000000000000","0000000000000000","000)"
    R"(0000000000000"]},"version":1,"w_step_counter":240,"w_velocity":[{"co)"
    R"(ls":2,"f32":"d8wrMnfMKzI=","rows":1}],"weight_updates":240})";

// The same checkpoint from the writer that stored one JSON number per
// float.
constexpr const char* kLegacyGoldenCheckpoint =
    R"({"adam_m":[{"cols":1,"data":[-0],"rows":1}],"adam_t":7,"adam_v":[{)"
    R"("cols":1,"data":[123456.7890625],"rows":1}],"alpha":{"cols":3,"dat)"
    R"(a":[0.10000000149011612,-0.25,9.9999996826552254e-21,3.14159274101)"
    R"(25732,0,-1.5],"rows":2},"alpha_updates":100,"cooldown_scale":0.5,")"
    R"(data_rng":{"cached_normal":0,"have_cached_normal":false,"s":["0000)"
    R"(000000000005","0000000000000006","0000000000000007","0000000000000)"
    R"(008"]},"health":{"aborted_early":false,"completed_epochs":5,"event)"
    R"(s":[{"epoch":3,"reason":"loss \"nan\"\n\tat\u0001 epoch\\3","rolle)"
    R"(d_back":true}],"interrupted":false,"measurement_retries":0,"measur)"
    R"(ements_rejected":0,"pool_buffer_hits":0,"pool_buffer_misses":0,"po)"
    R"(ol_bytes_recycled":999999999999999,"resumed":false,"res)"
    R"(umed_from_epoch":0,"rollbacks":1},"kind":"lightnas.checkpoint","la)"
    R"(mbdas":[0.12345678901234568,-0],"next_epoch":5,"rng":{"cached_norm)"
    R"(al":-1.2345678901234567,"have_cached_normal":true,"s":["0000000000)"
    R"(000001","0000000000000002","ffffffffffffffff","8000000000000000"]})"
    R"(,"seed":"0123456789abcdef","supernet_weights":[{"cols":2,"data":[0)"
    R"(.3333333432674408,-7],"rows":1},{"cols":1,"data":[0.5,0.5],"rows":)"
    R"(2}],"targets":[24,3.5],"tau_floor":null,"total_epochs":12,"trace":)"
    R"([{"derived":"0,2,1","epoch":4,"lambda":-1e-300,"lambdas":[-1e-300])"
    R"(,"predicted_cost":1.7976931348623157e+308,"predicted_costs":[null])"
    R"(,"sampled_cost_mean":23.25,"tau":2.5,"valid_accuracy":0.875,"valid)"
    R"(_loss":0.66666666666666663}],"train_batcher":{"cursor":2,"order":[)"
    R"(3,1,2,0]},"valid_batcher":{"cursor":0,"order":[]},"valid_rng":{"ca)"
    R"(ched_normal":0,"have_cached_normal":false,"s":["0000000000000000",)"
    R"("0000000000000000","0000000000000000","0000000000000000"]},"versio)"
    R"(n":1,"w_step_counter":240,"w_velocity":[{"cols":2,"data":[9.999999)"
    R"(9392252903e-09,9.9999999392252903e-09],"rows":1}],"weight_updates")"
    R"(:240})";

// The predictor file is ~8.6k floats, so it is pinned by length, FNV-1a
// hash and its leading bytes instead of verbatim.
constexpr std::size_t kGoldenPredictorBytes = 49494;
constexpr std::uint64_t kGoldenPredictorFnv = 0x023caa04c763b23dULL;
constexpr const char* kGoldenPredictorHead =
    R"({"kind":"lightnas.predictor.mlp","num_layers":2,"num_ops":3,)"
    R"("target_mean":0,"target_std":1,"tensors":[{"cols":128,"f32":")";

// The same predictor from the writer that stored one JSON number per
// float (~190 KB of text).
constexpr std::size_t kLegacyPredictorBytes = 189992;
constexpr std::uint64_t kLegacyPredictorFnv = 0xa3b279aee0fd6dd0ULL;
constexpr const char* kLegacyPredictorHead =
    R"({"kind":"lightnas.predictor.mlp","num_layers":2,"num_ops":3,)"
    R"("target_mean":0,"target_std":1,"tensors":[{"cols":128,"data":[)";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(SerializeTest, CheckpointBytesMatchGolden) {
  const core::SearchCheckpoint ck = golden_checkpoint();
  save_checkpoint(path("golden.json"), ck);
  const std::string bytes = read_bytes(path("golden.json"));
  EXPECT_EQ(bytes, kGoldenCheckpoint);
  EXPECT_EQ(checkpoint_to_json(ck).dump(), bytes);
}

TEST_F(SerializeTest, LegacyCheckpointLoadsExactly) {
  const Json current = checkpoint_to_json(golden_checkpoint());
  // The legacy fixture is what the old writer made of the same state.
  EXPECT_EQ(with_legacy_tensors(current).dump(), kLegacyGoldenCheckpoint);
  // Loaded, it writes the current golden back. The f32 form pins every
  // float's bits and the 17-digit form every finite double's, so this
  // compares every field (non-finite doubles were null in both forms).
  const core::SearchCheckpoint loaded =
      checkpoint_from_json(Json::parse(kLegacyGoldenCheckpoint));
  EXPECT_EQ(checkpoint_to_json(loaded).dump(), kGoldenCheckpoint);
}

// A run-health record as this build writes it: pool telemetry without
// the two tape counters that files from before the tape cache's removal
// carry, and without the five plan counters that files from before the
// plan compiler's removal carry.
constexpr const char* kHealthJson =
    R"({"aborted_early":false,"completed_epochs":5,"events":[],)"
    R"("interrupted":false,"measurement_retries":2,)"
    R"("measurements_rejected":1,)"
    R"("pool_buffer_hits":700,"pool_buffer_misses":30,)"
    R"("pool_bytes_recycled":4096,"resumed":false,"resumed_from_epoch":0,)"
    R"("rollbacks":1})";

void expect_health_fields(const core::RunHealth& health) {
  EXPECT_EQ(health.rollbacks, 1u);
  EXPECT_EQ(health.completed_epochs, 5u);
  EXPECT_EQ(health.measurement_retries, 2u);
  EXPECT_EQ(health.measurements_rejected, 1u);
  EXPECT_EQ(health.pool_buffer_hits, 700u);
  EXPECT_EQ(health.pool_buffer_misses, 30u);
  EXPECT_EQ(health.pool_bytes_recycled, 4096u);
}

TEST_F(SerializeTest, HealthWithoutTapeCountersLoads) {
  const Json json = Json::parse(kHealthJson);
  const core::RunHealth health = detail::health_from_json(json);
  expect_health_fields(health);
  EXPECT_EQ(detail::health_to_json(health).dump(), json.dump());
}

TEST_F(SerializeTest, HealthWithLegacyTapeAndPlanCountersLoads) {
  Json json = Json::parse(kHealthJson);
  for (const char* counter : {"tape_hits", "tape_misses"}) {
    json.set(std::string("pool_") + counter, Json(9));
  }
  for (const char* counter :
       {"hits", "misses", "compiles", "fused_ops", "arena_bytes"}) {
    json.set(std::string("plan_") + counter, Json(9));
  }
  const core::RunHealth health = detail::health_from_json(json);
  expect_health_fields(health);
  // The legacy counters are read past, not written back.
  EXPECT_EQ(detail::health_to_json(health).dump(),
            Json::parse(kHealthJson).dump());
}

TEST_F(SerializeTest, SubnormalCheckpointFieldReloadsBitExact) {
  core::SearchCheckpoint ck = golden_checkpoint();
  ck.cooldown_scale = 5e-324;
  save_checkpoint(path("subnormal.json"), ck);
  const core::SearchCheckpoint back = load_checkpoint(path("subnormal.json"));
  EXPECT_EQ(std::memcmp(&back.cooldown_scale, &ck.cooldown_scale,
                        sizeof(double)),
            0);
}

TEST_F(SerializeTest, RetypedCheckpointFieldFailsToLoad) {
  // A field of the wrong type must not load. The type check has to hold
  // in Release, where an assert would read "next_epoch":"5" as epoch 0.
  const std::string text = checkpoint_to_json(golden_checkpoint()).dump();
  for (const std::string field :
       {R"("next_epoch":5)", R"("adam_t":7)", R"("cooldown_scale":0.5)",
        R"("resumed":false)", R"("cursor":2)"}) {
    const std::size_t colon = field.find(':');
    const std::string retyped = field.substr(0, colon + 1) + '"' +
                                field.substr(colon + 1) + '"';
    std::string bad = text;
    const std::size_t at = bad.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    bad.replace(at, field.size(), retyped);
    { std::ofstream(path("retyped.json")) << bad; }
    EXPECT_THROW(load_checkpoint(path("retyped.json")), std::runtime_error)
        << retyped;
  }
}

TEST_F(SerializeTest, PredictorBytesMatchGolden) {
  const predictors::MlpPredictor predictor(2, 3, /*seed=*/11, "mJ");
  save_predictor(path("golden_predictor.json"), predictor);
  const std::string bytes = read_bytes(path("golden_predictor.json"));
  EXPECT_EQ(bytes.size(), kGoldenPredictorBytes);
  EXPECT_EQ(fnv1a(bytes), kGoldenPredictorFnv);
  EXPECT_EQ(bytes.substr(0, std::string(kGoldenPredictorHead).size()),
            kGoldenPredictorHead);
  EXPECT_EQ(predictor_to_json(predictor).dump(), bytes);
}

void expect_same_state(const predictors::MlpPredictor::State& got,
                       const predictors::MlpPredictor::State& want) {
  EXPECT_EQ(got.num_layers, want.num_layers);
  EXPECT_EQ(got.num_ops, want.num_ops);
  EXPECT_EQ(got.unit, want.unit);
  EXPECT_EQ(std::memcmp(&got.target_mean, &want.target_mean,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&got.target_std, &want.target_std, sizeof(double)),
            0);
  EXPECT_EQ(got.trained, want.trained);
  EXPECT_EQ(got.shapes, want.shapes);
  ASSERT_EQ(got.tensors.size(), want.tensors.size());
  for (std::size_t i = 0; i < got.tensors.size(); ++i) {
    ASSERT_EQ(got.tensors[i].size(), want.tensors[i].size());
    EXPECT_EQ(std::memcmp(got.tensors[i].data(), want.tensors[i].data(),
                          got.tensors[i].size() * sizeof(float)),
              0)
        << "tensor " << i;
  }
}

TEST_F(SerializeTest, LegacyPredictorLoadsExactly) {
  const predictors::MlpPredictor predictor(2, 3, /*seed=*/11, "mJ");
  // The old writer's bytes, rebuilt from the current file.
  const std::string legacy =
      with_legacy_tensors(predictor_to_json(predictor)).dump();
  EXPECT_EQ(legacy.size(), kLegacyPredictorBytes);
  EXPECT_EQ(fnv1a(legacy), kLegacyPredictorFnv);
  EXPECT_EQ(legacy.substr(0, std::string(kLegacyPredictorHead).size()),
            kLegacyPredictorHead);
  expect_same_state(predictor_from_json(Json::parse(legacy)).export_state(),
                    predictor.export_state());
}

// Regression: a non-finite tensor value was written as null and every
// one of them reloaded as the NaN 0x7fc00000.
TEST_F(SerializeTest, TensorNonFiniteValuesReloadBitExact) {
  const std::uint32_t bits[] = {0x7f800000u, 0xff800000u, 0x7fc00123u};
  nn::Tensor t(1, 3);
  std::memcpy(t.data().data(), bits, sizeof bits);
  Json json = Json::object();
  json.set("t", detail::tensor_to_json(t));
  write_json_file(path("nonfinite.json"), json);
  const nn::Tensor back =
      detail::tensor_from_json(read_json_file(path("nonfinite.json")).at("t"));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(std::memcmp(back.data().data(), bits, sizeof bits), 0);
}

std::string load_error(const std::function<void()>& load) {
  try {
    load();
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (const std::exception& e) {
    return std::string("untyped: ") + e.what();
  }
  return "";
}

std::string tensor_error(const std::string& text) {
  return load_error([&] { (void)detail::tensor_from_json(Json::parse(text)); });
}

// Regression: rows and cols were cast from any double, so 2^32 x 2^32
// wrapped to a tensor with no storage, -1 to 2^64 - 1 and 1.5 to 1.
TEST_F(SerializeTest, TensorShapesAreValidated) {
  EXPECT_EQ(tensor_error(R"({"rows":2,"cols":1,"data":[1,null]})"), "");
  EXPECT_EQ(tensor_error(R"({"rows":4294967296,"cols":4294967296,)"
                         R"("data":[]})"),
            "tensor shape overflows");
  EXPECT_EQ(tensor_error(R"({"rows":4294967296,"cols":4294967296,)"
                         R"("f32":""})"),
            "tensor shape overflows");
  for (const char* rows : {"-1", "1.5", "1e300", "\"1\"", "null"}) {
    const std::string error = tensor_error(
        std::string(R"({"cols":1,"data":[1],"rows":)") + rows + "}");
    EXPECT_NE(error, "") << rows;
    EXPECT_EQ(error.find("untyped"), std::string::npos) << error;
  }
  EXPECT_EQ(tensor_error(R"({"rows":2,"cols":2,"data":[1,2,3]})"),
            "tensor data does not match its shape");

  const predictors::MlpPredictor predictor(2, 3, /*seed=*/11, "mJ");
  const std::string text = predictor_to_json(predictor).dump();
  for (const char* shape : {R"("cols":-1)", R"("cols":1.5)"}) {
    std::string bad = text;
    bad.replace(bad.find(R"("cols":128)"), 10, shape);
    EXPECT_THROW(predictor_from_json(Json::parse(bad)), std::runtime_error)
        << shape;
  }
}

// One float, 1.0f: bytes 00 00 80 3f, base64 "AACAPw==".
TEST_F(SerializeTest, MalformedF32TensorsAreTypedErrors) {
  const auto tensor = [](const std::string& fields) {
    return tensor_error(R"({"rows":1,"cols":1,)" + fields + "}");
  };
  EXPECT_EQ(tensor(R"("f32":"AACAPw==")"), "");
  for (const char* fields : {
           R"("f32":"")",                  // wrong length: no floats
           R"("f32":"AACAPwAAgD8=")",      // wrong length: two floats
           R"("f32":"AACAPw=")",           // not a multiple of 4
           R"("f32":"AACA-w==")",          // outside the alphabet
           R"("f32":"AAC
Pw==")",         // whitespace
           R"("f32":"AACAP===")",          // padding too long
           R"("f32":"AACA=w==")",          // padding inside the data
           R"("f32":"AACAPx==")",          // non-zero bits under padding
           R"("f32":[0,0,128,63])",        // not a string
           R"("f32":"AACAPw==","data":[1])",  // both fields
           R"("values":[1])",              // neither field
       }) {
    const std::string error = tensor(fields);
    EXPECT_NE(error, "") << fields;
    EXPECT_EQ(error.find("untyped"), std::string::npos) << error;
  }
}

// Regression: strtoull with no end check read "zz" as 0 and "1g" as 1.
TEST_F(SerializeTest, U64NeedsSixteenHexDigits) {
  EXPECT_EQ(detail::u64_from_json(Json("0000000000000000")), 0u);
  EXPECT_EQ(detail::u64_from_json(Json("ffffffffffffffff")),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(detail::u64_from_json(detail::u64_to_json(0x0123456789abcdefULL)),
            0x0123456789abcdefULL);
  for (const char* text : {"zz", "1g", "", "00000000000000000",
                           "000000000000000g", "-000000000000001",
                           " 000000000000001"}) {
    const std::string error =
        load_error([&] { (void)detail::u64_from_json(Json(text)); });
    EXPECT_NE(error, "") << '"' << text << '"';
    EXPECT_NE(error.find(std::string("\"") + text + "\""), std::string::npos)
        << error;
  }
}

// Regression: order entries and the cursor were cast from any double,
// so -1 loaded as 2^64 - 1 and 2.5 as 2.
TEST_F(SerializeTest, BatcherStateNeedsNonNegativeIntegers) {
  const nn::Batcher::State good = detail::batcher_state_from_json(
      Json::parse(R"({"order":[3,1,2,0],"cursor":2})"));
  EXPECT_EQ(good.order, (std::vector<std::size_t>{3, 1, 2, 0}));
  EXPECT_EQ(good.cursor, 2u);
  for (const char* text : {
           R"({"order":[1,-1,2.5],"cursor":-1})",
           R"({"order":[1,-1,2],"cursor":0})",
           R"({"order":[1,2.5,2],"cursor":0})",
           R"({"order":[1,1e300,2],"cursor":0})",
           R"({"order":[1,9007199254740994,2],"cursor":0})",
           R"({"order":[1,0,2],"cursor":-1})",
           R"({"order":[1,0,2],"cursor":0.5})",
       }) {
    const std::string error = load_error([&] {
      (void)detail::batcher_state_from_json(Json::parse(text));
    });
    EXPECT_NE(error, "") << text;
    EXPECT_EQ(error.find("untyped"), std::string::npos) << error;
  }
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_predictor(path("does_not_exist.json")),
               std::runtime_error);
}

}  // namespace
}  // namespace lightnas::io
