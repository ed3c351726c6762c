#include "io/serialize.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace lightnas::io {

namespace detail {

namespace {

constexpr int kFormatVersion = 1;

constexpr char kBase64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
constexpr std::uint8_t kNotBase64 = 64;

// Each character's 6-bit value, or kNotBase64.
constexpr std::array<std::uint8_t, 256> kBase64Values = [] {
  std::array<std::uint8_t, 256> values{};
  values.fill(kNotBase64);
  for (std::uint8_t i = 0; i < 64; ++i) {
    values[static_cast<unsigned char>(kBase64[i])] = i;
  }
  return values;
}();

// Writes the four base64 characters of the bytes b0 b1 b2.
char* put_base64_group(char* out, std::uint32_t b0, std::uint32_t b1,
                       std::uint32_t b2) {
  const std::uint32_t group = b0 << 16 | b1 << 8 | b2;
  out[0] = kBase64[group >> 18];
  out[1] = kBase64[(group >> 12) & 63];
  out[2] = kBase64[(group >> 6) & 63];
  out[3] = kBase64[group & 63];
  return out + 4;
}

// Standard base64 (RFC 4648, '=' padded) of the values' binary32 bit
// patterns laid out little-endian, whatever the host's byte order.
std::string encode_f32(std::span<const float> values) {
  std::string text((values.size() * 4 + 2) / 3 * 4, '=');
  char* out = text.data();
  std::size_t i = 0;
  // Three floats are twelve bytes, four whole groups. Reading them into
  // locals first lets the character stores run without reloading them.
  for (; i + 3 <= values.size(); i += 3) {
    const auto a = std::bit_cast<std::uint32_t>(values[i]);
    const auto b = std::bit_cast<std::uint32_t>(values[i + 1]);
    const auto c = std::bit_cast<std::uint32_t>(values[i + 2]);
    out = put_base64_group(out, a & 0xff, a >> 8 & 0xff, a >> 16 & 0xff);
    out = put_base64_group(out, a >> 24, b & 0xff, b >> 8 & 0xff);
    out = put_base64_group(out, b >> 16 & 0xff, b >> 24, c & 0xff);
    out = put_base64_group(out, c >> 8 & 0xff, c >> 16 & 0xff, c >> 24);
  }
  // One or two floats left: one or two whole groups, then a padded one.
  const std::size_t left = values.size() - i;
  if (left == 0) return text;
  const auto a = std::bit_cast<std::uint32_t>(values[i]);
  const std::uint32_t b =
      left == 2 ? std::bit_cast<std::uint32_t>(values[i + 1]) : 0;
  out = put_base64_group(out, a & 0xff, a >> 8 & 0xff, a >> 16 & 0xff);
  if (left == 2) {
    out = put_base64_group(out, a >> 24, b & 0xff, b >> 8 & 0xff);
    put_base64_group(out, b >> 16 & 0xff, b >> 24, 0);
    out[3] = '=';
  } else {
    put_base64_group(out, a >> 24, 0, 0);
    out[2] = out[3] = '=';
  }
  return text;
}

// The number of bytes `text` decodes to, from its length and padding
// alone, so a caller can check it against a shape before allocating.
std::size_t base64_bytes(const std::string& text) {
  if (text.size() % 4 != 0) {
    throw std::runtime_error("tensor f32: length is not a multiple of 4");
  }
  std::size_t pad = 0;
  while (pad < 2 && pad < text.size() &&
         text[text.size() - 1 - pad] == '=') {
    ++pad;
  }
  return text.size() / 4 * 3 - pad;
}

// The 24 bits of the base64 group at p, whose first `chars` characters
// carry data (the rest are padding and read as zero bits).
std::uint32_t base64_group(const char* p, int chars = 4) {
  std::uint32_t group = 0;
  for (int k = 0; k < 4; ++k) {
    std::uint32_t v = 0;
    if (k < chars) {
      v = kBase64Values[static_cast<unsigned char>(p[k])];
      if (v == kNotBase64) {
        throw std::runtime_error(
            "tensor f32: character outside the base64 alphabet");
      }
    }
    group = group << 6 | v;
  }
  return group;
}

float float_from_bytes(std::uint32_t b0, std::uint32_t b1, std::uint32_t b2,
                       std::uint32_t b3) {
  return std::bit_cast<float>(b0 | b1 << 8 | b2 << 16 | b3 << 24);
}

// Decodes `text`, which base64_bytes() sized to out.size() * 4 bytes,
// straight into `out`: the inverse of encode_f32. Only canonical base64
// is accepted: every character before the padding base64_bytes()
// counted is in the alphabet, and the bits under the padding are zero.
void decode_f32(const std::string& text, std::span<float> out) {
  const char* p = text.data();
  std::size_t i = 0;
  for (; i + 3 <= out.size(); i += 3, p += 16) {
    const std::uint32_t g0 = base64_group(p);
    const std::uint32_t g1 = base64_group(p + 4);
    const std::uint32_t g2 = base64_group(p + 8);
    const std::uint32_t g3 = base64_group(p + 12);
    out[i] = float_from_bytes(g0 >> 16, g0 >> 8 & 0xff, g0 & 0xff, g1 >> 16);
    out[i + 1] =
        float_from_bytes(g1 >> 8 & 0xff, g1 & 0xff, g2 >> 16, g2 >> 8 & 0xff);
    out[i + 2] = float_from_bytes(g2 & 0xff, g3 >> 16, g3 >> 8 & 0xff,
                                  g3 & 0xff);
  }
  const std::size_t left = out.size() - i;
  if (left == 0) return;
  const std::uint32_t g0 = base64_group(p);
  if (left == 1) {  // "xxxx" "xx=="
    const std::uint32_t g1 = base64_group(p + 4, 2);
    if ((g1 & 0xffff) != 0) {
      throw std::runtime_error("tensor f32: non-canonical padding");
    }
    out[i] = float_from_bytes(g0 >> 16, g0 >> 8 & 0xff, g0 & 0xff, g1 >> 16);
    return;
  }
  // "xxxx" "xxxx" "xxx="
  const std::uint32_t g1 = base64_group(p + 4);
  const std::uint32_t g2 = base64_group(p + 8, 3);
  if ((g2 & 0xff) != 0) {
    throw std::runtime_error("tensor f32: non-canonical padding");
  }
  out[i] = float_from_bytes(g0 >> 16, g0 >> 8 & 0xff, g0 & 0xff, g1 >> 16);
  out[i + 1] =
      float_from_bytes(g1 >> 8 & 0xff, g1 & 0xff, g2 >> 16, g2 >> 8 & 0xff);
}

// A count or index: a non-negative integer, exact in a double. Checked
// before the cast, which is undefined for a negative or huge double.
std::size_t size_from_json(const Json& json, const char* what) {
  const double v = json.as_number();
  if (!(v >= 0.0 && v <= 9007199254740992.0 && v == std::floor(v))) {
    throw std::runtime_error(std::string(what) +
                             " must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

int format_version() { return kFormatVersion; }

void check_header(const Json& json, const std::string& kind) {
  if (!json.contains("kind") || json.at("kind").as_string() != kind) {
    throw std::runtime_error("file is not a '" + kind + "' artifact");
  }
  if (static_cast<int>(json.at("version").as_number()) != kFormatVersion) {
    throw std::runtime_error("unsupported '" + kind + "' format version");
  }
}

// uint64 does not fit a double exactly; RNG words round-trip as hex.
Json u64_to_json(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return Json(std::string(buf));
}

std::uint64_t u64_from_json(const Json& json) {
  const std::string& text = json.as_string();
  const char* end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, v, 16);
  if (text.size() != 16 || error != std::errc() || stop != end) {
    const std::string shown =
        text.size() > 24 ? text.substr(0, 24) + "..." : text;
    throw std::runtime_error("u64 \"" + shown + "\" is not 16 hex digits");
  }
  return v;
}

Json tensor_to_json(std::size_t rows, std::size_t cols,
                    std::span<const float> values) {
  Json json = Json::object();
  json.set("rows", Json(rows));
  json.set("cols", Json(cols));
  json.set("f32", Json(encode_f32(values)));
  return json;
}

Json tensor_to_json(const nn::Tensor& t) {
  return tensor_to_json(t.rows(), t.cols(), t.data());
}

// Every check runs before the tensor is allocated, so a hostile shape
// cannot ask for more memory than its payload's length implies.
nn::Tensor tensor_from_json(const Json& json) {
  const std::size_t rows = size_from_json(json.at("rows"), "tensor rows");
  const std::size_t cols = size_from_json(json.at("cols"), "tensor cols");
  if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
    throw std::runtime_error("tensor shape overflows");
  }
  const std::size_t count = rows * cols;
  const bool packed = json.contains("f32");
  if (packed == json.contains("data")) {
    throw std::runtime_error("tensor needs exactly one of 'f32' and 'data'");
  }
  if (packed) {
    const std::string& text = json.at("f32").as_string();
    const std::size_t bytes = base64_bytes(text);
    if (bytes % 4 != 0 || bytes / 4 != count) {
      throw std::runtime_error("tensor f32 does not match its shape");
    }
    nn::Tensor t(rows, cols);
    decode_f32(text, t.data());
    return t;
  }
  // The legacy form: one JSON number per float, null for a non-finite.
  const std::vector<Json>& data = json.at("data").as_array();
  if (data.size() != count) {
    throw std::runtime_error("tensor data does not match its shape");
  }
  nn::Tensor t(rows, cols);
  for (std::size_t i = 0; i < count; ++i) {
    t[i] = static_cast<float>(data[i].number_or_nan());
  }
  return t;
}

Json tensor_list_to_json(const std::vector<nn::Tensor>& tensors) {
  Json arr = Json::array();
  for (const nn::Tensor& t : tensors) arr.push_back(tensor_to_json(t));
  return arr;
}

std::vector<nn::Tensor> tensor_list_from_json(const Json& json) {
  std::vector<nn::Tensor> out;
  out.reserve(json.as_array().size());
  for (const Json& t : json.as_array()) out.push_back(tensor_from_json(t));
  return out;
}

Json rng_state_to_json(const util::RngState& state) {
  Json json = Json::object();
  Json words = Json::array();
  for (std::uint64_t w : state.s) words.push_back(u64_to_json(w));
  json.set("s", std::move(words));
  json.set("have_cached_normal", Json(state.have_cached_normal));
  json.set("cached_normal", Json(state.cached_normal));
  return json;
}

util::RngState rng_state_from_json(const Json& json) {
  util::RngState state;
  const Json& words = json.at("s");
  if (words.size() != 4) {
    throw std::runtime_error("rng state must have 4 words");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    state.s[i] = u64_from_json(words.at(i));
  }
  state.have_cached_normal = json.at("have_cached_normal").as_bool();
  state.cached_normal = json.at("cached_normal").number_or_nan();
  return state;
}

Json batcher_state_to_json(const nn::Batcher::State& state) {
  Json json = Json::object();
  Json order = Json::array();
  for (std::size_t i : state.order) order.push_back(Json(i));
  json.set("order", std::move(order));
  json.set("cursor", Json(state.cursor));
  return json;
}

nn::Batcher::State batcher_state_from_json(const Json& json) {
  nn::Batcher::State state;
  const std::vector<Json>& order = json.at("order").as_array();
  state.order.reserve(order.size());
  for (const Json& i : order) {
    state.order.push_back(size_from_json(i, "batcher order entry"));
  }
  state.cursor = size_from_json(json.at("cursor"), "batcher cursor");
  return state;
}

Json health_to_json(const core::RunHealth& health) {
  Json json = Json::object();
  json.set("rollbacks", Json(health.rollbacks));
  json.set("aborted_early", Json(health.aborted_early));
  json.set("interrupted", Json(health.interrupted));
  json.set("resumed", Json(health.resumed));
  json.set("resumed_from_epoch", Json(health.resumed_from_epoch));
  json.set("completed_epochs", Json(health.completed_epochs));
  json.set("measurement_retries", Json(health.measurement_retries));
  json.set("measurements_rejected", Json(health.measurements_rejected));
  json.set("pool_buffer_hits", Json(health.pool_buffer_hits));
  json.set("pool_buffer_misses", Json(health.pool_buffer_misses));
  json.set("pool_bytes_recycled", Json(health.pool_bytes_recycled));
  Json events = Json::array();
  for (const core::WatchdogEvent& event : health.events) {
    Json row = Json::object();
    row.set("epoch", Json(event.epoch));
    row.set("reason", Json(event.reason));
    row.set("rolled_back", Json(event.rolled_back));
    events.push_back(std::move(row));
  }
  json.set("events", std::move(events));
  return json;
}

core::RunHealth health_from_json(const Json& json) {
  core::RunHealth health;
  health.rollbacks =
      static_cast<std::size_t>(json.at("rollbacks").as_number());
  health.aborted_early = json.at("aborted_early").as_bool();
  health.interrupted = json.at("interrupted").as_bool();
  health.resumed = json.at("resumed").as_bool();
  health.resumed_from_epoch =
      static_cast<std::size_t>(json.at("resumed_from_epoch").as_number());
  health.completed_epochs =
      static_cast<std::size_t>(json.at("completed_epochs").as_number());
  health.measurement_retries =
      static_cast<std::size_t>(json.at("measurement_retries").as_number());
  health.measurements_rejected = static_cast<std::size_t>(
      json.at("measurements_rejected").as_number());
  // Pool telemetry arrived after the first checkpoint format; tolerate
  // its absence so old checkpoints stay loadable. Files written before
  // backward() lost its tape cache carry two tape counters, and files
  // written before the plan compiler was removed carry five plan
  // counters; both are ignored.
  if (json.contains("pool_buffer_hits")) {
    health.pool_buffer_hits =
        static_cast<std::uint64_t>(json.at("pool_buffer_hits").as_number());
    health.pool_buffer_misses = static_cast<std::uint64_t>(
        json.at("pool_buffer_misses").as_number());
    health.pool_bytes_recycled = static_cast<std::uint64_t>(
        json.at("pool_bytes_recycled").as_number());
  }
  for (const Json& row : json.at("events").as_array()) {
    core::WatchdogEvent event;
    event.epoch = static_cast<std::size_t>(row.at("epoch").as_number());
    event.reason = row.at("reason").as_string();
    event.rolled_back = row.at("rolled_back").as_bool();
    health.events.push_back(std::move(event));
  }
  return health;
}

Json epoch_stats_to_json(const core::SearchEpochStats& stats) {
  Json row = Json::object();
  row.set("epoch", Json(stats.epoch));
  row.set("tau", Json(stats.tau));
  row.set("lambda", Json(stats.lambda));
  row.set("predicted_cost", Json(stats.predicted_cost));
  row.set("lambdas", Json::from_doubles(stats.lambdas));
  row.set("predicted_costs", Json::from_doubles(stats.predicted_costs));
  row.set("sampled_cost_mean", Json(stats.sampled_cost_mean));
  row.set("valid_loss", Json(stats.valid_loss));
  row.set("valid_accuracy", Json(stats.valid_accuracy));
  row.set("derived", Json(stats.derived.serialize()));
  return row;
}

core::SearchEpochStats epoch_stats_from_json(const Json& row) {
  core::SearchEpochStats stats;
  stats.epoch = static_cast<std::size_t>(row.at("epoch").as_number());
  stats.tau = row.at("tau").number_or_nan();
  stats.lambda = row.at("lambda").number_or_nan();
  stats.predicted_cost = row.at("predicted_cost").number_or_nan();
  // Per-constraint vectors were added after the first release of this
  // format; fall back to the single-constraint mirrors.
  if (row.contains("lambdas")) {
    stats.lambdas = row.at("lambdas").to_doubles();
    stats.predicted_costs = row.at("predicted_costs").to_doubles();
  } else {
    stats.lambdas = {stats.lambda};
    stats.predicted_costs = {stats.predicted_cost};
  }
  stats.sampled_cost_mean = row.at("sampled_cost_mean").number_or_nan();
  stats.valid_loss = row.at("valid_loss").number_or_nan();
  stats.valid_accuracy = row.at("valid_accuracy").number_or_nan();
  stats.derived =
      space::Architecture::deserialize(row.at("derived").as_string());
  return stats;
}

}  // namespace detail

using namespace detail;

// --- predictors ---------------------------------------------------------

Json predictor_to_json(const predictors::MlpPredictor& predictor) {
  const predictors::MlpPredictor::State state = predictor.export_state();
  Json json = Json::object();
  json.set("kind", Json("lightnas.predictor.mlp"));
  json.set("version", Json(kFormatVersion));
  json.set("num_layers", Json(state.num_layers));
  json.set("num_ops", Json(state.num_ops));
  json.set("unit", Json(state.unit));
  json.set("target_mean", Json(state.target_mean));
  json.set("target_std", Json(state.target_std));
  json.set("trained", Json(state.trained));
  Json tensors = Json::array();
  for (std::size_t i = 0; i < state.tensors.size(); ++i) {
    tensors.push_back(tensor_to_json(state.shapes[i].first,
                                     state.shapes[i].second,
                                     state.tensors[i]));
  }
  json.set("tensors", std::move(tensors));
  return json;
}

predictors::MlpPredictor predictor_from_json(const Json& json) {
  check_header(json, "lightnas.predictor.mlp");
  predictors::MlpPredictor::State state;
  state.num_layers =
      static_cast<std::size_t>(json.at("num_layers").as_number());
  state.num_ops = static_cast<std::size_t>(json.at("num_ops").as_number());
  state.unit = json.at("unit").as_string();
  state.target_mean = json.at("target_mean").as_number();
  state.target_std = json.at("target_std").as_number();
  state.trained = json.at("trained").as_bool();
  for (const Json& tensor : json.at("tensors").as_array()) {
    const nn::Tensor t = tensor_from_json(tensor);
    state.shapes.emplace_back(t.rows(), t.cols());
    state.tensors.emplace_back(t.data().begin(), t.data().end());
  }
  return predictors::MlpPredictor::from_state(state);
}

void save_predictor(const std::string& path,
                    const predictors::MlpPredictor& predictor) {
  write_json_file(path, predictor_to_json(predictor));
}

predictors::MlpPredictor load_predictor(const std::string& path) {
  return predictor_from_json(read_json_file(path));
}

// --- measurement datasets -------------------------------------------------

Json dataset_to_json(const predictors::MeasurementDataset& data,
                     std::size_t num_ops) {
  Json json = Json::object();
  json.set("kind", Json("lightnas.dataset"));
  json.set("version", Json(kFormatVersion));
  json.set("num_ops", Json(num_ops));
  Json rows = Json::array();
  for (std::size_t i = 0; i < data.size(); ++i) {
    Json row = Json::object();
    row.set("arch", Json(data.architectures[i].serialize()));
    row.set("target", Json(data.targets[i]));
    rows.push_back(std::move(row));
  }
  json.set("rows", std::move(rows));
  return json;
}

predictors::MeasurementDataset dataset_from_json(const Json& json) {
  check_header(json, "lightnas.dataset");
  const double ops_field = json.at("num_ops").as_number();
  if (!(ops_field >= 1.0 && ops_field < 4294967296.0)) {
    throw std::runtime_error("dataset: num_ops must be in [1, 2^32)");
  }
  const auto num_ops = static_cast<std::size_t>(ops_field);
  predictors::MeasurementDataset data;
  // One length across rows keeps every predictor input row the same
  // width. Each row is checked by encoding it into `scratch`, as a
  // predictor will; the dataset stores only architectures and targets.
  std::vector<float> scratch;
  const std::vector<Json>& rows = json.at("rows").as_array();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Json& row = rows[r];
    const auto fail = [r](const std::string& what) {
      throw std::runtime_error("dataset row " + std::to_string(r) + ": " +
                               what);
    };
    const std::string& text = row.at("arch").as_string();
    space::Architecture arch;
    try {
      arch = space::Architecture::deserialize(text);
    } catch (const std::out_of_range& e) {  // an op wider than one byte
      fail(e.what());
    } catch (const std::logic_error&) {  // std::stoul on a bad token
      fail("malformed architecture '" + text + "'");
    }
    if (r > 0 && arch.num_layers() != data.architectures[0].num_layers()) {
      fail(std::to_string(arch.num_layers()) + " layers, but row 0 has " +
           std::to_string(data.architectures[0].num_layers()));
    }
    try {
      scratch.resize(arch.num_layers() * num_ops);
      arch.encode_one_hot_into(num_ops, scratch.data());
    } catch (const std::out_of_range& e) {
      fail(e.what());
    }
    data.architectures.push_back(std::move(arch));
    data.targets.push_back(row.at("target").as_number());
  }
  return data;
}

void save_dataset(const std::string& path,
                  const predictors::MeasurementDataset& data,
                  std::size_t num_ops) {
  write_json_file(path, dataset_to_json(data, num_ops));
}

predictors::MeasurementDataset load_dataset(const std::string& path) {
  return dataset_from_json(read_json_file(path));
}

// --- search results ---------------------------------------------------

Json search_result_to_json(const core::SearchResult& result) {
  Json json = Json::object();
  json.set("kind", Json("lightnas.search_result"));
  json.set("version", Json(kFormatVersion));
  json.set("architecture", Json(result.architecture.serialize()));
  json.set("final_predicted_cost", Json(result.final_predicted_cost));
  json.set("final_lambda", Json(result.final_lambda));
  json.set("weight_updates", Json(result.weight_updates));
  json.set("alpha_updates", Json(result.alpha_updates));
  json.set("final_costs", Json::from_doubles(result.final_costs));
  json.set("final_lambdas", Json::from_doubles(result.final_lambdas));
  json.set("health", health_to_json(result.health));
  Json trace = Json::array();
  for (const core::SearchEpochStats& stats : result.trace) {
    trace.push_back(epoch_stats_to_json(stats));
  }
  json.set("trace", std::move(trace));
  return json;
}

core::SearchResult search_result_from_json(const Json& json) {
  check_header(json, "lightnas.search_result");
  core::SearchResult result;
  result.architecture =
      space::Architecture::deserialize(json.at("architecture").as_string());
  result.final_predicted_cost =
      json.at("final_predicted_cost").number_or_nan();
  result.final_lambda = json.at("final_lambda").number_or_nan();
  result.weight_updates =
      static_cast<std::size_t>(json.at("weight_updates").as_number());
  result.alpha_updates =
      static_cast<std::size_t>(json.at("alpha_updates").as_number());
  // Fields added after the first release of this format.
  if (json.contains("final_costs")) {
    result.final_costs = json.at("final_costs").to_doubles();
    result.final_lambdas = json.at("final_lambdas").to_doubles();
  } else {
    result.final_costs = {result.final_predicted_cost};
    result.final_lambdas = {result.final_lambda};
  }
  if (json.contains("health")) {
    result.health = health_from_json(json.at("health"));
  }
  for (const Json& row : json.at("trace").as_array()) {
    result.trace.push_back(epoch_stats_from_json(row));
  }
  return result;
}

void save_search_result(const std::string& path,
                        const core::SearchResult& result) {
  write_json_file(path, search_result_to_json(result));
}

core::SearchResult load_search_result(const std::string& path) {
  return search_result_from_json(read_json_file(path));
}

// --- search checkpoints ------------------------------------------------

Json checkpoint_to_json(const core::SearchCheckpoint& ck) {
  Json json = Json::object();
  json.set("kind", Json("lightnas.checkpoint"));
  json.set("version", Json(kFormatVersion));
  json.set("seed", u64_to_json(ck.seed));
  json.set("total_epochs", Json(ck.total_epochs));
  json.set("targets", Json::from_doubles(ck.targets));
  json.set("next_epoch", Json(ck.next_epoch));
  json.set("w_step_counter", Json(ck.w_step_counter));
  json.set("alpha", tensor_to_json(ck.alpha));
  json.set("supernet_weights", tensor_list_to_json(ck.supernet_weights));
  json.set("w_velocity", tensor_list_to_json(ck.w_velocity));
  json.set("adam_m", tensor_list_to_json(ck.adam_m));
  json.set("adam_v", tensor_list_to_json(ck.adam_v));
  json.set("adam_t", Json(ck.adam_t));
  json.set("lambdas", Json::from_doubles(ck.lambdas));
  json.set("cooldown_scale", Json(ck.cooldown_scale));
  json.set("tau_floor", Json(ck.tau_floor));
  json.set("rng", rng_state_to_json(ck.rng));
  json.set("data_rng", rng_state_to_json(ck.data_rng));
  json.set("valid_rng", rng_state_to_json(ck.valid_rng));
  json.set("train_batcher", batcher_state_to_json(ck.train_batcher));
  json.set("valid_batcher", batcher_state_to_json(ck.valid_batcher));
  json.set("weight_updates", Json(ck.weight_updates));
  json.set("alpha_updates", Json(ck.alpha_updates));
  json.set("health", health_to_json(ck.health));
  Json trace = Json::array();
  for (const core::SearchEpochStats& stats : ck.trace) {
    trace.push_back(epoch_stats_to_json(stats));
  }
  json.set("trace", std::move(trace));
  return json;
}

core::SearchCheckpoint checkpoint_from_json(const Json& json) {
  check_header(json, "lightnas.checkpoint");
  core::SearchCheckpoint ck;
  ck.seed = u64_from_json(json.at("seed"));
  ck.total_epochs =
      static_cast<std::size_t>(json.at("total_epochs").as_number());
  ck.targets = json.at("targets").to_doubles();
  ck.next_epoch = static_cast<std::size_t>(json.at("next_epoch").as_number());
  ck.w_step_counter =
      static_cast<std::size_t>(json.at("w_step_counter").as_number());
  ck.alpha = tensor_from_json(json.at("alpha"));
  ck.supernet_weights = tensor_list_from_json(json.at("supernet_weights"));
  ck.w_velocity = tensor_list_from_json(json.at("w_velocity"));
  ck.adam_m = tensor_list_from_json(json.at("adam_m"));
  ck.adam_v = tensor_list_from_json(json.at("adam_v"));
  ck.adam_t = static_cast<std::size_t>(json.at("adam_t").as_number());
  ck.lambdas = json.at("lambdas").to_doubles();
  ck.cooldown_scale = json.at("cooldown_scale").number_or_nan();
  ck.tau_floor = json.at("tau_floor").number_or_nan();
  ck.rng = rng_state_from_json(json.at("rng"));
  ck.data_rng = rng_state_from_json(json.at("data_rng"));
  ck.valid_rng = rng_state_from_json(json.at("valid_rng"));
  ck.train_batcher = batcher_state_from_json(json.at("train_batcher"));
  ck.valid_batcher = batcher_state_from_json(json.at("valid_batcher"));
  ck.weight_updates =
      static_cast<std::size_t>(json.at("weight_updates").as_number());
  ck.alpha_updates =
      static_cast<std::size_t>(json.at("alpha_updates").as_number());
  ck.health = health_from_json(json.at("health"));
  for (const Json& row : json.at("trace").as_array()) {
    ck.trace.push_back(epoch_stats_from_json(row));
  }
  return ck;
}

void save_checkpoint(const std::string& path,
                     const core::SearchCheckpoint& checkpoint) {
  write_json_file_atomic(path, checkpoint_to_json(checkpoint));
}

core::SearchCheckpoint load_checkpoint(const std::string& path) {
  return checkpoint_from_json(read_json_file(path));
}

}  // namespace lightnas::io
