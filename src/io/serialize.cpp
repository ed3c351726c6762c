#include "io/serialize.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace lightnas::io {

namespace detail {

namespace {
constexpr int kFormatVersion = 1;
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
  return static_cast<std::uint64_t>(
      std::strtoull(json.as_string().c_str(), nullptr, 16));
}

Json tensor_to_json(const nn::Tensor& t) {
  Json json = Json::object();
  json.set("rows", Json(t.rows()));
  json.set("cols", Json(t.cols()));
  json.set("data", Json::from_floats(t.data()));
  return json;
}

nn::Tensor tensor_from_json(const Json& json) {
  const auto rows = static_cast<std::size_t>(json.at("rows").as_number());
  const auto cols = static_cast<std::size_t>(json.at("cols").as_number());
  const std::vector<Json>& data = json.at("data").as_array();
  if (data.size() != rows * cols) {
    throw std::runtime_error("tensor data does not match its shape");
  }
  nn::Tensor t(rows, cols);
  for (std::size_t i = 0; i < data.size(); ++i) {
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
  state.order.reserve(json.at("order").size());
  for (const Json& i : json.at("order").as_array()) {
    state.order.push_back(static_cast<std::size_t>(i.as_number()));
  }
  state.cursor = static_cast<std::size_t>(json.at("cursor").as_number());
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
    Json tensor = Json::object();
    tensor.set("rows", Json(state.shapes[i].first));
    tensor.set("cols", Json(state.shapes[i].second));
    tensor.set("data", Json::from_floats(state.tensors[i]));
    tensors.push_back(std::move(tensor));
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
    state.shapes.emplace_back(
        static_cast<std::size_t>(tensor.at("rows").as_number()),
        static_cast<std::size_t>(tensor.at("cols").as_number()));
    state.tensors.push_back(tensor.at("data").to_floats());
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
  // One length across rows keeps every encoding the same width.
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
    } catch (const std::logic_error&) {  // std::stoul on a bad token
      fail("malformed architecture '" + text + "'");
    }
    if (r > 0 && arch.num_layers() != data.architectures[0].num_layers()) {
      fail(std::to_string(arch.num_layers()) + " layers, but row 0 has " +
           std::to_string(data.architectures[0].num_layers()));
    }
    try {
      data.encodings.push_back(arch.encode_one_hot(num_ops));
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
