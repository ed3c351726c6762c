#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lightnas.hpp"
#include "io/json.hpp"
#include "nn/data.hpp"
#include "predictors/dataset.hpp"
#include "predictors/mlp_predictor.hpp"
#include "space/architecture.hpp"
#include "util/rng.hpp"

namespace lightnas::io {

/// Low-level JSON building blocks shared by every artifact format in
/// this library (search checkpoints here, campaign checkpoints in
/// src/campaign). Stable conversion invariants: u64 round-trips as hex
/// (a double cannot hold it exactly), tensors as shape + flat float
/// array, RNG state word-exact.
namespace detail {

/// Throws std::runtime_error unless `json` carries the expected
/// `kind` / `version` header.
void check_header(const Json& json, const std::string& kind);
int format_version();

Json u64_to_json(std::uint64_t v);
std::uint64_t u64_from_json(const Json& json);

Json tensor_to_json(const nn::Tensor& t);
nn::Tensor tensor_from_json(const Json& json);
Json tensor_list_to_json(const std::vector<nn::Tensor>& tensors);
std::vector<nn::Tensor> tensor_list_from_json(const Json& json);

Json rng_state_to_json(const util::RngState& state);
util::RngState rng_state_from_json(const Json& json);
Json batcher_state_to_json(const nn::Batcher::State& state);
nn::Batcher::State batcher_state_from_json(const Json& json);

Json health_to_json(const core::RunHealth& health);
core::RunHealth health_from_json(const Json& json);
Json epoch_stats_to_json(const core::SearchEpochStats& stats);
core::SearchEpochStats epoch_stats_from_json(const Json& row);

}  // namespace detail

/// Persistence for the artifacts a deployment pipeline wants to keep:
/// the trained predictor (the expensive measurement campaign), the raw
/// measurement dataset, and search results with their traces. All files
/// are self-describing JSON with a `kind` + `version` header.

// --- predictors ---------------------------------------------------------

Json predictor_to_json(const predictors::MlpPredictor& predictor);
predictors::MlpPredictor predictor_from_json(const Json& json);

void save_predictor(const std::string& path,
                    const predictors::MlpPredictor& predictor);
predictors::MlpPredictor load_predictor(const std::string& path);

// --- measurement datasets -------------------------------------------------

Json dataset_to_json(const predictors::MeasurementDataset& data,
                     std::size_t num_ops);
predictors::MeasurementDataset dataset_from_json(const Json& json);

void save_dataset(const std::string& path,
                  const predictors::MeasurementDataset& data,
                  std::size_t num_ops);
predictors::MeasurementDataset load_dataset(const std::string& path);

// --- search results ---------------------------------------------------

Json search_result_to_json(const core::SearchResult& result);
core::SearchResult search_result_from_json(const Json& json);

void save_search_result(const std::string& path,
                        const core::SearchResult& result);
core::SearchResult load_search_result(const std::string& path);

// --- search checkpoints ------------------------------------------------

Json checkpoint_to_json(const core::SearchCheckpoint& checkpoint);
core::SearchCheckpoint checkpoint_from_json(const Json& json);

/// Checkpoint writes are atomic (write-temp-then-rename): a crash during
/// the write never corrupts the previous checkpoint at `path`.
void save_checkpoint(const std::string& path,
                     const core::SearchCheckpoint& checkpoint);
core::SearchCheckpoint load_checkpoint(const std::string& path);

}  // namespace lightnas::io
