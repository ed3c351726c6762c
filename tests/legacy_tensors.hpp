#pragma once

#include <utility>

#include "io/json.hpp"
#include "io/serialize.hpp"

namespace lightnas::io {

/// `json` with every {"rows","cols","f32"} tensor rewritten into the
/// legacy {"rows","cols","data"} form that files written before the f32
/// encoding carry: one number per float, null for a non-finite one.
inline Json with_legacy_tensors(const Json& json) {
  if (json.type() == Json::Type::kArray) {
    Json out = Json::array();
    for (const Json& item : json.as_array()) {
      out.push_back(with_legacy_tensors(item));
    }
    return out;
  }
  if (json.type() != Json::Type::kObject) return json;
  Json out = Json::object();
  if (json.contains("f32")) {
    const nn::Tensor tensor = detail::tensor_from_json(json);
    Json data = Json::array();
    for (float v : tensor.data()) {
      data.push_back(Json(static_cast<double>(v)));
    }
    out.set("rows", json.at("rows"));
    out.set("cols", json.at("cols"));
    out.set("data", std::move(data));
    return out;
  }
  for (const auto& [key, item] : json.as_object()) {
    out.set(key, with_legacy_tensors(item));
  }
  return out;
}

}  // namespace lightnas::io
