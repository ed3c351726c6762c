#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lightnas::space {

class SearchSpace;

/// A concrete architecture: one operator index per layer of the macro-
/// architecture (including fixed layers, whose entry never varies).
/// This is the paper's arch = {op_l} with the sparse one-hot encoding
/// alpha-bar of Eq (4) available via `encode_one_hot`.
class Architecture {
 public:
  Architecture() = default;
  explicit Architecture(std::vector<std::size_t> op_indices);

  const std::vector<std::size_t>& ops() const { return op_indices_; }
  std::size_t op_at(std::size_t layer) const;
  void set_op(std::size_t layer, std::size_t op_index);
  std::size_t num_layers() const { return op_indices_.size(); }

  /// Whether the SE module is applied to the last nine layers
  /// (the Table-4 ablation).
  bool with_se() const { return with_se_; }
  void set_with_se(bool v) { with_se_ = v; }

  /// Flattened L*K one-hot encoding (row-major), Eq (4). This is the
  /// latency predictor's input representation. Throws std::out_of_range
  /// when an op is not below num_ops.
  std::vector<float> encode_one_hot(std::size_t num_ops) const;

  /// Inverse of encode_one_hot. Requires a valid one-hot per row.
  static Architecture decode_one_hot(const std::vector<float>& encoding,
                                     std::size_t num_layers,
                                     std::size_t num_ops);

  /// Number of layers whose operator is not SkipConnect (effective depth).
  std::size_t effective_depth(const SearchSpace& space) const;

  /// Compact text form, e.g. "0:K3_E3 1:Skip ...".
  std::string to_string(const SearchSpace& space) const;
  /// One line per stage with box-drawing, Fig-6 style.
  std::string to_diagram(const SearchSpace& space) const;

  /// Serialize as a comma-separated op-index list (plus ":se" suffix).
  std::string serialize() const;
  static Architecture deserialize(const std::string& text);

  /// Stable 64-bit fingerprint over (layer count, op indices, SE flag).
  /// The mixing function is fixed by this library — not std::hash — so
  /// the value is identical across platforms, standard libraries, and
  /// process runs; it keys the serving cache and on-disk artifacts.
  /// Equal architectures always agree; distinct ones collide with
  /// probability ~2^-64.
  std::uint64_t fingerprint() const;

  bool operator==(const Architecture& other) const = default;

 private:
  std::vector<std::size_t> op_indices_;
  bool with_se_ = false;
};

/// Strict-weak-order so architectures can key std::map / std::set in the
/// evolutionary baseline's dedup bookkeeping.
struct ArchitectureLess {
  bool operator()(const Architecture& a, const Architecture& b) const;
};

}  // namespace lightnas::space

/// Hash support so Architecture can key std::unordered_map / set
/// directly (the serving layer's cache uses the raw fingerprint).
template <>
struct std::hash<lightnas::space::Architecture> {
  std::size_t operator()(const lightnas::space::Architecture& arch) const
      noexcept {
    return static_cast<std::size_t>(arch.fingerprint());
  }
};
