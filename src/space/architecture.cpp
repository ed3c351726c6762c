#include "space/architecture.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>
#include <string>

#include "space/search_space.hpp"

namespace lightnas::space {

Architecture::Architecture(std::vector<std::size_t> op_indices)
    : op_indices_(std::move(op_indices)) {}

std::size_t Architecture::op_at(std::size_t layer) const {
  assert(layer < op_indices_.size());
  return op_indices_[layer];
}

void Architecture::set_op(std::size_t layer, std::size_t op_index) {
  assert(layer < op_indices_.size());
  op_indices_[layer] = op_index;
}

std::vector<float> Architecture::encode_one_hot(std::size_t num_ops) const {
  std::vector<float> encoding(op_indices_.size() * num_ops, 0.0f);
  for (std::size_t l = 0; l < op_indices_.size(); ++l) {
    // Checked in every build: ops come from files and the command line,
    // and one past num_ops would land in the next layer or past the end.
    if (op_indices_[l] >= num_ops) {
      throw std::out_of_range("layer " + std::to_string(l) + " has op " +
                              std::to_string(op_indices_[l]) +
                              ", but num_ops is " + std::to_string(num_ops));
    }
    encoding[l * num_ops + op_indices_[l]] = 1.0f;
  }
  return encoding;
}

Architecture Architecture::decode_one_hot(const std::vector<float>& encoding,
                                          std::size_t num_layers,
                                          std::size_t num_ops) {
  assert(encoding.size() == num_layers * num_ops);
  std::vector<std::size_t> ops(num_layers, 0);
  for (std::size_t l = 0; l < num_layers; ++l) {
    std::size_t best = 0;
    float best_v = encoding[l * num_ops];
    for (std::size_t k = 1; k < num_ops; ++k) {
      if (encoding[l * num_ops + k] > best_v) {
        best_v = encoding[l * num_ops + k];
        best = k;
      }
    }
    ops[l] = best;
  }
  return Architecture(std::move(ops));
}

std::size_t Architecture::effective_depth(const SearchSpace& space) const {
  const std::size_t skip = space.ops().skip_index();
  std::size_t depth = 0;
  for (std::size_t op : op_indices_) {
    if (op != skip) ++depth;
  }
  return depth;
}

std::string Architecture::to_string(const SearchSpace& space) const {
  std::ostringstream oss;
  for (std::size_t l = 0; l < op_indices_.size(); ++l) {
    if (l > 0) oss << ' ';
    oss << l << ':' << space.ops().name(op_indices_[l]);
  }
  if (with_se_) oss << " +SE";
  return oss.str();
}

std::string Architecture::to_diagram(const SearchSpace& space) const {
  std::ostringstream oss;
  const auto& layers = space.layers();
  assert(layers.size() == op_indices_.size());
  std::size_t current_stage = static_cast<std::size_t>(-1);
  for (std::size_t l = 0; l < op_indices_.size(); ++l) {
    if (layers[l].stage != current_stage) {
      current_stage = layers[l].stage;
      if (l > 0) oss << '\n';
      oss << "stage " << current_stage << " (" << layers[l].in_resolution
          << "x" << layers[l].in_resolution << " -> "
          << layers[l].out_channels << "ch): ";
    } else {
      oss << " -> ";
    }
    oss << '[' << space.ops().name(op_indices_[l]);
    oss << ' ' << layers[l].out_channels;
    if (!layers[l].searchable) oss << " fixed";
    oss << ']';
  }
  if (with_se_) oss << "\n(+ SE on last 9 layers)";
  return oss.str();
}

std::string Architecture::serialize() const {
  std::ostringstream oss;
  for (std::size_t l = 0; l < op_indices_.size(); ++l) {
    if (l > 0) oss << ',';
    oss << op_indices_[l];
  }
  if (with_se_) oss << ":se";
  return oss.str();
}

Architecture Architecture::deserialize(const std::string& text) {
  std::string body = text;
  bool se = false;
  if (const auto pos = body.rfind(":se"); pos != std::string::npos &&
                                          pos == body.size() - 3) {
    se = true;
    body = body.substr(0, pos);
  }
  std::vector<std::size_t> ops;
  std::istringstream iss(body);
  std::string token;
  while (std::getline(iss, token, ',')) {
    ops.push_back(static_cast<std::size_t>(std::stoul(token)));
  }
  Architecture arch(std::move(ops));
  arch.set_with_se(se);
  return arch;
}

namespace {

/// SplitMix64 finalizer: a fixed, well-studied 64-bit mixer. Written out
/// here (rather than reusing util::Rng internals) so the fingerprint's
/// byte-level definition lives in exactly one place.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t Architecture::fingerprint() const {
  // Seed with the layer count so prefixes of one another never collide
  // trivially; fold each op index (+1 to distinguish op 0 from padding)
  // through the mixer chain; close with the SE flag.
  std::uint64_t h =
      mix64(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(
                                        op_indices_.size()));
  for (std::size_t op : op_indices_) {
    h = mix64(h ^ (static_cast<std::uint64_t>(op) + 1));
  }
  return mix64(h ^ (with_se_ ? 0x5851f42d4c957f2dULL : 0));
}

bool ArchitectureLess::operator()(const Architecture& a,
                                  const Architecture& b) const {
  if (a.with_se() != b.with_se()) return !a.with_se();
  return a.ops() < b.ops();
}

}  // namespace lightnas::space
