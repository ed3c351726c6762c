#include "space/search_space.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "space/architecture.hpp"
#include "util/rng.hpp"

namespace lightnas::space {

namespace {

/// Round channels to the nearest multiple of 8 (standard mobile-net
/// convention so depthwise kernels stay vectorizable), never below 8.
std::size_t scale_channels(std::size_t channels, double width_mult) {
  const double scaled = static_cast<double>(channels) * width_mult;
  auto rounded = static_cast<std::size_t>(std::round(scaled / 8.0)) * 8;
  return std::max<std::size_t>(rounded, 8);
}

struct StageDef {
  std::size_t out_channels;
  std::size_t num_layers;
  int first_stride;
};

}  // namespace

SearchSpace SearchSpace::fbnet_xavier() {
  return scaled(1.0, 224);
}

SearchSpace SearchSpace::scaled(double width_mult, std::size_t resolution) {
  assert(width_mult > 0.0);
  assert(resolution >= 32);

  SearchSpace space;
  space.ops_ = &OperatorSpace::canonical();
  space.resolution_ = resolution;
  space.width_mult_ = width_mult;
  space.num_classes_ = 1000;
  space.stem_channels_ = scale_channels(16, width_mult);
  space.head_channels_ = scale_channels(1504, width_mult);

  // FBNet macro-architecture: 1+4+4+4+4+4+1 = 22 candidate layers.
  const StageDef stages[] = {
      {16, 1, 1},   // stage 0: fixed layer
      {24, 4, 2},   // stage 1
      {32, 4, 2},   // stage 2
      {64, 4, 2},   // stage 3
      {112, 4, 1},  // stage 4
      {184, 4, 2},  // stage 5
      {352, 1, 1},  // stage 6
  };

  // Stem: 3x3 conv stride 2 halves the resolution before the first layer.
  std::size_t res = resolution / 2;
  std::size_t in_ch = space.stem_channels_;
  std::size_t stage_idx = 0;
  for (const StageDef& stage : stages) {
    const std::size_t out_ch = scale_channels(stage.out_channels, width_mult);
    for (std::size_t i = 0; i < stage.num_layers; ++i) {
      LayerSpec layer;
      layer.in_channels = in_ch;
      layer.out_channels = out_ch;
      layer.in_resolution = res;
      layer.stride = (i == 0) ? stage.first_stride : 1;
      layer.stage = stage_idx;
      layer.searchable = !(stage_idx == 0 && i == 0);
      space.layers_.push_back(layer);
      if (layer.stride == 2) res = (res + 1) / 2;
      in_ch = out_ch;
    }
    ++stage_idx;
  }
  assert(space.layers_.size() == 22);
  return space;
}

std::size_t SearchSpace::num_searchable_layers() const {
  std::size_t n = 0;
  for (const LayerSpec& layer : layers_) {
    if (layer.searchable) ++n;
  }
  return n;
}

double SearchSpace::space_size_log10() const {
  return static_cast<double>(num_searchable_layers()) *
         std::log10(static_cast<double>(num_ops()));
}

Architecture SearchSpace::random_architecture(
    lightnas::util::Rng& rng) const {
  std::vector<std::size_t> ops(layers_.size(), 0);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (layers_[l].searchable) {
      ops[l] = static_cast<std::size_t>(rng.uniform_index(num_ops()));
    }
  }
  return Architecture(ops);
}

Architecture SearchSpace::mutate(const Architecture& base,
                                 std::size_t num_mutations,
                                 lightnas::util::Rng& rng) const {
  assert(base.num_layers() == layers_.size());
  Architecture child = base;
  std::vector<std::size_t> searchable;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (layers_[l].searchable) searchable.push_back(l);
  }
  for (std::size_t m = 0; m < num_mutations; ++m) {
    const std::size_t layer =
        searchable[rng.uniform_index(searchable.size())];
    child.set_op(layer, static_cast<std::size_t>(rng.uniform_index(
                            num_ops())));
  }
  return child;
}

Architecture SearchSpace::crossover(const Architecture& a,
                                    const Architecture& b,
                                    lightnas::util::Rng& rng) const {
  assert(a.num_layers() == layers_.size());
  assert(b.num_layers() == layers_.size());
  Architecture child = a;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (layers_[l].searchable && rng.bernoulli(0.5)) {
      child.set_op(l, b.op_at(l));
    }
  }
  return child;
}

Architecture SearchSpace::mobilenet_v2_like() const {
  return uniform_architecture(ops_->mbconv_index(3, 6));
}

Architecture SearchSpace::uniform_architecture(std::size_t op_index) const {
  assert(op_index < num_ops());
  std::vector<std::size_t> ops(layers_.size(), 0);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (layers_[l].searchable) ops[l] = op_index;
  }
  return Architecture(ops);
}

std::string SearchSpace::describe() const {
  std::ostringstream oss;
  oss << "SearchSpace: " << resolution_ << "x" << resolution_ << " input, "
      << "width x" << width_mult_ << ", L=" << num_layers() << " (K="
      << num_ops() << " ops, " << num_searchable_layers()
      << " searchable), |A| = 10^" << space_size_log10();
  return oss.str();
}

}  // namespace lightnas::space
