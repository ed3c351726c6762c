#include "space/operator_space.hpp"

#include <cassert>

namespace lightnas::space {

OperatorSpace::OperatorSpace() {
  for (int kernel : {3, 5, 7}) {
    for (int expansion : {3, 6}) {
      ops_.push_back(Operator{OpKind::kMBConv, kernel, expansion});
    }
  }
  ops_.push_back(Operator{OpKind::kSkip, 0, 0});
}

const OperatorSpace& OperatorSpace::canonical() {
  static const OperatorSpace instance;
  return instance;
}

const Operator& OperatorSpace::op(std::size_t index) const {
  assert(index < ops_.size());
  return ops_[index];
}

std::string OperatorSpace::name(std::size_t index) const {
  assert(index < ops_.size());
  const Operator& o = ops_[index];
  if (o.kind == OpKind::kSkip) return "Skip";
  // Appended, not `"K" + std::string`: GCC 12 warns (-Wrestrict) on the
  // insert-at-front that operator+(const char*, string&&) inlines to.
  std::string name = "K";
  name += std::to_string(o.kernel);
  name += "_E";
  name += std::to_string(o.expansion);
  return name;
}

std::size_t OperatorSpace::index_of(const Operator& op) const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i] == op) return i;
  }
  return ops_.size();
}

std::size_t OperatorSpace::skip_index() const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kSkip) return i;
  }
  assert(false && "canonical space always contains Skip");
  return ops_.size();
}

std::size_t OperatorSpace::mbconv_index(int kernel, int expansion) const {
  return index_of(Operator{OpKind::kMBConv, kernel, expansion});
}

}  // namespace lightnas::space
