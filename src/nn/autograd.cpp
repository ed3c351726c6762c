#include "nn/autograd.hpp"

#include <cassert>
#include <unordered_set>

#include "nn/pool.hpp"

namespace lightnas::nn {

namespace {

/// Thread-local state of the autograd layer: the Var free list and the
/// traversal buffers that backward() and graph_size() reuse call to call.
struct GraphArena {
  std::vector<Var*> free_vars;

  std::vector<Var*> tape;  // parents-before-children order
  std::unordered_set<Var*> visited_scratch;
  /// The trainable leaves the last backward() wrote, in tape order.
  std::vector<Var*> leaves;

  ~GraphArena() {
    // Free-listed nodes were scrubbed on release (empty tensors, no
    // closure, no parents), so this is a flat delete with no recursion.
    for (Var* var : free_vars) delete var;
  }
};

GraphArena& arena() {
  thread_local GraphArena instance;
  return instance;
}

/// shared_ptr deleter that recycles instead of deleting while a pool is
/// active on the destroying thread. Scrubbing releases the node's
/// buffers to the TensorPool and drops parent references (cascading the
/// recycling up the graph); the emptied shell keeps its vector/string
/// capacity for the next step.
struct VarRecycler {
  void operator()(Var* var) const noexcept {
    if (TensorPool::active() != nullptr) {
      var->backward_fn.reset();
      var->parents.clear();
      var->name.clear();
      var->requires_grad = false;
      var->grad = Tensor();
      var->value = Tensor();
      try {
        arena().free_vars.push_back(var);
        return;
      } catch (...) {
        // bookkeeping OOM: fall through to plain delete
      }
    }
    delete var;
  }
};

VarPtr new_var() {
  TensorPool* pool = TensorPool::active();
  if (pool == nullptr) return std::make_shared<Var>();
  GraphArena& a = arena();
  Var* var = nullptr;
  if (!a.free_vars.empty()) {
    var = a.free_vars.back();
    a.free_vars.pop_back();
    pool->note_node_hit();
  } else {
    var = new Var();
    pool->note_node_miss();
  }
  // Control blocks come from the thread-local block pool, so the whole
  // handle is allocation-free in the steady state.
  return VarPtr(var, VarRecycler{}, PooledBlockAllocator<Var>{});
}

/// Post-order DFS: parents in order, each before its children. Its visit
/// order fixes the order in which gradients accumulate, so it is the
/// one traversal every backward pass uses.
void tape_sort(Var* node, std::unordered_set<Var*>& visited,
               std::vector<Var*>& tape) {
  if (node == nullptr || visited.count(node) != 0) return;
  visited.insert(node);
  for (const VarPtr& parent : node->parents) {
    tape_sort(parent.get(), visited, tape);
  }
  tape.push_back(node);
}

/// The nodes reachable from `root`, parents before children, in the
/// arena's reusable buffers (valid until the next call on this thread).
const std::vector<Var*>& sorted_graph(Var* root) {
  GraphArena& a = arena();
  a.tape.clear();
  a.visited_scratch.clear();
  tape_sort(root, a.visited_scratch, a.tape);
  return a.tape;
}

}  // namespace

void Var::ensure_grad() {
  // Guard on the element count as well as the nominal shape: `value`
  // can be re-materialized (or its buffer resized through data())
  // after `grad` was first allocated, and a stale grad buffer would
  // scatter out of bounds. Allocation goes through the Tensor
  // constructor, i.e. the active pool when there is one.
  if (!grad.same_shape(value) || grad.size() != value.size()) {
    grad = Tensor::zeros(value.rows(), value.cols());
  }
}

void Var::zero_grad() {
  if (grad.same_shape(value) && grad.size() == value.size()) {
    grad.fill(0.0f);
  } else {
    grad = Tensor::zeros(value.rows(), value.cols());
  }
}

VarPtr make_leaf(Tensor value, std::string name) {
  VarPtr v = new_var();
  v->value = std::move(value);
  v->requires_grad = true;
  v->name = std::move(name);
  return v;
}

VarPtr make_const(Tensor value, std::string name) {
  VarPtr v = new_var();
  v->value = std::move(value);
  v->requires_grad = false;
  v->name = std::move(name);
  return v;
}

namespace {

template <typename ParentRange>
VarPtr make_node_impl(Tensor value, const ParentRange& parents,
                      BackwardFn backward_fn) {
  VarPtr v = new_var();
  v->value = std::move(value);
  // assign() reuses the recycled node's vector capacity.
  v->parents.assign(parents.begin(), parents.end());
  bool any_grad = false;
  for (const VarPtr& parent : v->parents) any_grad |= parent->requires_grad;
  v->requires_grad = any_grad;
  if (any_grad) v->backward_fn = std::move(backward_fn);
  return v;
}

}  // namespace

VarPtr make_node(Tensor value, std::initializer_list<VarPtr> parents,
                 BackwardFn backward_fn) {
  return make_node_impl(std::move(value), parents, std::move(backward_fn));
}

VarPtr make_node(Tensor value, const std::vector<VarPtr>& parents,
                 BackwardFn backward_fn) {
  return make_node_impl(std::move(value), parents, std::move(backward_fn));
}

const std::vector<Var*>& backward(const VarPtr& root) {
  assert(root);
  assert(root->value.rows() == 1 && root->value.cols() == 1 &&
         "backward() requires a scalar root");
  const std::vector<Var*>& tape = sorted_graph(root.get());
  std::vector<Var*>& leaves = arena().leaves;
  leaves.clear();
  // Only nodes that track a gradient get one: a constant (an input
  // batch, say) has no closure and no reader, so its gradient is never
  // formed. The root is always seeded.
  for (Var* node : tape) {
    if (!node->requires_grad) continue;
    node->ensure_grad();
    if (!node->backward_fn) leaves.push_back(node);
  }
  root->ensure_grad();
  root->grad.fill(1.0f);
  // `tape` is parents-before-children; traverse children-first.
  for (auto it = tape.rbegin(); it != tape.rend(); ++it) {
    Var& node = **it;
    if (node.backward_fn) node.backward_fn(node);
  }
  return leaves;
}

std::size_t graph_size(const VarPtr& root) {
  return sorted_graph(root.get()).size();
}

}  // namespace lightnas::nn
