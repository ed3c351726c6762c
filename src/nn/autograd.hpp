#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "nn/tensor.hpp"

namespace lightnas::nn {

struct Var;
using VarPtr = std::shared_ptr<Var>;

/// Move-only type-erased callable `void(Var&)` with inline storage —
/// the backward closure of one graph node.
///
/// Every op creates exactly one of these per step, so the previous
/// `std::function` representation paid one heap allocation per node per
/// step for any capture beyond two pointers (all of ours: op lambdas
/// capture parent VarPtrs plus cached forward Tensors). The capacity
/// below fits the largest op closure (softmax_cross_entropy: a VarPtr,
/// a Tensor, and a label vector) with headroom; a larger capture is a
/// compile error, not a silent heap fallback, so a closure never costs
/// an allocation of its own.
class BackwardFn {
 public:
  static constexpr std::size_t kCapacity = 96;

  BackwardFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BackwardFn> &&
                std::is_invocable_v<std::decay_t<F>&, Var&>>>
  BackwardFn(F&& fn) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "backward closure exceeds BackwardFn::kCapacity; raise it");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "backward closure is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "backward closure must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = ops_for<Fn>();
  }

  BackwardFn(BackwardFn&& other) noexcept { move_from(other); }
  BackwardFn& operator=(BackwardFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;

  ~BackwardFn() { reset(); }

  /// Destroy the held closure (releasing its captured VarPtrs/Tensors);
  /// the BackwardFn becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()(Var& node) { ops_->invoke(storage_, node); }

 private:
  struct OpsTable {
    void (*invoke)(void* storage, Var& node);
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static const OpsTable* ops_for() {
    static const OpsTable table = {
        [](void* storage, Var& node) { (*static_cast<Fn*>(storage))(node); },
        [](void* src, void* dst) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* storage) noexcept { static_cast<Fn*>(storage)->~Fn(); },
    };
    return &table;
  }

  void move_from(BackwardFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const OpsTable* ops_ = nullptr;
};

/// Node in the reverse-mode autodiff graph.
///
/// Each operation in ops.hpp produces a fresh Var whose `backward_fn`
/// scatters the node's accumulated gradient into its parents. Parameters
/// are leaf Vars that persist across forward passes; a new graph is built
/// on every forward and torn down when the loss Var goes out of scope
/// (parents are held by shared_ptr, so the loss root keeps the graph
/// alive exactly as long as needed — classic RAII, no manual frees).
///
/// When a TensorPool is active (see pool.hpp), tearing a node down
/// returns its tensors' buffers to the pool for the next step's graph;
/// the node itself is freed. Values and gradients are bit-identical
/// either way.
struct Var {
  Tensor value;
  Tensor grad;  // same shape as value; lazily allocated by backward()
  bool requires_grad = false;
  std::vector<VarPtr> parents;
  /// Propagates this->grad into parents' grads. Empty for leaves.
  BackwardFn backward_fn;
  /// Optional label for debugging / gradcheck diagnostics.
  std::string name;

  void ensure_grad();
  void zero_grad();
};

/// Create a trainable leaf (parameter or input requiring gradient).
VarPtr make_leaf(Tensor value, std::string name = {});

/// Create a constant (no gradient tracked).
VarPtr make_const(Tensor value, std::string name = {});

/// Create an interior node wired to `parents`. `backward_fn` is kept
/// only if some parent requires a gradient. This is the single Var
/// construction path for all ops.
VarPtr make_node(Tensor value, std::initializer_list<VarPtr> parents,
                 BackwardFn backward_fn);
VarPtr make_node(Tensor value, const std::vector<VarPtr>& parents,
                 BackwardFn backward_fn);

/// Run reverse-mode accumulation from `root`, which must be a scalar
/// (1x1) Var. Seeds d(root)/d(root) = 1, orders the graph by one
/// post-order DFS (parents in order, each before its children) and runs
/// every node's backward closure in the reverse of that order. The same
/// body serves pooled and unpooled graphs, so their gradients are
/// bit-identical. Gradients *accumulate* into leaves; call `zero_grad`
/// on parameters between steps.
///
/// Returns the leaves it wrote: every node on its tape that requires a
/// gradient and has no backward closure, each once, in tape order. A
/// trainable leaf that is not reachable from `root` is not listed and
/// its gradient is untouched, so the list is an exact manifest for a
/// sparse optimizer step. The list lives in thread-local storage and
/// stays valid until the next backward() on the calling thread.
const std::vector<Var*>& backward(const VarPtr& root);

/// Number of nodes reachable from `root` (diagnostics / tests).
std::size_t graph_size(const VarPtr& root);

/// Number of Vars (leaves, constants and nodes) created on the calling
/// thread so far (diagnostics / tests: a graph-free path leaves it
/// unchanged).
std::size_t vars_created();

}  // namespace lightnas::nn
