#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/aligned.hpp"
#include "nn/autograd.hpp"
#include "nn/simd.hpp"
#include "nn/tensor.hpp"

namespace lightnas::nn::plan {

/// The op vocabulary a recorded program can contain. Deliberately only
/// the training-step ops: anything else encountered while recording
/// poisons the capture and the step keeps running on the dynamic path.
/// The two fused kinds never appear in a recorded Program — the
/// compiler synthesizes them from matmul/add_bias/relu runs.
enum class OpKind : std::uint8_t {
  kMatmul,     ///< C = A * B
  kAdd,        ///< C = A + B (same shape)
  kAddBias,    ///< C = X + row-broadcast bias (1 x cols)
  kScale,      ///< C = X * scalar
  kAddScalar,  ///< C = X + scalar
  kRelu,       ///< C = max(X, 0)
  kSoftmaxCE,  ///< scalar = mean softmax cross-entropy(X, labels)
};

/// What a program slot holds at execution time.
enum class SlotKind : std::uint8_t {
  kOp,     ///< output of a recorded op (lives in the plan arena)
  kParam,  ///< persistent trainable leaf, bound by VarPtr (value + grad)
  kInput,  ///< per-execute tensor binding (a make_const created in-step)
  kBaked,  ///< persistent constant snapshotted at record time
};

/// One value in the recorded dataflow program.
struct ProgramSlot {
  SlotKind kind = SlotKind::kOp;
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// kInput: position in ExecutionPlan::execute()'s inputs vector
  /// (make_const creation order during the recorded step).
  std::uint32_t input_index = 0;
  /// kParam: the live parameter node. Gradients accumulate into
  /// param->grad exactly as the dynamic backward would.
  VarPtr param;
  /// kParam: name used to re-bind a deserialized program to a model.
  std::string param_name;
  /// kBaked: value snapshot taken at record time.
  Tensor baked;
};

/// Sentinel for "no second operand".
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One recorded op: out = kind(a [, b]). Slots are indices into
/// Program::slots; ops are stored in creation order, which is a valid
/// topological order by construction.
struct ProgramOp {
  OpKind kind = OpKind::kMatmul;
  std::uint32_t out = 0;
  std::uint32_t a = 0;
  std::uint32_t b = kNoSlot;
  /// kScale factor / kAddScalar constant, captured at record time.
  double scalar = 0.0;
  /// kSoftmaxCE: position in execute()'s labels vector.
  std::uint32_t label_binding = 0;
};

/// A recorded training/inference step: the shape-specialized dataflow
/// graph one forward pass traced out, with parameters bound by pointer
/// and per-step tensors left as input bindings. This is the
/// serializable "compiled model" IR — ExecutionPlan::compile lowers it
/// against the current ISA tier.
struct Program {
  std::vector<ProgramSlot> slots;
  std::vector<ProgramOp> ops;
  std::uint32_t root = 0;
  std::uint32_t num_inputs = 0;
  std::uint32_t num_label_bindings = 0;
};

namespace detail {
/// True while a Recording is active on this thread — the ops layer
/// checks this before paying for a record call.
bool recording_active();
/// Called by each supported op after make_node: out = kind(a [, b]).
void record_op(const VarPtr& out, OpKind kind, const VarPtr& a,
               const VarPtr* b, double scalar);
/// Called by make_const / make_leaf so in-step tensor creations become
/// input bindings (const) or poison the capture (leaf).
void record_const(const VarPtr& v);
void record_leaf(const VarPtr& v);
}  // namespace detail

/// RAII capture of one step's op stream on the current thread. Create
/// it, run the forward pass, then call capture(root) to finalize.
/// Returns null when the step used an unsupported op, created a fresh
/// trainable leaf, fed a recorded op from an untraced interior node, or
/// overflowed the op budget — the caller then stays on the dynamic
/// path.
class Recording {
 public:
  Recording();
  ~Recording();

  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;

  /// Finalize: `root` must be the output of a recorded op. Ends the
  /// capture either way; at most one capture() per Recording.
  std::unique_ptr<Program> capture(const VarPtr& root);

  bool poisoned() const;
};

struct CompileOptions {
  /// Emit the reverse pass (root must be 1x1). Off for inference plans.
  bool backward = true;
  /// Fuse matmul+add_bias(+relu) chains into single-kernel records.
  bool fuse = true;
};

/// A recorded Program lowered against the *current* environment: kernel
/// pointers resolved for the active ISA tier, and every intermediate
/// placed at a fixed offset in one liveness-packed
/// 32-byte-aligned arena. execute() touches no Var machinery, no
/// TensorPool, and no heap; results (values, loss, and parameter
/// gradients) are bit-identical to running the same graph dynamically.
/// Not thread-safe: one plan instance serves one executing thread.
class ExecutionPlan {
 public:
  ~ExecutionPlan();

  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// Lower `program` for the current active_isa(). Returns null when
  /// the program is unsupported (non-scalar root with backward,
  /// zero-sized shapes, malformed wiring). A successful compile adds to
  /// PlanStats' compiles, fused_ops and arena_bytes.
  static std::unique_ptr<ExecutionPlan> compile(const Program& program,
                                                const CompileOptions& opts);

  /// True when the active ISA tier still matches what compile() pinned.
  /// A stale plan must be recompiled, not executed — the kernel choice
  /// is baked in.
  bool valid() const;

  /// Run the plan. `inputs[i]` binds input slot i (shape-checked);
  /// `labels[j]` binds softmax-CE call j. Returns false — with no
  /// side effects on gradients — when a binding or a bound parameter
  /// no longer matches the recorded shapes; the caller falls back to
  /// the dynamic path. On success parameter grads have been
  /// accumulated (backward plans) and root_data() exposes the root
  /// value until the next execute(). Each call counts one PlanStats hit
  /// (success) or miss (false).
  bool execute(const std::vector<const Tensor*>& inputs,
               const std::vector<const std::vector<std::size_t>*>& labels);

  const float* root_data() const;
  std::size_t root_rows() const;
  std::size_t root_cols() const;

  std::size_t arena_bytes() const;
  std::size_t fused_ops() const;
  std::size_t num_inputs() const;
  std::size_t num_label_bindings() const;
  bool has_backward() const;

  /// The IR this plan was compiled from (for serialization).
  const Program& program() const;

 private:
  ExecutionPlan();
  bool run(const std::vector<const Tensor*>& inputs,
           const std::vector<const std::vector<std::size_t>*>& labels);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide plan telemetry (all plans, all threads).
struct PlanStats {
  std::uint64_t hits = 0;       ///< execute() calls that ran the plan
  std::uint64_t misses = 0;     ///< execute() calls that returned false
  std::uint64_t compiles = 0;   ///< successful compilations
  std::uint64_t fused_ops = 0;  ///< fused kernel records across compiles
  std::uint64_t arena_bytes = 0;  ///< arena bytes across compiles

  PlanStats operator-(const PlanStats& other) const;
};

PlanStats global_stats();

}  // namespace lightnas::nn::plan
