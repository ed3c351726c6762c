#include "nn/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"
#include "util/metrics.hpp"

namespace lightnas::nn::plan {

namespace {

// --- global telemetry --------------------------------------------------

util::Counter g_hits;
util::Counter g_misses;
util::Counter g_compiles;
util::Counter g_fused;
util::Counter g_arena_bytes;

/// Hard caps: a recording past this many ops is poisoned (the step is
/// not a fixed training step; tracing it would only burn memory), and a
/// cache past this many distinct keys stops admitting new ones.
constexpr std::size_t kMaxRecordOps = std::size_t{1} << 16;
constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 16;

// --- recorder ----------------------------------------------------------

struct Recorder {
  Program prog;
  std::unordered_map<const Var*, std::uint32_t> slot_of;
  bool poisoned = false;

  void reset() {
    prog = Program{};
    slot_of.clear();
    poisoned = false;
  }
};

thread_local Recorder tl_recorder;
thread_local bool tl_recording = false;

std::uint32_t add_slot(Recorder& r, ProgramSlot slot, const Var* node) {
  const auto id = static_cast<std::uint32_t>(r.prog.slots.size());
  r.prog.slots.push_back(std::move(slot));
  if (node != nullptr) r.slot_of.emplace(node, id);
  return id;
}

/// Slot for a parent the recorder has not seen yet. Persistent leaves
/// are representable (parameters by binding, constants by snapshot);
/// an untraced *interior* node means the step ran an op this layer does
/// not model, so the capture is poisoned.
std::uint32_t intern_parent(Recorder& r, const VarPtr& v) {
  const auto it = r.slot_of.find(v.get());
  if (it != r.slot_of.end()) return it->second;
  if (!v->parents.empty() || v->backward_fn) {
    r.poisoned = true;
    return 0;
  }
  ProgramSlot slot;
  slot.rows = v->value.rows();
  slot.cols = v->value.cols();
  if (v->requires_grad) {
    slot.kind = SlotKind::kParam;
    slot.param = v;
    slot.param_name = v->name;
  } else {
    slot.kind = SlotKind::kBaked;
    slot.baked = v->value;
  }
  return add_slot(r, std::move(slot), v.get());
}

}  // namespace

namespace detail {

bool recording_active() { return tl_recording; }

void record_op(const VarPtr& out, OpKind kind, const VarPtr& a,
               const VarPtr* b, double scalar) {
  if (!tl_recording) return;
  Recorder& r = tl_recorder;
  if (r.poisoned) return;
  if (r.prog.ops.size() >= kMaxRecordOps) {
    r.poisoned = true;
    return;
  }
  ProgramOp op;
  op.kind = kind;
  op.scalar = scalar;
  op.a = intern_parent(r, a);
  op.b = b != nullptr ? intern_parent(r, *b) : kNoSlot;
  if (r.poisoned) return;
  if (kind == OpKind::kSoftmaxCE) {
    op.label_binding = r.prog.num_label_bindings++;
  }
  ProgramSlot slot;
  slot.kind = SlotKind::kOp;
  slot.rows = out->value.rows();
  slot.cols = out->value.cols();
  op.out = add_slot(r, std::move(slot), out.get());
  r.prog.ops.push_back(op);
}

void record_const(const VarPtr& v) {
  if (!tl_recording) return;
  Recorder& r = tl_recorder;
  if (r.poisoned) return;
  ProgramSlot slot;
  slot.kind = SlotKind::kInput;
  slot.rows = v->value.rows();
  slot.cols = v->value.cols();
  slot.input_index = r.prog.num_inputs++;
  add_slot(r, std::move(slot), v.get());
}

void record_leaf(const VarPtr& v) {
  (void)v;
  if (!tl_recording) return;
  // A fresh trainable leaf mid-step is not a fixed training step.
  tl_recorder.poisoned = true;
}

}  // namespace detail

Recording::Recording() {
  LIGHTNAS_CHECK(!tl_recording, "plan::Recording: captures do not nest");
  tl_recorder.reset();
  tl_recording = true;
}

Recording::~Recording() { tl_recording = false; }

bool Recording::poisoned() const { return tl_recorder.poisoned; }

std::unique_ptr<Program> Recording::capture(const VarPtr& root) {
  tl_recording = false;
  Recorder& r = tl_recorder;
  if (r.poisoned || r.prog.ops.empty()) return nullptr;
  const auto it = r.slot_of.find(root.get());
  if (it == r.slot_of.end() ||
      r.prog.slots[it->second].kind != SlotKind::kOp) {
    return nullptr;
  }
  r.prog.root = it->second;
  auto program = std::make_unique<Program>(std::move(r.prog));
  r.reset();
  return program;
}

// --- lowered instruction set ------------------------------------------

namespace {

enum class Space : std::uint8_t {
  kNone,
  kArena,     ///< id: buffer index while compiling, float offset after
  kParamVal,  ///< id: parameter index
  kParamGrad,
  kInput,  ///< id: input binding index
  kBaked,  ///< id: baked-constant index
};

struct Ref {
  Space space = Space::kNone;
  std::uint32_t id = 0;
};

enum class IKind : std::uint8_t {
  kGemm,           // c = A x B via pinned row kernel (desc in gemms)
  kAddEw,          // c[i] = a[i] + b[i]
  kAddRow,         // c[i] = a[i] + b[col]
  kScale,          // c[i] = a[i] * f
  kAddConst,       // c[i] = a[i] + f
  kRelu,           // c[i] = max(a[i], 0)
  kFusedBias,      // c[i] = c[i] + a[col]          (in place, after gemm)
  kFusedBiasRelu,  // c[i] = max(c[i] + a[col], 0)  (in place, after gemm)
  kCeForward,      // a=logits -> c=probs, m=scalar loss
  kFillOne,        // c[0] = 1 (root grad seed)
  kAccum,          // c[i] += a[i]; first: c[i] = 0.0f + a[i]
  kColSum,         // c[col] = sum_r a[r,col] from zero, ascending r
  kReluMask,       // c[i] = m[i] <= 0 ? 0 : a[i]          (m = pre value)
  kMaskedPre,      // c[i] = m[i] <= 0 ? 0 : 0.0f + a[i]   (m = fused out)
  kPreCopy,        // c[i] = 0.0f + a[i]
  kCeBackward,     // c = gx from probs a, root-grad b, labels
};

struct GemmDesc;

struct GemmArgs {
  const float* a;
  const float* b;
  float* c;
  const GemmDesc* d;
};

using GemmRowFn = void (*)(const GemmArgs&, std::size_t, std::size_t);

struct GemmDesc {
  GemmRowFn fn = nullptr;
  std::size_t m = 0, k = 0, n = 0, kc = 64;
  bool fma = false;
  std::uint32_t chunks = 1;        // 1 = serial
  std::uint32_t bounds_begin = 0;  // into the bounds pool when chunks > 1
};

struct Instr {
  IKind kind = IKind::kGemm;
  bool first = false;
  Ref a, b, c, m;
  std::uint32_t rows = 0, cols = 0;
  float f = 0.0f;
  std::uint32_t labels = 0;
  std::int32_t gemm = -1;
};

// The six pinned kernel entry points. Selected once at compile time;
// every row range of one instruction runs the same kernel.
void gemm_nn_scalar(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  matmul_rows_scalar(g.a, g.b, g.c, g.d->k, g.d->n, r0, r1, g.d->kc);
}
void gemm_nn_avx2(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  simd::matmul_rows_avx2(g.a, g.b, g.c, g.d->k, g.d->n, r0, r1, g.d->kc,
                         g.d->fma);
}
void gemm_tn_scalar(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  matmul_tn_rows_scalar(g.a, g.b, g.c, g.d->k, g.d->m, g.d->n, r0, r1,
                        g.d->kc);
}
void gemm_tn_avx2(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  simd::matmul_tn_rows_avx2(g.a, g.b, g.c, g.d->k, g.d->m, g.d->n, r0, r1,
                            g.d->kc, g.d->fma);
}
void gemm_nt_scalar(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  matmul_nt_rows_scalar(g.a, g.b, g.c, g.d->k, g.d->n, r0, r1);
}
void gemm_nt_avx2(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  simd::matmul_nt_rows_avx2(g.a, g.b, g.c, g.d->k, g.d->n, r0, r1,
                            g.d->fma);
}

void gemm_chunk(void* arg, std::size_t r0, std::size_t r1) {
  const GemmArgs& g = *static_cast<GemmArgs*>(arg);
  g.d->fn(g, r0, r1);
}

}  // namespace

// --- the compiled plan -------------------------------------------------

struct PlanImpl {
  Program program;
  CompileOptions opts;
  simd::IsaLevel pinned_isa = simd::IsaLevel::kScalar;
  ParallelConfig pinned_cfg;
  std::size_t fused = 0;

  std::vector<Instr> instrs;
  std::vector<GemmDesc> gemms;
  std::vector<std::size_t> bounds;
  AlignedVector arena;

  std::vector<VarPtr> params;
  std::vector<std::pair<std::size_t, std::size_t>> param_shapes;
  std::vector<bool> param_grad_used;
  std::vector<Tensor> baked;
  std::vector<std::pair<std::size_t, std::size_t>> input_shapes;
  std::vector<std::pair<std::size_t, std::size_t>> label_shapes;

  // Per-execute pointer tables, sized once at compile so execution does
  // not allocate.
  std::vector<float*> pv, pg;
  std::vector<const float*> in, baked_ptrs;

  std::size_t root_off = 0, root_rows = 0, root_cols = 0;

  float* ptr(const Ref& r) {
    switch (r.space) {
      case Space::kArena:
        return arena.data() + r.id;
      case Space::kParamVal:
        return pv[r.id];
      case Space::kParamGrad:
        return pg[r.id];
      case Space::kInput:
        return const_cast<float*>(in[r.id]);
      case Space::kBaked:
        return const_cast<float*>(baked_ptrs[r.id]);
      case Space::kNone:
        break;
    }
    return nullptr;
  }
};

struct ExecutionPlan::Impl : PlanImpl {};

namespace {

// --- compiler ----------------------------------------------------------

/// Internal lowered-op kinds (fusion results included).
enum class LKind : std::uint8_t {
  kMatmul,
  kAdd,
  kAddBias,
  kScale,
  kAddScalar,
  kRelu,
  kSoftmaxCE,
  kFusedLinear,      // matmul + add_bias
  kFusedLinearRelu,  // matmul + add_bias + relu
};

struct LOp {
  LKind kind = LKind::kMatmul;
  std::uint32_t out = 0;
  std::uint32_t a = 0;          // x / left operand
  std::uint32_t b = kNoSlot;    // right operand / weight
  std::uint32_t bias = kNoSlot; // fused kinds only
  double scalar = 0.0;
  std::uint32_t label_binding = 0;
  std::int32_t probs_buf = -1;  // kSoftmaxCE: forward-pass probs buffer
};

struct Compiler {
  const Program& prog;
  CompileOptions opts;
  ParallelConfig cfg;
  simd::IsaLevel isa;
  PlanImpl& out;

  struct Buffer {
    std::size_t floats = 0;
    std::int64_t birth = -1;
    std::int64_t death = -1;
    std::size_t offset = 0;
  };
  std::vector<Buffer> buffers;
  std::vector<bool> grad_first_done;  // per buffer: first kAccum emitted

  std::vector<LOp> lops;
  std::vector<std::int32_t> producer;  // slot -> lop index (-1 none)
  std::vector<bool> needs;             // slot needs a gradient
  std::vector<std::int32_t> val_buf, grad_buf;   // slot -> buffer (-1)
  std::vector<std::int32_t> param_of, baked_of;  // slot -> binding index
  bool failed = false;

  Compiler(const Program& p, const CompileOptions& o,
           const ParallelConfig& c, simd::IsaLevel i,
           PlanImpl& im)
      : prog(p), opts(o), cfg(c), isa(i), out(im) {}

  const ProgramSlot& slot(std::uint32_t id) const { return prog.slots[id]; }

  bool run() {
    if (!validate()) return false;
    bind_slots();
    fuse();
    propagate_needs();
    emit_forward();
    if (opts.backward) emit_backward();
    if (failed) return false;
    if (!allocate_arena()) return false;
    patch_refs();
    const std::uint32_t rb = static_cast<std::uint32_t>(val_buf[prog.root]);
    out.root_off = buffers[rb].offset;
    out.root_rows = slot(prog.root).rows;
    out.root_cols = slot(prog.root).cols;
    return true;
  }

  // -- validation (also guards deserialized programs) ------------------

  bool validate() {
    const std::size_t n = prog.slots.size();
    if (n == 0 || prog.ops.empty() || prog.root >= n) return false;
    for (const ProgramSlot& s : prog.slots) {
      if (s.rows == 0 || s.cols == 0) return false;
      if (s.kind == SlotKind::kParam && s.param == nullptr) return false;
      if (s.kind == SlotKind::kInput && s.input_index >= prog.num_inputs) {
        return false;
      }
      if (s.kind == SlotKind::kBaked &&
          (s.baked.rows() != s.rows || s.baked.cols() != s.cols)) {
        return false;
      }
    }
    std::vector<bool> defined(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      defined[i] = prog.slots[i].kind != SlotKind::kOp;
    }
    for (const ProgramOp& op : prog.ops) {
      if (op.out >= n || op.a >= n || slot(op.out).kind != SlotKind::kOp ||
          defined[op.out] || !defined[op.a]) {
        return false;
      }
      const bool binary =
          op.kind == OpKind::kMatmul || op.kind == OpKind::kAdd ||
          op.kind == OpKind::kAddBias;
      if (binary && (op.b >= n || !defined[op.b])) return false;
      if (!binary && op.b != kNoSlot) return false;
      const ProgramSlot& o = slot(op.out);
      const ProgramSlot& a = slot(op.a);
      switch (op.kind) {
        case OpKind::kMatmul: {
          const ProgramSlot& b = slot(op.b);
          if (a.cols != b.rows || o.rows != a.rows || o.cols != b.cols ||
              a.cols == 0) {
            return false;
          }
          break;
        }
        case OpKind::kAdd: {
          const ProgramSlot& b = slot(op.b);
          if (a.rows != o.rows || a.cols != o.cols || b.rows != o.rows ||
              b.cols != o.cols) {
            return false;
          }
          break;
        }
        case OpKind::kAddBias: {
          const ProgramSlot& b = slot(op.b);
          if (a.rows != o.rows || a.cols != o.cols || b.rows != 1 ||
              b.cols != o.cols) {
            return false;
          }
          break;
        }
        case OpKind::kScale:
        case OpKind::kAddScalar:
        case OpKind::kRelu:
          if (a.rows != o.rows || a.cols != o.cols) return false;
          break;
        case OpKind::kSoftmaxCE:
          if (o.rows != 1 || o.cols != 1 ||
              op.label_binding >= prog.num_label_bindings) {
            return false;
          }
          break;
      }
      defined[op.out] = true;
    }
    if (!defined[prog.root] || slot(prog.root).kind != SlotKind::kOp) {
      return false;
    }
    if (opts.backward &&
        (slot(prog.root).rows != 1 || slot(prog.root).cols != 1)) {
      return false;
    }
    return true;
  }

  void bind_slots() {
    const std::size_t n = prog.slots.size();
    val_buf.assign(n, -1);
    grad_buf.assign(n, -1);
    param_of.assign(n, -1);
    baked_of.assign(n, -1);
    out.input_shapes.assign(prog.num_inputs, {0, 0});
    out.label_shapes.assign(prog.num_label_bindings, {0, 0});
    for (std::size_t i = 0; i < n; ++i) {
      const ProgramSlot& s = prog.slots[i];
      switch (s.kind) {
        case SlotKind::kParam:
          param_of[i] = static_cast<std::int32_t>(out.params.size());
          out.params.push_back(s.param);
          out.param_shapes.emplace_back(s.rows, s.cols);
          break;
        case SlotKind::kBaked:
          baked_of[i] = static_cast<std::int32_t>(out.baked.size());
          out.baked.push_back(s.baked);
          break;
        case SlotKind::kInput:
          out.input_shapes[s.input_index] = {s.rows, s.cols};
          break;
        case SlotKind::kOp:
          break;
      }
    }
    out.param_grad_used.assign(out.params.size(), false);
    for (const ProgramOp& op : prog.ops) {
      if (op.kind == OpKind::kSoftmaxCE) {
        out.label_shapes[op.label_binding] = {slot(op.a).rows,
                                              slot(op.a).cols};
      }
    }
  }

  // -- fusion -----------------------------------------------------------

  void fuse() {
    const std::size_t nslots = prog.slots.size();
    std::vector<std::uint32_t> consumers(nslots, 0);
    for (const ProgramOp& op : prog.ops) {
      ++consumers[op.a];
      if (op.b != kNoSlot) ++consumers[op.b];
    }
    const auto fusable = [&](std::uint32_t mid) {
      return consumers[mid] == 1 && mid != prog.root;
    };
    producer.assign(nslots, -1);
    std::size_t i = 0;
    while (i < prog.ops.size()) {
      const ProgramOp& op = prog.ops[i];
      LOp l;
      l.out = op.out;
      l.a = op.a;
      l.b = op.b;
      l.scalar = op.scalar;
      l.label_binding = op.label_binding;
      if (opts.fuse && op.kind == OpKind::kMatmul &&
          i + 1 < prog.ops.size() &&
          prog.ops[i + 1].kind == OpKind::kAddBias &&
          prog.ops[i + 1].a == op.out && fusable(op.out)) {
        const ProgramOp& ab = prog.ops[i + 1];
        if (i + 2 < prog.ops.size() &&
            prog.ops[i + 2].kind == OpKind::kRelu &&
            prog.ops[i + 2].a == ab.out && fusable(ab.out)) {
          l.kind = LKind::kFusedLinearRelu;
          l.out = prog.ops[i + 2].out;
          l.bias = ab.b;
          i += 3;
        } else {
          l.kind = LKind::kFusedLinear;
          l.out = ab.out;
          l.bias = ab.b;
          i += 2;
        }
        ++out.fused;
      } else {
        switch (op.kind) {
          case OpKind::kMatmul: l.kind = LKind::kMatmul; break;
          case OpKind::kAdd: l.kind = LKind::kAdd; break;
          case OpKind::kAddBias: l.kind = LKind::kAddBias; break;
          case OpKind::kScale: l.kind = LKind::kScale; break;
          case OpKind::kAddScalar: l.kind = LKind::kAddScalar; break;
          case OpKind::kRelu: l.kind = LKind::kRelu; break;
          case OpKind::kSoftmaxCE: l.kind = LKind::kSoftmaxCE; break;
        }
        i += 1;
      }
      producer[l.out] = static_cast<std::int32_t>(lops.size());
      lops.push_back(l);
    }
  }

  void propagate_needs() {
    needs.assign(prog.slots.size(), false);
    for (std::size_t i = 0; i < prog.slots.size(); ++i) {
      needs[i] = prog.slots[i].kind == SlotKind::kParam;
    }
    for (const LOp& l : lops) {
      bool any = needs[l.a];
      if (l.b != kNoSlot) any = any || needs[l.b];
      if (l.bias != kNoSlot) any = any || needs[l.bias];
      needs[l.out] = needs[l.out] || any;
    }
  }

  // -- buffers and refs -------------------------------------------------

  std::uint32_t new_buffer(std::size_t rows, std::size_t cols) {
    Buffer b;
    b.floats = rows * cols;
    buffers.push_back(b);
    grad_first_done.push_back(false);
    return static_cast<std::uint32_t>(buffers.size() - 1);
  }

  std::int64_t pc() const {
    return static_cast<std::int64_t>(out.instrs.size());
  }

  void read(const Ref& r) {
    if (r.space == Space::kArena) {
      buffers[r.id].death = std::max(buffers[r.id].death, pc());
    }
  }

  void write(const Ref& r) {
    if (r.space == Space::kArena) {
      Buffer& b = buffers[r.id];
      if (b.birth < 0) b.birth = pc();
      b.death = std::max(b.death, pc());
    }
  }

  Ref arena_ref(std::uint32_t buffer) { return Ref{Space::kArena, buffer}; }

  /// The recorded value of `id` at execution time.
  Ref val_ref(std::uint32_t id) {
    const ProgramSlot& s = slot(id);
    switch (s.kind) {
      case SlotKind::kParam:
        return Ref{Space::kParamVal,
                   static_cast<std::uint32_t>(param_of[id])};
      case SlotKind::kBaked:
        return Ref{Space::kBaked, static_cast<std::uint32_t>(baked_of[id])};
      case SlotKind::kInput:
        return Ref{Space::kInput, s.input_index};
      case SlotKind::kOp:
        break;
    }
    if (val_buf[id] < 0) {
      val_buf[id] =
          static_cast<std::int32_t>(new_buffer(s.rows, s.cols));
    }
    return arena_ref(static_cast<std::uint32_t>(val_buf[id]));
  }

  /// The gradient sink of `id`: param->grad for parameters, an arena
  /// buffer for interior values.
  Ref grad_ref(std::uint32_t id) {
    const ProgramSlot& s = slot(id);
    if (s.kind == SlotKind::kParam) {
      out.param_grad_used[static_cast<std::size_t>(param_of[id])] = true;
      return Ref{Space::kParamGrad,
                 static_cast<std::uint32_t>(param_of[id])};
    }
    if (grad_buf[id] < 0) {
      grad_buf[id] =
          static_cast<std::int32_t>(new_buffer(s.rows, s.cols));
    }
    return arena_ref(static_cast<std::uint32_t>(grad_buf[id]));
  }

  std::int32_t make_gemm(char kind, std::size_t m, std::size_t k,
                         std::size_t n) {
    GemmDesc d;
    d.m = m;
    d.k = k;
    d.n = n;
    d.kc = cfg.block;
    const bool vec = isa != simd::IsaLevel::kScalar;
    d.fma = isa == simd::IsaLevel::kAvx2Fma;
    switch (kind) {
      case 'N': d.fn = vec ? gemm_nn_avx2 : gemm_nn_scalar; break;
      case 'T': d.fn = vec ? gemm_tn_avx2 : gemm_tn_scalar; break;
      default:  d.fn = vec ? gemm_nt_avx2 : gemm_nt_scalar; break;
    }
    // The exact should_parallelize() / for_rows partition the dynamic
    // dispatch would pick for this shape, decided once here.
    const std::size_t work = 2 * m * k * n;
    if (cfg.threads > 1 && m >= 2 && work >= cfg.min_work) {
      const std::size_t chunks = std::min(cfg.threads, m);
      if (chunks > 1) {
        d.chunks = static_cast<std::uint32_t>(chunks);
        d.bounds_begin = static_cast<std::uint32_t>(out.bounds.size());
        for (std::size_t c = 0; c <= chunks; ++c) {
          out.bounds.push_back(c * m / chunks);
        }
      }
    }
    out.gemms.push_back(d);
    return static_cast<std::int32_t>(out.gemms.size() - 1);
  }

  void emit_gemm(char kind, const Ref& a, const Ref& b, const Ref& c,
                 std::size_t m, std::size_t k, std::size_t n) {
    read(a);
    read(b);
    write(c);
    Instr in;
    in.kind = IKind::kGemm;
    in.a = a;
    in.b = b;
    in.c = c;
    in.gemm = make_gemm(kind, m, k, n);
    out.instrs.push_back(in);
  }

  void emit_ew(IKind kind, const Ref& a, const Ref& b, const Ref& c,
               std::size_t rows, std::size_t cols, float f = 0.0f) {
    read(a);
    if (b.space != Space::kNone) read(b);
    write(c);
    Instr in;
    in.kind = kind;
    in.a = a;
    in.b = b;
    in.c = c;
    in.rows = static_cast<std::uint32_t>(rows);
    in.cols = static_cast<std::uint32_t>(cols);
    in.f = f;
    out.instrs.push_back(in);
  }

  /// accumulate(slot, src): the dynamic path's Tensor::add_inplace onto
  /// a grad that started as fresh zeros — the first contribution into an
  /// arena grad is emitted as `0.0f + src` so the buffer needs no
  /// zero-fill pass (bit-identical: adding to literal zero is exactly
  /// what the dynamic path computes). Parameter grads always accumulate
  /// onto the caller-zeroed param->grad.
  void emit_accum(std::uint32_t slot_id, const Ref& src, std::size_t rows,
                  std::size_t cols) {
    const Ref dst = grad_ref(slot_id);
    bool first = false;
    if (dst.space == Space::kArena && !grad_first_done[dst.id]) {
      grad_first_done[dst.id] = true;
      first = true;
    }
    read(src);
    if (!first) read(dst);
    write(dst);
    Instr in;
    in.kind = IKind::kAccum;
    in.first = first;
    in.a = src;
    in.c = dst;
    in.rows = static_cast<std::uint32_t>(rows);
    in.cols = static_cast<std::uint32_t>(cols);
    out.instrs.push_back(in);
  }

  // -- forward ----------------------------------------------------------

  void emit_forward() {
    for (LOp& l : lops) {
      const ProgramSlot& o = slot(l.out);
      const Ref co = val_ref(l.out);
      switch (l.kind) {
        case LKind::kMatmul:
          emit_gemm('N', val_ref(l.a), val_ref(l.b), co, o.rows,
                    slot(l.a).cols, o.cols);
          break;
        case LKind::kAdd:
          emit_ew(IKind::kAddEw, val_ref(l.a), val_ref(l.b), co, o.rows,
                  o.cols);
          break;
        case LKind::kAddBias:
          emit_ew(IKind::kAddRow, val_ref(l.a), val_ref(l.b), co, o.rows,
                  o.cols);
          break;
        case LKind::kScale:
          emit_ew(IKind::kScale, val_ref(l.a), Ref{}, co, o.rows, o.cols,
                  static_cast<float>(l.scalar));
          break;
        case LKind::kAddScalar:
          emit_ew(IKind::kAddConst, val_ref(l.a), Ref{}, co, o.rows,
                  o.cols, static_cast<float>(l.scalar));
          break;
        case LKind::kRelu:
          emit_ew(IKind::kRelu, val_ref(l.a), Ref{}, co, o.rows, o.cols);
          break;
        case LKind::kSoftmaxCE: {
          const ProgramSlot& a = slot(l.a);
          l.probs_buf =
              static_cast<std::int32_t>(new_buffer(a.rows, a.cols));
          const Ref probs =
              arena_ref(static_cast<std::uint32_t>(l.probs_buf));
          const Ref la = val_ref(l.a);
          read(la);
          write(probs);
          write(co);
          Instr in;
          in.kind = IKind::kCeForward;
          in.a = la;
          in.c = probs;
          in.m = co;
          in.rows = static_cast<std::uint32_t>(a.rows);
          in.cols = static_cast<std::uint32_t>(a.cols);
          in.labels = l.label_binding;
          out.instrs.push_back(in);
          break;
        }
        case LKind::kFusedLinear:
        case LKind::kFusedLinearRelu: {
          emit_gemm('N', val_ref(l.a), val_ref(l.b), co, o.rows,
                    slot(l.a).cols, o.cols);
          const Ref bias = val_ref(l.bias);
          read(bias);
          read(co);
          write(co);
          Instr in;
          in.kind = l.kind == LKind::kFusedLinearRelu
                        ? IKind::kFusedBiasRelu
                        : IKind::kFusedBias;
          in.a = bias;
          in.c = co;
          in.rows = static_cast<std::uint32_t>(o.rows);
          in.cols = static_cast<std::uint32_t>(o.cols);
          out.instrs.push_back(in);
          break;
        }
      }
    }
  }

  // -- backward ---------------------------------------------------------

  void postorder(std::uint32_t slot_id, std::vector<bool>& visited,
                 std::vector<std::uint32_t>& order) {
    const std::int32_t li = producer[slot_id];
    if (li < 0 || visited[static_cast<std::size_t>(li)]) return;
    visited[static_cast<std::size_t>(li)] = true;
    const LOp& l = lops[static_cast<std::size_t>(li)];
    // Parents in operand order — the order the dynamic graph stores
    // them, which fixes the DFS postorder and hence the exact sequence
    // of gradient accumulations.
    postorder(l.a, visited, order);
    if (l.b != kNoSlot) postorder(l.b, visited, order);
    if (l.bias != kNoSlot) postorder(l.bias, visited, order);
    order.push_back(static_cast<std::uint32_t>(li));
  }

  void emit_backward() {
    std::vector<bool> visited(lops.size(), false);
    std::vector<std::uint32_t> order;
    order.reserve(lops.size());
    postorder(prog.root, visited, order);

    // Seed d(root)/d(root) = 1, exactly as nn::backward fills the root grad.
    {
      const Ref rg = grad_ref(prog.root);
      if (rg.space == Space::kArena) grad_first_done[rg.id] = true;
      write(rg);
      Instr in;
      in.kind = IKind::kFillOne;
      in.c = rg;
      in.rows = 1;
      in.cols = 1;
      out.instrs.push_back(in);
    }

    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const LOp& l = lops[*it];
      if (!needs[l.out]) continue;  // no backward_fn on the dynamic node
      const ProgramSlot& o = slot(l.out);
      const Ref g = grad_ref(l.out);
      switch (l.kind) {
        case LKind::kMatmul: {
          const std::size_t m = o.rows, kk = slot(l.a).cols, nn = o.cols;
          if (needs[l.a]) {
            // dA = dC * B^T, then accumulate — scratch keeps the exact
            // "compute then add" chain of the dynamic closure.
            const Ref da = arena_ref(new_buffer(m, kk));
            emit_gemm('B', g, val_ref(l.b), da, m, nn, kk);
            emit_accum(l.a, da, m, kk);
          }
          if (needs[l.b]) {
            const Ref db = arena_ref(new_buffer(kk, nn));
            emit_gemm('T', val_ref(l.a), g, db, kk, m, nn);
            emit_accum(l.b, db, kk, nn);
          }
          break;
        }
        case LKind::kAdd:
          if (needs[l.a]) emit_accum(l.a, g, o.rows, o.cols);
          if (needs[l.b]) emit_accum(l.b, g, o.rows, o.cols);
          break;
        case LKind::kAddBias: {
          if (needs[l.a]) emit_accum(l.a, g, o.rows, o.cols);
          if (needs[l.b]) {
            const Ref gb = arena_ref(new_buffer(1, o.cols));
            emit_ew(IKind::kColSum, g, Ref{}, gb, o.rows, o.cols);
            emit_accum(l.b, gb, 1, o.cols);
          }
          break;
        }
        case LKind::kScale:
          if (needs[l.a]) {
            const Ref gx = arena_ref(new_buffer(o.rows, o.cols));
            emit_ew(IKind::kScale, g, Ref{}, gx, o.rows, o.cols,
                    static_cast<float>(l.scalar));
            emit_accum(l.a, gx, o.rows, o.cols);
          }
          break;
        case LKind::kAddScalar:
          if (needs[l.a]) emit_accum(l.a, g, o.rows, o.cols);
          break;
        case LKind::kRelu:
          if (needs[l.a]) {
            const Ref gx = arena_ref(new_buffer(o.rows, o.cols));
            const Ref mask = val_ref(l.a);
            read(g);
            read(mask);
            write(gx);
            Instr in;
            in.kind = IKind::kReluMask;
            in.a = g;
            in.m = mask;
            in.c = gx;
            in.rows = static_cast<std::uint32_t>(o.rows);
            in.cols = static_cast<std::uint32_t>(o.cols);
            out.instrs.push_back(in);
            emit_accum(l.a, gx, o.rows, o.cols);
          }
          break;
        case LKind::kSoftmaxCE: {
          if (!needs[l.a]) break;
          const ProgramSlot& a = slot(l.a);
          const Ref gx = arena_ref(new_buffer(a.rows, a.cols));
          const Ref probs =
              arena_ref(static_cast<std::uint32_t>(l.probs_buf));
          read(probs);
          read(g);
          write(gx);
          Instr in;
          in.kind = IKind::kCeBackward;
          in.a = probs;
          in.b = g;
          in.c = gx;
          in.rows = static_cast<std::uint32_t>(a.rows);
          in.cols = static_cast<std::uint32_t>(a.cols);
          in.labels = l.label_binding;
          out.instrs.push_back(in);
          emit_accum(l.a, gx, a.rows, a.cols);
          break;
        }
        case LKind::kFusedLinear:
        case LKind::kFusedLinearRelu: {
          // The elided matmul output's grad equals `0.0f + (masked)
          // upstream grad` bit for bit (adding to a zeroed buffer
          // canonicalizes -0 -> +0, and the relu mask on the post-relu
          // output is equivalent to the mask on the pre-relu value,
          // including NaN). One scratch therefore stands in for both
          // elided grads; the column sum reads what the dynamic
          // add_bias closure read: the *raw* upstream grad for the
          // non-relu fusion, the masked/canonicalized one under relu.
          const std::size_t m = o.rows, kk = slot(l.a).cols, nn = o.cols;
          const Ref pre = arena_ref(new_buffer(m, nn));
          if (l.kind == LKind::kFusedLinearRelu) {
            const Ref mask = val_ref(l.out);
            read(g);
            read(mask);
            write(pre);
            Instr in;
            in.kind = IKind::kMaskedPre;
            in.a = g;
            in.m = mask;
            in.c = pre;
            in.rows = static_cast<std::uint32_t>(m);
            in.cols = static_cast<std::uint32_t>(nn);
            out.instrs.push_back(in);
          } else {
            emit_ew(IKind::kPreCopy, g, Ref{}, pre, m, nn);
          }
          if (needs[l.bias]) {
            const Ref gb = arena_ref(new_buffer(1, nn));
            const Ref colsrc =
                l.kind == LKind::kFusedLinearRelu ? pre : g;
            emit_ew(IKind::kColSum, colsrc, Ref{}, gb, m, nn);
            emit_accum(l.bias, gb, 1, nn);
          }
          if (needs[l.a]) {
            const Ref da = arena_ref(new_buffer(m, kk));
            emit_gemm('B', pre, val_ref(l.b), da, m, nn, kk);
            emit_accum(l.a, da, m, kk);
          }
          if (needs[l.b]) {
            const Ref db = arena_ref(new_buffer(kk, nn));
            emit_gemm('T', val_ref(l.a), pre, db, kk, m, nn);
            emit_accum(l.b, db, kk, nn);
          }
          break;
        }
      }
    }
  }

  // -- arena allocation -------------------------------------------------

  static std::size_t round8(std::size_t floats) {
    return (floats + 7) & ~std::size_t{7};  // 32-byte granules
  }

  bool allocate_arena() {
    // Values the caller reads after execute() live to the end.
    if (val_buf[prog.root] >= 0) {
      buffers[static_cast<std::size_t>(val_buf[prog.root])].death =
          std::numeric_limits<std::int64_t>::max();
    }
    std::vector<std::uint32_t> order(buffers.size());
    for (std::uint32_t i = 0; i < buffers.size(); ++i) order[i] = i;
    for (const Buffer& b : buffers) {
      if (b.birth < 0) return false;  // emitted a read-before-write
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return buffers[x].birth < buffers[y].birth;
              });

    struct FreeBlock {
      std::size_t off, size;
    };
    std::vector<FreeBlock> free_list;  // sorted by offset, coalesced
    const auto release = [&](std::size_t off, std::size_t size) {
      auto it = std::lower_bound(
          free_list.begin(), free_list.end(), off,
          [](const FreeBlock& f, std::size_t o) { return f.off < o; });
      it = free_list.insert(it, FreeBlock{off, size});
      if (it + 1 != free_list.end() && it->off + it->size == (it + 1)->off) {
        it->size += (it + 1)->size;
        free_list.erase(it + 1);
      }
      if (it != free_list.begin() &&
          (it - 1)->off + (it - 1)->size == it->off) {
        (it - 1)->size += it->size;
        free_list.erase(it);
      }
    };

    std::vector<std::uint32_t> live;
    std::size_t high = 0;
    for (const std::uint32_t id : order) {
      Buffer& b = buffers[id];
      for (auto it = live.begin(); it != live.end();) {
        const Buffer& lb = buffers[*it];
        if (lb.death < b.birth) {
          release(lb.offset, round8(lb.floats));
          it = live.erase(it);
        } else {
          ++it;
        }
      }
      const std::size_t need = round8(b.floats);
      std::size_t best = free_list.size();
      for (std::size_t f = 0; f < free_list.size(); ++f) {
        if (free_list[f].size >= need &&
            (best == free_list.size() ||
             free_list[f].size < free_list[best].size)) {
          best = f;
        }
      }
      if (best != free_list.size()) {
        b.offset = free_list[best].off;
        free_list[best].off += need;
        free_list[best].size -= need;
        if (free_list[best].size == 0) {
          free_list.erase(free_list.begin() +
                          static_cast<std::ptrdiff_t>(best));
        }
      } else {
        b.offset = high;
        high += need;
      }
      live.push_back(id);
    }
    out.arena.assign(high, 0.0f);
    return true;
  }

  void patch(Ref& r) {
    if (r.space == Space::kArena) {
      r.id = static_cast<std::uint32_t>(buffers[r.id].offset);
    }
  }

  void patch_refs() {
    for (Instr& in : out.instrs) {
      patch(in.a);
      patch(in.b);
      patch(in.c);
      patch(in.m);
    }
  }
};

}  // namespace

// --- ExecutionPlan -----------------------------------------------------

ExecutionPlan::ExecutionPlan() : impl_(new Impl()) {}
ExecutionPlan::~ExecutionPlan() = default;

std::unique_ptr<ExecutionPlan> ExecutionPlan::compile(
    const Program& program, const CompileOptions& opts,
    const ParallelContext& ctx) {
  std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan());
  Impl& im = *plan->impl_;
  im.program = program;
  im.opts = opts;
  im.pinned_isa = simd::active_isa();
  im.pinned_cfg = ctx.config();
  Compiler compiler(im.program, opts, im.pinned_cfg, im.pinned_isa, im);
  if (!compiler.run()) return nullptr;
  im.pv.assign(im.params.size(), nullptr);
  im.pg.assign(im.params.size(), nullptr);
  im.in.assign(im.program.num_inputs, nullptr);
  im.baked_ptrs.reserve(im.baked.size());
  for (const Tensor& t : im.baked) im.baked_ptrs.push_back(t.data().data());
  return plan;
}

bool ExecutionPlan::valid_for(const ParallelContext& ctx) const {
  const Impl& im = *impl_;
  if (simd::active_isa() != im.pinned_isa) return false;
  const ParallelConfig cfg = ctx.config();
  return cfg.threads == im.pinned_cfg.threads &&
         cfg.block == im.pinned_cfg.block &&
         cfg.min_work == im.pinned_cfg.min_work;
}

bool ExecutionPlan::execute(
    const std::vector<const Tensor*>& inputs,
    const std::vector<const std::vector<std::size_t>*>& labels,
    const ParallelContext& ctx) {
  Impl& im = *impl_;
  if (!valid_for(ctx)) return false;
  if (inputs.size() != im.program.num_inputs ||
      labels.size() != im.program.num_label_bindings) {
    return false;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == nullptr ||
        inputs[i]->rows() != im.input_shapes[i].first ||
        inputs[i]->cols() != im.input_shapes[i].second) {
      return false;
    }
  }
  for (std::size_t i = 0; i < im.params.size(); ++i) {
    const Var& p = *im.params[i];
    if (p.value.rows() != im.param_shapes[i].first ||
        p.value.cols() != im.param_shapes[i].second) {
      return false;
    }
  }
  for (std::size_t j = 0; j < labels.size(); ++j) {
    if (labels[j] == nullptr ||
        labels[j]->size() != im.label_shapes[j].first) {
      return false;
    }
    for (const std::size_t lab : *labels[j]) {
      if (lab >= im.label_shapes[j].second) return false;
    }
  }
  // Bindings are valid: refresh the pointer tables. ensure_grad matches
  // the dynamic accumulate() contract (allocates only on shape drift,
  // which the steady state never hits).
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    im.in[i] = inputs[i]->data().data();
  }
  for (std::size_t i = 0; i < im.params.size(); ++i) {
    Var& p = *im.params[i];
    im.pv[i] = p.value.data().data();
    if (im.param_grad_used[i]) {
      p.ensure_grad();
      im.pg[i] = p.grad.data().data();
    }
  }

  for (const Instr& ins : im.instrs) {
    switch (ins.kind) {
      case IKind::kGemm: {
        const GemmDesc& d = im.gemms[static_cast<std::size_t>(ins.gemm)];
        GemmArgs ga{im.ptr(ins.a), im.ptr(ins.b), im.ptr(ins.c), &d};
        if (d.chunks > 1) {
          ctx.for_partition(im.bounds.data() + d.bounds_begin, d.chunks,
                            &gemm_chunk, &ga);
        } else {
          d.fn(ga, 0, d.m);
        }
        break;
      }
      case IKind::kAddEw: {
        const float* a = im.ptr(ins.a);
        const float* b = im.ptr(ins.b);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) c[i] = a[i] + b[i];
        break;
      }
      case IKind::kAddRow: {
        const float* a = im.ptr(ins.a);
        const float* bias = im.ptr(ins.b);
        float* c = im.ptr(ins.c);
        for (std::size_t r = 0; r < ins.rows; ++r) {
          const float* ar = a + r * ins.cols;
          float* cr = c + r * ins.cols;
          for (std::size_t j = 0; j < ins.cols; ++j) {
            cr[j] = ar[j] + bias[j];
          }
        }
        break;
      }
      case IKind::kScale: {
        const float* a = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) c[i] = a[i] * ins.f;
        break;
      }
      case IKind::kAddConst: {
        const float* a = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) c[i] = a[i] + ins.f;
        break;
      }
      case IKind::kRelu: {
        const float* a = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) {
          c[i] = std::max(a[i], 0.0f);
        }
        break;
      }
      case IKind::kFusedBias: {
        const float* bias = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        for (std::size_t r = 0; r < ins.rows; ++r) {
          float* cr = c + r * ins.cols;
          for (std::size_t j = 0; j < ins.cols; ++j) cr[j] += bias[j];
        }
        break;
      }
      case IKind::kFusedBiasRelu: {
        const float* bias = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        for (std::size_t r = 0; r < ins.rows; ++r) {
          float* cr = c + r * ins.cols;
          for (std::size_t j = 0; j < ins.cols; ++j) {
            cr[j] = std::max(cr[j] + bias[j], 0.0f);
          }
        }
        break;
      }
      case IKind::kCeForward: {
        // Exact arithmetic of ops::softmax_cross_entropy.
        const float* lg = im.ptr(ins.a);
        float* probs = im.ptr(ins.c);
        float* loss = im.ptr(ins.m);
        const std::vector<std::size_t>& lab = *labels[ins.labels];
        const std::size_t batch = ins.rows, classes = ins.cols;
        double total_loss = 0.0;
        for (std::size_t r = 0; r < batch; ++r) {
          const float* row = lg + r * classes;
          float* prow = probs + r * classes;
          float mx = row[0];
          for (std::size_t c = 1; c < classes; ++c) {
            mx = std::max(mx, row[c]);
          }
          float denom = 0.0f;
          for (std::size_t c = 0; c < classes; ++c) {
            const float e = std::exp(row[c] - mx);
            prow[c] = e;
            denom += e;
          }
          for (std::size_t c = 0; c < classes; ++c) prow[c] /= denom;
          total_loss -= std::log(std::max(prow[lab[r]], 1e-12f));
        }
        loss[0] = static_cast<float>(total_loss /
                                     static_cast<double>(batch));
        break;
      }
      case IKind::kFillOne:
        im.ptr(ins.c)[0] = 1.0f;
        break;
      case IKind::kAccum: {
        const float* a = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        if (ins.first) {
          for (std::size_t i = 0; i < count; ++i) c[i] = 0.0f + a[i];
        } else {
          for (std::size_t i = 0; i < count; ++i) c[i] += a[i];
        }
        break;
      }
      case IKind::kColSum: {
        const float* a = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        for (std::size_t j = 0; j < ins.cols; ++j) c[j] = 0.0f;
        for (std::size_t r = 0; r < ins.rows; ++r) {
          const float* ar = a + r * ins.cols;
          for (std::size_t j = 0; j < ins.cols; ++j) c[j] += ar[j];
        }
        break;
      }
      case IKind::kReluMask: {
        const float* a = im.ptr(ins.a);
        const float* m = im.ptr(ins.m);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) {
          c[i] = m[i] <= 0.0f ? 0.0f : a[i];
        }
        break;
      }
      case IKind::kMaskedPre: {
        const float* a = im.ptr(ins.a);
        const float* m = im.ptr(ins.m);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) {
          c[i] = m[i] <= 0.0f ? 0.0f : 0.0f + a[i];
        }
        break;
      }
      case IKind::kPreCopy: {
        const float* a = im.ptr(ins.a);
        float* c = im.ptr(ins.c);
        const std::size_t count =
            static_cast<std::size_t>(ins.rows) * ins.cols;
        for (std::size_t i = 0; i < count; ++i) c[i] = 0.0f + a[i];
        break;
      }
      case IKind::kCeBackward: {
        const float* probs = im.ptr(ins.a);
        const float g0 = im.ptr(ins.b)[0];
        float* gx = im.ptr(ins.c);
        const std::vector<std::size_t>& lab = *labels[ins.labels];
        const std::size_t batch = ins.rows, classes = ins.cols;
        const float g = g0 / static_cast<float>(batch);
        const std::size_t count = batch * classes;
        for (std::size_t i = 0; i < count; ++i) gx[i] = probs[i];
        for (std::size_t r = 0; r < batch; ++r) {
          gx[r * classes + lab[r]] -= 1.0f;
        }
        for (std::size_t i = 0; i < count; ++i) gx[i] *= g;
        break;
      }
    }
  }
  return true;
}

const float* ExecutionPlan::root_data() const {
  return impl_->arena.data() + impl_->root_off;
}
std::size_t ExecutionPlan::root_rows() const { return impl_->root_rows; }
std::size_t ExecutionPlan::root_cols() const { return impl_->root_cols; }

std::size_t ExecutionPlan::arena_bytes() const {
  return impl_->arena.size() * sizeof(float);
}
std::size_t ExecutionPlan::fused_ops() const { return impl_->fused; }
std::size_t ExecutionPlan::num_inputs() const {
  return impl_->program.num_inputs;
}
std::size_t ExecutionPlan::num_label_bindings() const {
  return impl_->program.num_label_bindings;
}
bool ExecutionPlan::has_backward() const { return impl_->opts.backward; }
const Program& ExecutionPlan::program() const { return impl_->program; }

// --- settings / stats / cache -----------------------------------------

PlanSettings PlanSettings::from_env(PlanSettings base) {
  const char* env = std::getenv("LIGHTNAS_PLAN");
  if (env == nullptr) return base;
  return from_string(env, base);
}

PlanSettings PlanSettings::from_string(const std::string& v,
                                       PlanSettings base) {
  if (v.empty()) return base;
  if (v == "off" || v == "0" || v == "false") {
    base.enabled = false;
    return base;
  }
  if (v == "on" || v == "1" || v == "true") {
    base.enabled = true;
    return base;
  }
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && n > 0) {
    base.enabled = true;
    base.compile_after = static_cast<std::size_t>(n);
  }
  return base;
}

PlanStats PlanStats::operator-(const PlanStats& other) const {
  PlanStats d;
  d.hits = hits - other.hits;
  d.misses = misses - other.misses;
  d.compiles = compiles - other.compiles;
  d.fused_ops = fused_ops - other.fused_ops;
  d.arena_bytes = arena_bytes - other.arena_bytes;
  return d;
}

PlanStats global_stats() {
  PlanStats s;
  s.hits = g_hits.value();
  s.misses = g_misses.value();
  s.compiles = g_compiles.value();
  s.fused_ops = g_fused.value();
  s.arena_bytes = g_arena_bytes.value();
  return s;
}

PlanCache::PlanCache(PlanSettings settings) : settings_(settings) {}

ExecutionPlan* PlanCache::lookup(const std::string& key,
                                 const ParallelContext& ctx) {
  if (!settings_.enabled) return nullptr;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxCacheEntries) {
      g_misses.add();
      return nullptr;
    }
    it = entries_.emplace(key, Entry{}).first;
  }
  Entry& e = it->second;
  ++e.count;
  e.last_use = ++tick_;
  if (e.plan != nullptr) {
    if (e.plan->valid_for(ctx)) {
      g_hits.add();
      return e.plan.get();
    }
    // Environment changed under the plan (ISA override, thread
    // reconfigure): drop it, keep the count so it recompiles promptly.
    e.plan.reset();
  }
  g_misses.add();
  return nullptr;
}

bool PlanCache::should_record(const std::string& key) const {
  if (!settings_.enabled) return false;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  const Entry& e = it->second;
  return !e.uncompilable && e.plan == nullptr &&
         e.count >= settings_.compile_after;
}

void PlanCache::store(const std::string& key,
                      std::unique_ptr<ExecutionPlan> plan) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxCacheEntries) return;
    it = entries_.emplace(key, Entry{}).first;
  }
  Entry& e = it->second;
  if (plan == nullptr) {
    e.uncompilable = true;
    return;
  }
  g_compiles.add();
  g_fused.add(plan->fused_ops());
  g_arena_bytes.add(plan->arena_bytes());
  e.plan = std::move(plan);
  e.last_use = ++tick_;

  std::size_t with_plan = 0;
  for (const auto& kv : entries_) {
    if (kv.second.plan != nullptr) ++with_plan;
  }
  while (with_plan > settings_.max_plans) {
    auto victim = entries_.end();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (jt->second.plan != nullptr &&
          (victim == entries_.end() ||
           jt->second.last_use < victim->second.last_use)) {
        victim = jt;
      }
    }
    if (victim == entries_.end()) break;
    victim->second.plan.reset();
    --with_plan;
  }
}

}  // namespace lightnas::nn::plan
