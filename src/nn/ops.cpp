#include "nn/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/check.hpp"

namespace lightnas::nn::ops {

namespace {

/// Whether a backward closure computes `p`'s gradient at all. A Var that
/// tracks none — a constant, or a node computed from constants only —
/// has no backward_fn and nobody reads its grad, so its gradient is
/// never formed.
bool needs_grad(const VarPtr& p) { return p->requires_grad; }

/// p->grad += g. Closures that compute `g` check needs_grad first.
void accumulate(const VarPtr& p, const Tensor& g) {
  if (!needs_grad(p)) return;
  p->ensure_grad();
  p->grad.add_inplace(g);
}

}  // namespace

VarPtr matmul(const VarPtr& a, const VarPtr& b) {
  LIGHTNAS_CHECK(a->value.cols() == b->value.rows(),
                 "ops::matmul: " + a->value.shape_string() + " * " +
                     b->value.shape_string());
  // A constant left operand is an input batch — for the latency
  // predictor a one-hot encoding — so both products that read it take
  // the zero-skip kernels, which fall back to dense when it is not
  // sparse (bit-identical either way).
  const bool input = !needs_grad(a);
  Tensor out = input ? matmul_zero_skip(a->value, b->value)
                     : lightnas::nn::matmul(a->value, b->value);
  return make_node(std::move(out), {a, b}, [a, b, input](Var& node) {
    // dL/dA = dL/dC * B^T ; dL/dB = A^T * dL/dC
    if (needs_grad(a)) accumulate(a, matmul_nt(node.grad, b->value));
    if (needs_grad(b)) {
      accumulate(b, input ? matmul_tn_zero_skip(a->value, node.grad)
                          : matmul_tn(a->value, node.grad));
    }
  });
}

VarPtr add(const VarPtr& a, const VarPtr& b) {
  LIGHTNAS_CHECK(a->value.same_shape(b->value),
                 "ops::add: " + a->value.shape_string() + " + " +
                     b->value.shape_string());
  Tensor out = a->value;
  out.add_inplace(b->value);
  return make_node(std::move(out), {a, b}, [a, b](Var& node) {
    accumulate(a, node.grad);
    accumulate(b, node.grad);
  });
}

VarPtr sub(const VarPtr& a, const VarPtr& b) {
  LIGHTNAS_CHECK(a->value.same_shape(b->value),
                 "ops::sub: " + a->value.shape_string() + " - " +
                     b->value.shape_string());
  Tensor out = a->value;
  out.sub_inplace(b->value);
  return make_node(std::move(out), {a, b}, [a, b](Var& node) {
    accumulate(a, node.grad);
    if (!needs_grad(b)) return;
    Tensor neg = node.grad;
    neg.scale_inplace(-1.0f);
    accumulate(b, neg);
  });
}

VarPtr mul(const VarPtr& a, const VarPtr& b) {
  LIGHTNAS_CHECK(a->value.same_shape(b->value),
                 "ops::mul: " + a->value.shape_string() + " * " +
                     b->value.shape_string());
  Tensor out = a->value;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= b->value[i];
  return make_node(std::move(out), {a, b}, [a, b](Var& node) {
    if (needs_grad(a)) {
      Tensor ga = node.grad;
      for (std::size_t i = 0; i < ga.size(); ++i) ga[i] *= b->value[i];
      accumulate(a, ga);
    }
    if (needs_grad(b)) {
      Tensor gb = node.grad;
      for (std::size_t i = 0; i < gb.size(); ++i) gb[i] *= a->value[i];
      accumulate(b, gb);
    }
  });
}

VarPtr add_bias(const VarPtr& x, const VarPtr& bias) {
  LIGHTNAS_CHECK(bias->value.rows() == 1 &&
                     bias->value.cols() == x->value.cols(),
                 "ops::add_bias: " + x->value.shape_string() + " + bias " +
                     bias->value.shape_string());
  Tensor out = x->value;
  out.add_row_inplace(bias->value);
  return make_node(std::move(out), {x, bias}, [x, bias](Var& node) {
    accumulate(x, node.grad);
    if (!needs_grad(bias)) return;
    const std::size_t cols = node.grad.cols();
    Tensor gb = Tensor::zeros(1, cols);
    float* sum = gb.data().data();
    const float* g = node.grad.data().data();
    for (std::size_t r = 0; r < node.grad.rows(); ++r) {
      const float* row = g + r * cols;
      for (std::size_t c = 0; c < cols; ++c) sum[c] += row[c];
    }
    accumulate(bias, gb);
  });
}

VarPtr scale(const VarPtr& x, double factor) {
  Tensor out = x->value;
  out.scale_inplace(static_cast<float>(factor));
  return make_node(std::move(out), {x}, [x, factor](Var& node) {
    Tensor g = node.grad;
    g.scale_inplace(static_cast<float>(factor));
    accumulate(x, g);
  });
}

VarPtr add_scalar(const VarPtr& x, double constant) {
  Tensor out = x->value;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += static_cast<float>(constant);
  }
  return make_node(std::move(out), {x}, [x](Var& node) {
    accumulate(x, node.grad);
  });
}

VarPtr mul_scalar(const VarPtr& x, const VarPtr& scalar) {
  LIGHTNAS_CHECK(scalar->value.rows() == 1 && scalar->value.cols() == 1,
                 "ops::mul_scalar: scalar operand is " +
                     scalar->value.shape_string());
  const float s = scalar->value.item();
  Tensor out = x->value;
  out.scale_inplace(s);
  return make_node(std::move(out), {x, scalar}, [x, scalar, s](Var& node) {
    if (needs_grad(x)) {
      Tensor gx = node.grad;
      gx.scale_inplace(s);
      accumulate(x, gx);
    }
    if (!needs_grad(scalar)) return;
    float gs = 0.0f;
    for (std::size_t i = 0; i < node.grad.size(); ++i) {
      gs += node.grad[i] * x->value[i];
    }
    accumulate(scalar, Tensor::scalar(gs));
  });
}

VarPtr relu(const VarPtr& x) {
  Tensor out = x->value;
  out.relu_inplace();
  return make_node(std::move(out), {x}, [x](Var& node) {
    Tensor g = node.grad;
    float* gp = g.data().data();
    const float* xp = x->value.data().data();
    for (std::size_t i = 0; i < g.size(); ++i) {
      gp[i] = xp[i] <= 0.0f ? 0.0f : gp[i];
    }
    accumulate(x, g);
  });
}

VarPtr sigmoid(const VarPtr& x) {
  Tensor out = x->value;
  for (auto& v : out.data()) v = 1.0f / (1.0f + std::exp(-v));
  auto node = make_node(out, {x}, [x, out](Var& n) {
    Tensor g = n.grad;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] *= out[i] * (1.0f - out[i]);
    }
    accumulate(x, g);
  });
  return node;
}

VarPtr tanh_op(const VarPtr& x) {
  Tensor out = x->value;
  for (auto& v : out.data()) v = std::tanh(v);
  auto node = make_node(out, {x}, [x, out](Var& n) {
    Tensor g = n.grad;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] *= 1.0f - out[i] * out[i];
    }
    accumulate(x, g);
  });
  return node;
}

VarPtr row_softmax(const VarPtr& x) {
  Tensor out = x->value;
  const std::size_t cols = out.cols();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float mx = out.at(r, 0);
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, out.at(r, c));
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float e = std::exp(out.at(r, c) - mx);
      out.at(r, c) = e;
      total += e;
    }
    for (std::size_t c = 0; c < cols; ++c) out.at(r, c) /= total;
  }
  auto node = make_node(out, {x}, [x, out](Var& n) {
    // dL/dx_j = s_j * (g_j - sum_k g_k s_k), per row; every element is
    // assigned below.
    Tensor gx = Tensor::uninitialized(out.rows(), out.cols());
    for (std::size_t r = 0; r < out.rows(); ++r) {
      float dot = 0.0f;
      for (std::size_t c = 0; c < out.cols(); ++c) {
        dot += n.grad.at(r, c) * out.at(r, c);
      }
      for (std::size_t c = 0; c < out.cols(); ++c) {
        gx.at(r, c) = out.at(r, c) * (n.grad.at(r, c) - dot);
      }
    }
    accumulate(x, gx);
  });
  return node;
}

VarPtr sum_all(const VarPtr& x) {
  Tensor out = Tensor::scalar(x->value.sum());
  return make_node(std::move(out), {x}, [x](Var& node) {
    const float g = node.grad.item();
    Tensor gx = Tensor::full(x->value.rows(), x->value.cols(), g);
    accumulate(x, gx);
  });
}

VarPtr mean_all(const VarPtr& x) {
  const auto n = static_cast<float>(x->value.size());
  Tensor out = Tensor::scalar(x->value.sum() / n);
  return make_node(std::move(out), {x}, [x, n](Var& node) {
    const float g = node.grad.item() / n;
    Tensor gx = Tensor::full(x->value.rows(), x->value.cols(), g);
    accumulate(x, gx);
  });
}

VarPtr select(const VarPtr& x, std::size_t r, std::size_t c) {
  Tensor out = Tensor::scalar(x->value.at(r, c));
  return make_node(std::move(out), {x}, [x, r, c](Var& node) {
    Tensor gx = Tensor::zeros(x->value.rows(), x->value.cols());
    gx.at(r, c) = node.grad.item();
    accumulate(x, gx);
  });
}

VarPtr reshape(const VarPtr& x, std::size_t rows, std::size_t cols) {
  Tensor out = x->value.reshaped(rows, cols);
  return make_node(std::move(out), {x}, [x](Var& node) {
    accumulate(x, node.grad.reshaped(x->value.rows(), x->value.cols()));
  });
}

VarPtr detach(const VarPtr& x) {
  return make_const(x->value, x->name.empty() ? "" : x->name + ".detach");
}

VarPtr vstack(const std::vector<VarPtr>& blocks) {
  LIGHTNAS_CHECK(!blocks.empty(), "ops::vstack: empty block list");
  const std::size_t cols = blocks.front()->value.cols();
  std::size_t rows = 0;
  for (const VarPtr& b : blocks) {
    LIGHTNAS_CHECK(b->value.cols() == cols,
                   "ops::vstack: block " + b->value.shape_string() +
                       " vs leading width " + std::to_string(cols));
    rows += b->value.rows();
  }
  Tensor out = Tensor::uninitialized(rows, cols);
  std::size_t row = 0;
  for (const VarPtr& b : blocks) {
    for (std::size_t r = 0; r < b->value.rows(); ++r, ++row) {
      for (std::size_t c = 0; c < cols; ++c) {
        out.at(row, c) = b->value.at(r, c);
      }
    }
  }
  // Init-capture: a plain `[blocks]` capture of a const& parameter makes
  // a const closure member, which would force BackwardFn moves to copy.
  return make_node(std::move(out), blocks, [blocks = blocks](Var& node) {
    std::size_t row = 0;
    for (const VarPtr& b : blocks) {
      if (!needs_grad(b)) {
        row += b->value.rows();
        continue;
      }
      Tensor g = Tensor::uninitialized(b->value.rows(), b->value.cols());
      for (std::size_t r = 0; r < g.rows(); ++r, ++row) {
        for (std::size_t c = 0; c < g.cols(); ++c) {
          g.at(r, c) = node.grad.at(row, c);
        }
      }
      accumulate(b, g);
    }
  });
}

VarPtr binarize_rows_ste(const VarPtr& x) {
  Tensor out = Tensor::zeros(x->value.rows(), x->value.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    out.at(r, x->value.argmax_row(r)) = 1.0f;
  }
  return make_node(std::move(out), {x}, [x](Var& node) {
    // Straight-through: treat the binarization as identity for gradients.
    accumulate(x, node.grad);
  });
}

VarPtr slice_rows(const VarPtr& x, std::size_t start, std::size_t count) {
  LIGHTNAS_CHECK(count > 0 && start + count <= x->value.rows(),
                 "ops::slice_rows: [" + std::to_string(start) + ", " +
                     std::to_string(start + count) + ") of " +
                     x->value.shape_string());
  Tensor out = Tensor::uninitialized(count, x->value.cols());
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = x->value.at(start + r, c);
    }
  }
  return make_node(std::move(out), {x}, [x, start, count](Var& node) {
    Tensor g = Tensor::zeros(x->value.rows(), x->value.cols());
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) {
        g.at(start + r, c) = node.grad.at(r, c);
      }
    }
    accumulate(x, g);
  });
}

float softmax_cross_entropy_forward(const Tensor& logits,
                                    const std::vector<std::size_t>& labels,
                                    Tensor& probs) {
  LIGHTNAS_CHECK(logits.rows() == labels.size(),
                 "ops::softmax_cross_entropy: logits " +
                     logits.shape_string() + " vs " +
                     std::to_string(labels.size()) + " labels");
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();

  // Stable softmax probabilities; every element is assigned below.
  probs = Tensor::uninitialized(batch, classes);
  double total_loss = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    LIGHTNAS_CHECK(labels[r] < classes,
                   "ops::softmax_cross_entropy: label " +
                       std::to_string(labels[r]) + " >= " +
                       std::to_string(classes) + " classes");
    float mx = logits.at(r, 0);
    for (std::size_t c = 1; c < classes; ++c) {
      mx = std::max(mx, logits.at(r, c));
    }
    float denom = 0.0f;
    for (std::size_t c = 0; c < classes; ++c) {
      const float e = std::exp(logits.at(r, c) - mx);
      probs.at(r, c) = e;
      denom += e;
    }
    for (std::size_t c = 0; c < classes; ++c) probs.at(r, c) /= denom;
    total_loss -= std::log(std::max(probs.at(r, labels[r]), 1e-12f));
  }
  return static_cast<float>(total_loss / static_cast<double>(batch));
}

VarPtr softmax_cross_entropy(const VarPtr& logits,
                             const std::vector<std::size_t>& labels) {
  // The probabilities are cached for the backward pass.
  Tensor probs;
  Tensor out = Tensor::scalar(
      softmax_cross_entropy_forward(logits->value, labels, probs));

  return make_node(std::move(out), {logits},
                   [logits, probs = std::move(probs),
                    labels = labels](Var& node) {
    const float g = node.grad.item() /
                    static_cast<float>(logits->value.rows());
    Tensor gx = probs;
    for (std::size_t r = 0; r < gx.rows(); ++r) {
      gx.at(r, labels[r]) -= 1.0f;
    }
    gx.scale_inplace(g);
    accumulate(logits, gx);
  });
}

VarPtr mse_loss(const VarPtr& pred, const VarPtr& target) {
  LIGHTNAS_CHECK(pred->value.same_shape(target->value),
                 "ops::mse_loss: pred " + pred->value.shape_string() +
                     " vs target " + target->value.shape_string());
  double total = 0.0;
  for (std::size_t i = 0; i < pred->value.size(); ++i) {
    const double d = static_cast<double>(pred->value[i]) -
                     static_cast<double>(target->value[i]);
    total += d * d;
  }
  const auto n = static_cast<double>(pred->value.size());
  Tensor out = Tensor::scalar(static_cast<float>(total / n));
  return make_node(std::move(out), {pred, target},
                   [pred, target, n](Var& node) {
    const float g = node.grad.item() * 2.0f / static_cast<float>(n);
    Tensor gp = pred->value;
    gp.sub_inplace(target->value);
    gp.scale_inplace(g);
    accumulate(pred, gp);
    if (!needs_grad(target)) return;
    Tensor gt = gp;
    gt.scale_inplace(-1.0f);
    accumulate(target, gt);
  });
}

double accuracy(const Tensor& logits, const std::vector<std::size_t>& labels) {
  LIGHTNAS_CHECK(logits.rows() == labels.size() && !labels.empty(),
                 "ops::accuracy: logits " + logits.shape_string() + " vs " +
                     std::to_string(labels.size()) + " labels");
  std::size_t correct = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    if (logits.argmax_row(r) == labels[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace lightnas::nn::ops
