#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/tensor/shape.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {

/// Element type of every tensor. Double keeps finite-difference gradient
/// checks and long MD rollouts well-conditioned; all memory accounting is
/// relative, so the choice does not affect the reproduced breakdowns.
using real = double;

class Tensor;

namespace autograd {

/// True while operations should record the autograd graph (thread-local).
bool grad_enabled();

/// RAII guard disabling graph recording (inference / checkpointed forward).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// RAII guard re-enabling graph recording (checkpoint recomputation runs
/// inside the outer backward pass, where recording is otherwise off).
class EnableGradGuard {
 public:
  EnableGradGuard();
  ~EnableGradGuard();
  EnableGradGuard(const EnableGradGuard&) = delete;
  EnableGradGuard& operator=(const EnableGradGuard&) = delete;

 private:
  bool previous_;
};

/// Number of autograd Nodes currently alive across all threads. Inference
/// paths that promise "no tape" (serve, evaluation) pin that promise in
/// tests by asserting this stays flat across a guarded forward.
std::int64_t live_node_count();

/// One recorded operation. `inputs` keeps the producing subgraph (and thus
/// its activations) alive until backward consumes this node.
struct Node {
  Node();
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::string op_name;
  std::vector<Tensor> inputs;
  /// Maps the gradient w.r.t. this node's output to gradients w.r.t. each
  /// input (same order; an undefined Tensor means "no gradient").
  std::function<std::vector<Tensor>(const Tensor& grad_output)> backward;
};

/// Observer of leaf-gradient completion, keyed by the leaf's TensorImpl
/// address (the pointer `Tensor::impl().get()` yields — an identity token,
/// never dereferenced by the hook's installer). The OUTERMOST backward()
/// on the installing thread invokes the hook right after a leaf's final
/// gradient has been accumulated into its `.grad` buffer; this is what
/// lets the GradBucketer post a bucket's collective the moment the last
/// gradient in it is ready, mid-backward.
///
/// Contract for installers:
/// * Hooks fire for EVERY grad-requiring leaf of the outer graph — an
///   installer must ignore keys it does not recognize.
/// * Nested backward passes (activation-checkpoint recomputation) never
///   fire the hook: a leaf they touch may receive further contributions
///   later, so its gradient is not yet final. Parameters that reach the
///   loss ONLY through checkpointed segments (closure captures, not graph
///   edges) therefore never fire at all; consumers needing completeness
///   must sweep up unhooked leaves after backward() returns (the
///   bucketer's post_remaining()).
using LeafGradHook = std::function<void(const void* leaf)>;

/// RAII installer of the thread-local leaf-grad hook; restores the
/// previously installed hook (usually none) on destruction, so a hook
/// never leaks past the training step that installed it even on
/// exceptions.
class ScopedLeafGradHook {
 public:
  explicit ScopedLeafGradHook(LeafGradHook hook);
  ~ScopedLeafGradHook();
  ScopedLeafGradHook(const ScopedLeafGradHook&) = delete;
  ScopedLeafGradHook& operator=(const ScopedLeafGradHook&) = delete;

 private:
  LeafGradHook previous_;
};

}  // namespace autograd

namespace detail {

/// Reference-counted, memory-tracked buffer backing a Tensor.
class Storage {
 public:
  explicit Storage(std::size_t count);
  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  real* data() { return buffer_.data(); }
  const real* data() const { return buffer_.data(); }
  std::size_t count() const { return buffer_.size(); }

 private:
  std::vector<real> buffer_;
  MemCategory category_;
};

struct TensorImpl {
  Shape shape;
  std::shared_ptr<Storage> storage;
  /// First element of this tensor in `storage`; nonzero only for the views
  /// a ParamArena creates.
  std::size_t offset = 0;
  bool requires_grad = false;
  bool graph_consumed = false;  ///< backward already released this graph
  /// Backward accumulated into `grad` since the last zero_grad.
  bool has_grad = false;
  /// `grad` is a fixed view of a ParamArena's gradient buffer: zero_grad
  /// zeros it instead of releasing it.
  bool arena_grad = false;
  std::shared_ptr<autograd::Node> grad_fn;  ///< set on non-leaf results
  std::shared_ptr<TensorImpl> grad;         ///< accumulated grad on leaves
};

}  // namespace detail

/// Dense row-major tensor with reverse-mode automatic differentiation.
///
/// Value-semantic handle to shared storage (copying a Tensor aliases the
/// data, mirroring the framework conventions the paper's stack relies on).
/// Operations are free functions in ops.hpp; they record autograd nodes
/// while autograd::grad_enabled() holds and any input requires gradients.
class Tensor {
 public:
  /// Undefined tensor (no storage); `defined()` is false.
  Tensor() = default;

  // -- Factories -----------------------------------------------------------
  static Tensor zeros(const Shape& shape);
  static Tensor ones(const Shape& shape);
  static Tensor full(const Shape& shape, real value);
  static Tensor scalar(real value);
  static Tensor from_vector(const std::vector<real>& values,
                            const Shape& shape);
  /// Standard-normal entries scaled by `stddev`.
  static Tensor randn(const Shape& shape, Rng& rng, real stddev = 1.0);
  static Tensor uniform(const Shape& shape, Rng& rng, real lo, real hi);

  // -- Introspection -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  std::size_t rank() const { return shape().rank(); }
  std::int64_t dim(std::size_t axis) const { return shape().dim(axis); }
  std::int64_t numel() const { return shape().numel(); }

  real* data();
  const real* data() const;
  std::vector<real> to_vector() const;
  /// Human-readable rendering ("Tensor[2, 3] {{1, 2, 3}, {4, 5, 6}}");
  /// large tensors are elided with an ellipsis after `max_elements`.
  std::string to_string(std::int64_t max_elements = 32) const;
  /// Value of a single-element tensor.
  real item() const;
  /// Element access for 2-D tensors (row, col); convenience for tests.
  real at(std::int64_t row, std::int64_t col) const;

  // -- Autograd ------------------------------------------------------------
  bool requires_grad() const;
  /// Marks a leaf as requiring gradients; returns *this for chaining.
  Tensor& set_requires_grad(bool value);
  bool is_leaf() const;
  /// Accumulated gradient of a leaf (undefined Tensor if none since the
  /// last zero_grad).
  Tensor grad() const;
  void zero_grad();

  /// Shares storage (and, for a view, its range) but severs the autograd
  /// history.
  Tensor detach() const;
  /// Deep copy of the data (no autograd history).
  Tensor clone() const;

  /// Runs reverse-mode differentiation from this tensor. `grad_output`
  /// defaults to ones (the tensor must be a scalar in that case). The graph
  /// is consumed: node inputs are released as backward passes them, which is
  /// what lets peak memory decay through the backward phase exactly as the
  /// paper's profile shows.
  void backward(const Tensor& grad_output = Tensor());

  // -- Internal (used by ops) ----------------------------------------------
  const std::shared_ptr<detail::TensorImpl>& impl() const { return impl_; }

  /// Allocates the result of an op and wires its autograd node when grad
  /// mode is on and any input requires grad.
  static Tensor make_result(
      const Shape& shape, std::vector<Tensor> inputs,
      std::function<std::vector<Tensor>(const Tensor&)> backward_fn,
      std::string op_name);

 private:
  explicit Tensor(std::shared_ptr<detail::TensorImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<detail::TensorImpl> impl_;
};

}  // namespace sgnn
