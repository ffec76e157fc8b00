#include "sgnn/tensor/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "sgnn/util/error.hpp"

namespace sgnn {

namespace autograd {
namespace {
thread_local bool t_grad_enabled = true;
// Alive across all threads: serve workers forward concurrently, and the
// zero-tape pin must see every node regardless of which thread made it.
std::atomic<std::int64_t> g_live_nodes{0};
// Installed leaf-grad observer and the backward() nesting depth on this
// thread; only the outermost pass (depth 1) fires the hook — see the
// LeafGradHook contract in tensor.hpp.
thread_local LeafGradHook t_leaf_grad_hook;
thread_local int t_backward_depth = 0;
}  // namespace

bool grad_enabled() { return t_grad_enabled; }

std::int64_t live_node_count() {
  return g_live_nodes.load(std::memory_order_relaxed);
}

Node::Node() { g_live_nodes.fetch_add(1, std::memory_order_relaxed); }
Node::~Node() { g_live_nodes.fetch_sub(1, std::memory_order_relaxed); }

ScopedLeafGradHook::ScopedLeafGradHook(LeafGradHook hook)
    : previous_(std::move(t_leaf_grad_hook)) {
  t_leaf_grad_hook = std::move(hook);
}
ScopedLeafGradHook::~ScopedLeafGradHook() {
  t_leaf_grad_hook = std::move(previous_);
}

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

EnableGradGuard::EnableGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = true;
}
EnableGradGuard::~EnableGradGuard() { t_grad_enabled = previous_; }

}  // namespace autograd

namespace detail {

Storage::Storage(std::size_t count)
    : buffer_(count, real{0}), category_(MemoryTracker::current_category()) {
  MemoryTracker::instance().on_alloc(count * sizeof(real), category_);
}

Storage::~Storage() {
  MemoryTracker::instance().on_free(buffer_.size() * sizeof(real), category_);
}

}  // namespace detail

namespace {

std::shared_ptr<detail::TensorImpl> make_impl(const Shape& shape) {
  auto impl = std::make_shared<detail::TensorImpl>();
  impl->shape = shape;
  impl->storage = std::make_shared<detail::Storage>(
      static_cast<std::size_t>(shape.numel()));
  return impl;
}

}  // namespace

Tensor Tensor::make_result(
    const Shape& shape, std::vector<Tensor> inputs,
    std::function<std::vector<Tensor>(const Tensor&)> backward_fn,
    std::string op_name) {
  auto impl = make_impl(shape);
  bool needs_grad = false;
  if (autograd::grad_enabled()) {
    for (const auto& input : inputs) {
      if (input.defined() && input.requires_grad()) {
        needs_grad = true;
        break;
      }
    }
  }
  if (needs_grad) {
    impl->requires_grad = true;
    auto node = std::make_shared<autograd::Node>();
    node->op_name = std::move(op_name);
    node->inputs = std::move(inputs);
    node->backward = std::move(backward_fn);
    impl->grad_fn = std::move(node);
  }
  return Tensor(std::move(impl));
}

Tensor Tensor::zeros(const Shape& shape) {
  return Tensor(make_impl(shape));
}

Tensor Tensor::ones(const Shape& shape) { return full(shape, real{1}); }

Tensor Tensor::full(const Shape& shape, real value) {
  auto impl = make_impl(shape);
  std::fill_n(impl->storage->data(), impl->shape.numel(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(real value) { return full(Shape{}, value); }

Tensor Tensor::from_vector(const std::vector<real>& values,
                           const Shape& shape) {
  SGNN_CHECK(static_cast<std::int64_t>(values.size()) == shape.numel(),
             "from_vector: " << values.size() << " values for shape "
                             << shape.to_string());
  auto impl = make_impl(shape);
  std::copy(values.begin(), values.end(), impl->storage->data());
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(const Shape& shape, Rng& rng, real stddev) {
  auto impl = make_impl(shape);
  real* p = impl->storage->data();
  const std::int64_t n = shape.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = stddev * static_cast<real>(rng.normal());
  }
  return Tensor(std::move(impl));
}

Tensor Tensor::uniform(const Shape& shape, Rng& rng, real lo, real hi) {
  auto impl = make_impl(shape);
  real* p = impl->storage->data();
  const std::int64_t n = shape.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<real>(rng.uniform(lo, hi));
  }
  return Tensor(std::move(impl));
}

const Shape& Tensor::shape() const {
  SGNN_CHECK(defined(), "shape() on undefined tensor");
  return impl_->shape;
}

real* Tensor::data() {
  SGNN_CHECK(defined(), "data() on undefined tensor");
  return impl_->storage->data() + impl_->offset;
}

const real* Tensor::data() const {
  SGNN_CHECK(defined(), "data() on undefined tensor");
  return impl_->storage->data() + impl_->offset;
}

std::vector<real> Tensor::to_vector() const {
  const real* p = data();
  return std::vector<real>(p, p + numel());
}

std::string Tensor::to_string(std::int64_t max_elements) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor" << shape().to_string() << " {";
  const real* p = data();
  const std::int64_t n = numel();
  const std::int64_t shown = std::min(n, max_elements);
  // Row-major with '{' / '}' at dimension boundaries (rank <= 2 nests,
  // higher ranks print flat for brevity).
  const bool nest = rank() == 2;
  const std::int64_t cols = nest ? dim(1) : n;
  for (std::int64_t i = 0; i < shown; ++i) {
    if (nest && cols > 0 && i % cols == 0) os << (i == 0 ? "{" : ", {");
    else if (i > 0) os << ", ";
    os << p[i];
    if (nest && cols > 0 && (i % cols == cols - 1 || i == shown - 1)) {
      os << "}";
    }
  }
  if (shown < n) os << ", ... (" << n - shown << " more)";
  os << "}";
  return os.str();
}

real Tensor::item() const {
  SGNN_CHECK(numel() == 1, "item() on tensor with " << numel() << " elements");
  return data()[0];
}

real Tensor::at(std::int64_t row, std::int64_t col) const {
  SGNN_CHECK(rank() == 2, "at(row, col) requires rank-2, got rank " << rank());
  SGNN_CHECK(row >= 0 && row < dim(0) && col >= 0 && col < dim(1),
             "at(" << row << ", " << col << ") out of bounds for "
                   << shape().to_string());
  return data()[row * dim(1) + col];
}

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  SGNN_CHECK(defined(), "set_requires_grad on undefined tensor");
  SGNN_CHECK(!value || impl_->grad_fn == nullptr,
             "set_requires_grad(true) is only valid on leaf tensors");
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::is_leaf() const {
  return defined() && impl_->grad_fn == nullptr;
}

Tensor Tensor::grad() const {
  SGNN_CHECK(defined(), "grad() on undefined tensor");
  return impl_->has_grad ? Tensor(impl_->grad) : Tensor();
}

void Tensor::zero_grad() {
  SGNN_CHECK(defined(), "zero_grad() on undefined tensor");
  if (impl_->arena_grad) {
    std::fill_n(Tensor(impl_->grad).data(), impl_->shape.numel(), real{0});
  } else {
    impl_->grad.reset();
  }
  impl_->has_grad = false;
}

Tensor Tensor::detach() const {
  SGNN_CHECK(defined(), "detach() on undefined tensor");
  auto impl = std::make_shared<detail::TensorImpl>();
  impl->shape = impl_->shape;
  impl->storage = impl_->storage;  // aliases the data
  impl->offset = impl_->offset;
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const {
  SGNN_CHECK(defined(), "clone() on undefined tensor");
  auto impl = make_impl(impl_->shape);
  std::copy_n(data(), static_cast<std::size_t>(impl_->shape.numel()),
              impl->storage->data());
  return Tensor(std::move(impl));
}

void Tensor::backward(const Tensor& grad_output) {
  SGNN_CHECK(defined(), "backward() on undefined tensor");
  SGNN_CHECK(requires_grad(),
             "backward() on a tensor that does not require grad");
  SGNN_CHECK(!impl_->graph_consumed,
             "backward() called twice: the graph was already consumed");

  // Gradients produced during backward are accounted as gradient memory.
  const ScopedMemCategory grad_scope(MemCategory::kGradient);

  // Nesting depth distinguishes the outermost pass (whose leaf gradients
  // are final, and may be observed by the leaf-grad hook) from nested
  // passes run by checkpoint recomputation (whose are not).
  struct DepthGuard {
    DepthGuard() { ++autograd::t_backward_depth; }
    ~DepthGuard() { --autograd::t_backward_depth; }
  };
  const DepthGuard depth_guard;

  Tensor seed = grad_output;
  if (!seed.defined()) {
    SGNN_CHECK(numel() == 1,
               "backward() without grad_output requires a scalar output");
    seed = Tensor::ones(shape());
  }
  SGNN_CHECK(seed.shape() == shape(),
             "grad_output shape " << seed.shape().to_string()
                                  << " != output shape "
                                  << shape().to_string());

  // Topological order over impls reachable through grad_fn edges.
  std::vector<detail::TensorImpl*> topo;
  std::unordered_set<detail::TensorImpl*> visited;
  // Keep shared ownership of visited impls so raw keys stay valid even if
  // nodes release their inputs mid-walk.
  std::vector<std::shared_ptr<detail::TensorImpl>> retained;
  {
    // Iterative post-order DFS (graphs can be thousands of ops deep).
    struct Frame {
      std::shared_ptr<detail::TensorImpl> impl;
      std::size_t next_input = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({impl_, 0});
    visited.insert(impl_.get());
    retained.push_back(impl_);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& node = frame.impl->grad_fn;
      if (node && frame.next_input < node->inputs.size()) {
        const auto& input = node->inputs[frame.next_input++];
        if (input.defined() && input.requires_grad() &&
            !visited.count(input.impl().get())) {
          visited.insert(input.impl().get());
          retained.push_back(input.impl());
          stack.push_back({input.impl(), 0});
        }
      } else {
        topo.push_back(frame.impl.get());
        stack.pop_back();
      }
    }
  }

  std::unordered_map<detail::TensorImpl*, Tensor> grads;
  grads.emplace(impl_.get(), seed);

  const auto accumulate = [&grads](detail::TensorImpl* key,
                                   const Tensor& grad) {
    auto it = grads.find(key);
    if (it == grads.end()) {
      grads.emplace(key, grad);
      return;
    }
    // Out-of-place accumulation: backward functions may hand the *same*
    // buffer to several inputs (add returns grad_output twice), so mutating
    // either operand in place would corrupt a sibling's pending gradient.
    const Tensor& acc = it->second;
    SGNN_CHECK(acc.shape() == grad.shape(), "gradient shape mismatch during "
                                            "accumulation");
    Tensor sum = Tensor::zeros(acc.shape());
    real* s = sum.data();
    const real* a = acc.data();
    const real* g = grad.data();
    const std::int64_t n = acc.numel();
    for (std::int64_t i = 0; i < n; ++i) s[i] = a[i] + g[i];
    it->second = sum;
  };

  // Reverse-topological sweep: every consumer of a tensor appears after it
  // in `topo`, so by the time we reach an impl its gradient is complete.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    detail::TensorImpl* impl = *it;
    const auto grad_it = grads.find(impl);
    if (grad_it == grads.end()) continue;  // branch never contributed
    const Tensor grad = grad_it->second;

    if (!impl->grad_fn) {
      if (impl->requires_grad) {
        // Leaf: accumulate into the persistent .grad buffer (in place
        // into its slice of the gradient arena when it has one).
        if (!impl->grad) {
          impl->grad = Tensor::zeros(impl->shape).impl();
        }
        impl->has_grad = true;
        real* g = Tensor(impl->grad).data();
        const real* src = grad.data();
        const std::int64_t n = impl->shape.numel();
        for (std::int64_t i = 0; i < n; ++i) g[i] += src[i];
        // Reverse-topo guarantees every consumer already ran, so this
        // leaf's gradient is final — in the OUTERMOST pass only (a nested
        // checkpoint-recompute pass may be one of several contributions).
        if (autograd::t_backward_depth == 1 && autograd::t_leaf_grad_hook) {
          autograd::t_leaf_grad_hook(impl);
        }
      }
      grads.erase(grad_it);
      continue;
    }

    auto node = impl->grad_fn;
    {
      // Backward bodies must not re-record the graph.
      const autograd::NoGradGuard no_grad;
      const std::vector<Tensor> input_grads = node->backward(grad);
      SGNN_CHECK(input_grads.size() == node->inputs.size(),
                 "op '" << node->op_name << "' returned "
                        << input_grads.size() << " grads for "
                        << node->inputs.size() << " inputs");
      for (std::size_t i = 0; i < node->inputs.size(); ++i) {
        const Tensor& input = node->inputs[i];
        if (!input.defined() || !input.requires_grad()) continue;
        SGNN_CHECK(input_grads[i].defined(),
                   "op '" << node->op_name << "' produced no grad for input "
                          << i << " which requires grad");
        SGNN_CHECK(input_grads[i].shape() == input.shape(),
                   "op '" << node->op_name << "' grad " << i << " shape "
                          << input_grads[i].shape().to_string()
                          << " != input shape "
                          << input.shape().to_string());
        accumulate(input.impl().get(), input_grads[i]);
      }
    }
    // Consume the graph: releasing inputs here frees the forward activations
    // node by node, reproducing the decaying-memory profile of backward.
    node->inputs.clear();
    node->backward = nullptr;
    impl->grad_fn.reset();
    impl->graph_consumed = true;
    grads.erase(grad_it);
  }
}

}  // namespace sgnn
