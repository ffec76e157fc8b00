#include "sgnn/tensor/param_arena.hpp"

#include <algorithm>

#include "sgnn/util/error.hpp"

namespace sgnn {

ParamArena::ParamArena(std::vector<Tensor> parameters)
    : parameters_(std::move(parameters)), offsets_{0} {
  for (const Tensor& p : parameters_) {
    SGNN_CHECK(p.defined() && p.is_leaf(),
               "arena parameters must be defined leaves");
    offsets_.push_back(offsets_.back() + static_cast<std::size_t>(p.numel()));
  }
  if (already_packed()) {
    values_ = parameters_.front().impl()->storage;
    grads_ = parameters_.front().impl()->grad->storage;
    return;
  }
  {
    const ScopedMemCategory weights(MemCategory::kWeight);
    values_ = std::make_shared<detail::Storage>(size());
  }
  {
    const ScopedMemCategory gradients(MemCategory::kGradient);
    grads_ = std::make_shared<detail::Storage>(size());
  }
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    detail::TensorImpl& impl = *parameters_[i].impl();
    const auto n = static_cast<std::size_t>(impl.shape.numel());
    std::copy_n(parameters_[i].data(), n, values_->data() + offsets_[i]);
    if (impl.has_grad) {
      std::copy_n(parameters_[i].grad().data(), n,
                  grads_->data() + offsets_[i]);
    }
    impl.storage = values_;
    impl.offset = offsets_[i];
    auto grad = std::make_shared<detail::TensorImpl>();
    grad->shape = impl.shape;
    grad->storage = grads_;
    grad->offset = offsets_[i];
    impl.grad = std::move(grad);
    impl.arena_grad = true;
  }
}

bool ParamArena::already_packed() const {
  if (parameters_.empty()) return false;
  const detail::TensorImpl& first = *parameters_.front().impl();
  if (!first.arena_grad || first.storage->count() != size()) return false;
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const detail::TensorImpl& impl = *parameters_[i].impl();
    if (!impl.arena_grad || impl.storage != first.storage ||
        impl.offset != offsets_[i] ||
        impl.grad->storage != first.grad->storage ||
        impl.grad->offset != offsets_[i]) {
      return false;
    }
  }
  return true;
}

void ParamArena::zero_grad() {
  const std::span<real> grad = grads();
  std::fill(grad.begin(), grad.end(), real{0});
  for (const Tensor& p : parameters_) p.impl()->has_grad = false;
}

}  // namespace sgnn
