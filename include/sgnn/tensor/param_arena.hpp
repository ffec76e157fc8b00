#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sgnn/tensor/tensor.hpp"

namespace sgnn {

/// One rank's flat parameter arena: the values and the gradients of a
/// parameter list as two contiguous buffers, parameter i being the view
/// [offset(i), offset(i) + numel) of each, in registration order. That is
/// the order of the optimizer's flat moments, of the gradient buckets and of
/// the ZeRO shard boundaries, so each of them is a range of one buffer. The
/// arena is the only type that creates offset views into a shared Storage
/// (the ggml-opt layout: gradients and moments live in one static buffer
/// per context instead of one allocation per tensor).
///
/// Construction packs the list: each parameter's values move into the value
/// buffer (MemCategory::kWeight), and its `.grad` becomes a fixed view of
/// the gradient buffer (kGradient) that backward accumulates into in place.
/// A Tensor shares its impl, so every alias of a parameter sees the
/// rebinding. A list that already forms one arena in this order is adopted
/// as it is, so two optimizers over one model share one arena.
class ParamArena {
 public:
  explicit ParamArena(std::vector<Tensor> parameters);

  const std::vector<Tensor>& parameters() const { return parameters_; }
  /// Elements in each buffer.
  std::size_t size() const { return offsets_.back(); }
  /// Flat offset of parameter i; offset(i + 1) is where it ends.
  std::size_t offset(std::size_t i) const { return offsets_[i]; }
  std::span<real> values() const { return {values_->data(), size()}; }
  std::span<real> grads() const { return {grads_->data(), size()}; }

  /// Zeros the gradient buffer in one pass and clears every parameter's
  /// has-a-gradient flag, so `grad()` is undefined until backward reaches
  /// the parameter again.
  void zero_grad();

 private:
  /// True when the parameters already are this layout's views of one
  /// value and one gradient buffer.
  bool already_packed() const;

  std::vector<Tensor> parameters_;
  std::vector<std::size_t> offsets_;  ///< one per parameter, then size()
  std::shared_ptr<detail::Storage> values_;
  std::shared_ptr<detail::Storage> grads_;
};

}  // namespace sgnn
