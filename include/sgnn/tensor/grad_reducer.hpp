#pragma once

#include <cstdint>
#include <vector>

namespace sgnn {

class Tensor;

/// Continuation-style reducer for gradients of REPLICATED leaf parameters
/// whose activations are row-sharded across ranks (graph-parallel training,
/// sgnn::gpar). Every parameter-gradient kernel in this repo is a fold over
/// activation rows in ascending order (matmul_at_b folds each element over
/// the rows and can continue a fold; reduce_to, linear_act's bias sum and
/// scatter_rows_into accumulate in input order),
/// and under the partitioner the global row order is exactly the rank-order
/// concatenation of the local shards. A reducer therefore reproduces the single-rank
/// gradient BIT-identically by continuing the fold rank to rank instead of
/// summing per-rank partials (which would re-bracket the floating-point
/// sum). See docs/graph-parallelism.md.
///
/// The autograd ops capture the armed reducer at RECORD time and call it
/// from their backward closures, so the arming scope only needs to span the
/// forward pass (including activation-checkpoint recomputes, which re-record
/// on the same thread); the reducer object itself must outlive backward.
class ShardedGradReducer {
 public:
  virtual ~ShardedGradReducer() = default;

  /// Full dW = A_global^T @ G_global where `a` (m, k) and `grad` (m, n) are
  /// this rank's row shards; returns the replicated (k, n) gradient.
  virtual Tensor matmul_weight_grad(const Tensor& a, const Tensor& grad) = 0;

  /// Full (1, n) column sum of a row-sharded (m, n) gradient — the bias of
  /// a Linear applied to sharded rows.
  virtual Tensor rows_sum_grad(const Tensor& grad) = 0;

  /// Full (rows, cols) scatter of a row-sharded gradient into a replicated
  /// table (embedding backward); `index` holds this rank's local ids.
  virtual Tensor scatter_rows_grad(const Tensor& grad,
                                   const std::vector<std::int64_t>& index,
                                   std::int64_t rows, std::int64_t cols) = 0;
};

/// The reducer armed on the calling thread (nullptr outside graph-parallel
/// forward passes — the common case, checked once per op record).
ShardedGradReducer* current_sharded_grad_reducer();

/// Arms `reducer` on this thread for the scope's lifetime; restores the
/// previous value on destruction. Pass nullptr to disarm a nested region
/// (the replicated readout/head section of a graph-parallel forward, whose
/// activations are NOT sharded and must not be ring-reduced).
class ScopedShardedGradReducer {
 public:
  explicit ScopedShardedGradReducer(ShardedGradReducer* reducer);
  ~ScopedShardedGradReducer();
  ScopedShardedGradReducer(const ScopedShardedGradReducer&) = delete;
  ScopedShardedGradReducer& operator=(const ScopedShardedGradReducer&) =
      delete;

 private:
  ShardedGradReducer* previous_;
};

}  // namespace sgnn
