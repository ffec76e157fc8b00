#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/tensor/param_arena.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

/// Splits a parameter arena's flat gradient into size-capped buckets and
/// posts each bucket's collective the moment its last gradient is produced
/// during backward, so communication overlaps the rest of the backward
/// pass (the enabler behind DDP's and ZeRO's scaling curves). A bucket is a
/// range of the arena's gradient buffer and its collective runs in place:
/// the bucketer holds no gradient or parameter copy.
///
/// Layout: walking parameters in REVERSE registration order — the order
/// autograd finishes their gradients, since later layers backpropagate
/// first — and filling each bucket to exactly `bucket_bytes` (splitting
/// mid-tensor when the cap does not align) makes every bucket a CONTIGUOUS
/// range of the flat gradient, descending from the top. Contiguity is what
/// lets a bucket reduce-scatter along the GLOBAL ZeRO shard boundaries
/// (explicit counts = |shard_r ∩ bucket|), so shard ownership — and
/// therefore checkpoint layout — is independent of the bucket size.
///
/// Bit-identity: every collective sums elements in fixed rank order, so the
/// synced gradient — and the training that consumes it — is byte-identical
/// for ANY bucket_bytes (pinned by tests/overlap_test.cpp).
///
/// Step protocol (all methods are called from the owning rank's thread):
///   begin_step(rank)    — before backward
///   on_leaf_grad(key)   — from the autograd leaf-grad hook
///   post_remaining()    — after backward (sweeps up leaves the hook never
///                         saw: params used only inside checkpointed
///                         segments, or with no grad)
///   drain()             — before the optimizer update
///   all_gather_params() — ZeRO only, after the update
///   end_step()
/// Every rank must run the identical protocol (same buckets, same order):
/// posts are matched across ranks by FIFO position.
class GradBucketer {
 public:
  /// PyTorch DDP's default bucket cap.
  static constexpr std::size_t kDefaultBucketBytes = 25 * 1024 * 1024;

  /// One bucket: the flat-gradient element range [begin, end).
  struct Bucket {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Pure layout function (exposed for the fuzz tests): chops [0, n) into
  /// cap-sized contiguous chunks from the TOP down, returned in post order
  /// (descending ranges). Every element of [0, n) lands in exactly one
  /// bucket; n == 0 yields no buckets; a cap below one element is clamped
  /// to one element.
  static std::vector<Bucket> plan(std::size_t total_elements,
                                  std::size_t bucket_bytes);

  /// `kind` selects the gradient collective: kAllReduce for DDP,
  /// kReduceScatter for ZeRO. `bucket_bytes` 0 makes one whole-model
  /// bucket. The arena must outlive the bucketer.
  GradBucketer(Communicator& comm, const ParamArena& arena,
               CollectiveKind kind, std::size_t bucket_bytes);
  ~GradBucketer();
  GradBucketer(const GradBucketer&) = delete;
  GradBucketer& operator=(const GradBucketer&) = delete;

  std::size_t num_buckets() const { return buckets_.size(); }
  bool active() const { return active_; }

  /// Arms the bucketer for one training step of `rank`: resets readiness,
  /// restarts the step clock, clears last step's events. Must not be called
  /// while a step is already active (un-drained posts would be orphaned).
  void begin_step(int rank);

  /// Leaf-grad hook body: install
  ///   autograd::ScopedLeafGradHook hook(
  ///       [&](const void* leaf) { bucketer.on_leaf_grad(leaf); });
  /// around backward(). Unknown keys are ignored (checkpoint recompute
  /// introduces fresh leaves). When a parameter's gradient completes, every
  /// bucket whose overlapping parameters are all complete is posted — in
  /// bucket order, holding back out-of-order completions so the post FIFO
  /// is identical on every rank.
  void on_leaf_grad(const void* leaf);

  /// Posts every bucket not yet posted (a parameter that never produced a
  /// gradient contributes its zeroed slice). Idempotent.
  void post_remaining();

  /// Waits every gradient bucket in post order. Then the arena's gradient
  /// buffer holds the rank SUM (not yet averaged) for kAllReduce; for
  /// kReduceScatter only this rank's global shard of it does, the rest
  /// keeping this rank's local gradients.
  void drain();

  /// ZeRO parameter path: all-gathers every bucket of the arena's value
  /// buffer in place, each rank contributing its (updated) global shard.
  /// Posts every bucket's gather, then waits them in order.
  void all_gather_params();

  /// Ends the step.
  void end_step();

  /// Post/wait timestamps of the last step's collectives, in FIFO order and
  /// seconds since begin_step — the input InterconnectModel::overlap_cost
  /// prices. Clears the recorded events.
  std::vector<InterconnectModel::OverlapEvent> take_events();

 private:
  void post_bucket(std::size_t b);
  void post_ready();
  /// Stamps the post of bucket b's `kind` collective as a new event.
  void record_post(std::size_t b, CollectiveKind kind);
  /// Waits bucket b's handle, stamping the wait on its event.
  void wait_bucket(std::size_t b);
  /// This rank's global shard intersected with bucket b.
  std::span<real> shard_piece(std::span<real> buffer, std::size_t b) const;

  Communicator& comm_;
  const ParamArena& arena_;
  CollectiveKind kind_;
  std::unordered_map<const void*, std::size_t> leaf_to_param_;
  std::vector<Bucket> buckets_;
  /// Buckets overlapping each param: [first, last] (contiguous by
  /// construction — param ranges and buckets are both contiguous).
  std::vector<std::pair<std::size_t, std::size_t>> param_buckets_;
  /// ZeRO: per-bucket |shard_r ∩ bucket| for every rank r.
  std::vector<std::vector<std::size_t>> counts_;

  /// Per-step state.
  int rank_ = 0;
  bool active_ = false;
  std::vector<bool> param_done_;
  std::vector<std::size_t> bucket_pending_;  ///< incomplete params per bucket
  std::size_t next_post_ = 0;                ///< next bucket to post
  std::vector<CollectiveHandle> handles_;
  std::vector<std::size_t> event_index_;  ///< bucket -> its events_ slot
  std::vector<InterconnectModel::OverlapEvent> events_;
  WallTimer step_timer_;
};

}  // namespace sgnn
