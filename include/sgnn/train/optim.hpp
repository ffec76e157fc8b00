#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/tensor/param_arena.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

class SnapshotBuilder;
class SnapshotView;

class GradBucketer;

/// How one rank turns its local gradients into a parameter update: the one
/// interface the shared training step (TrainStep) drives. Every
/// implementation is Adam (Kingma & Ba) and differs only in how gradients
/// are synchronized and where the moments live:
///   Adam     — no synchronization (single process, graph-parallel ranks);
///   DDPAdam  — averaged all-reduce, replicated moments (zero.hpp);
///   ZeroAdam — reduce-scatter + all-gather, sharded moments (zero.hpp).
/// The two moment vectors are the "optimizer states" of Fig. 6, allocated
/// under MemCategory::kOptimizerState so the memory benches see them.
///
/// Construction packs the parameters into one ParamArena (or adopts the one
/// they already form), so values, gradients and both moments are flat
/// buffers in registration order and every update works on ranges of them.
class GradSync {
 public:
  /// Adam hyperparameters.
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  virtual ~GradSync();
  GradSync(const GradSync&) = delete;
  GradSync& operator=(const GradSync&) = delete;

  /// Zeros the arena's gradient buffer (see ParamArena::zero_grad).
  void zero_grad() { arena_.zero_grad(); }

  /// Runs loss.backward() with the sync armed: for a synchronized sync, the
  /// bucketer begins the step for `rank` and the autograd leaf-grad hook
  /// posts each bucket's collective the moment its last gradient lands, so
  /// communication overlaps the rest of backward.
  void backward(Tensor& loss, int rank);

  /// Applies one update from the accumulated gradients; collective for the
  /// distributed implementations (every rank calls it once per step). When
  /// clipping is on or `measure_norm` is set, returns the joint L2 norm of
  /// the gradient the update consumed — rank-averaged where gradients are
  /// synchronized — before clipping; otherwise returns 0. A synchronized
  /// step leaves the averaged (and clipped) gradient in `.grad`: all of it
  /// for DDP, only this rank's shard for ZeRO.
  double step(int rank = 0, bool measure_norm = false);

  double learning_rate() const { return options_.learning_rate; }
  void set_learning_rate(double lr) { options_.learning_rate = lr; }
  /// Completed updates: Adam's bias-correction step count.
  std::int64_t timestep() const { return timestep_; }

  /// Joint L2 clip of the gradient the update consumes (0 disables). The
  /// distributed implementations clip the rank-AVERAGED gradient, so every
  /// replica scales by the identical factor and stays bit-identical.
  void set_max_grad_norm(double max_norm) { max_grad_norm_ = max_norm; }

  /// Optimizer-state sections of a training checkpoint (sgnn::ckpt):
  /// optim.timestep and optim.lr, plus the moments — optim.m/optim.v for
  /// replicated state, written by rank 0 for every rank, or one
  /// optim.m.<r>/optim.v.<r> shard per rank. Restoring them resumes the
  /// update sequence bit-identically.
  void save(SnapshotBuilder& builder, int rank) const;
  void load(const SnapshotView& view, int rank);

  /// The gradient bucketer of a synchronized sync; null for plain Adam.
  GradBucketer* bucketer() { return bucketer_.get(); }
  /// Post/wait stamps of the last step's bucket collectives for
  /// InterconnectModel::overlap_cost; empty without a bucketer.
  std::vector<InterconnectModel::OverlapEvent> take_overlap_events();

  /// Fault-injection hook, invoked inside step() after every bucket is
  /// posted and before the drain — the window the crash-during-overlap
  /// checkpoint test throws a SimulatedCrash in. Never fires without a
  /// bucketer.
  void set_pre_drain_hook(std::function<void()> hook) {
    pre_drain_hook_ = std::move(hook);
  }

  /// One Adam update on a flat array slice.
  static void update_flat(real* param, const real* grad, real* m, real* v,
                          std::size_t count, std::int64_t timestep,
                          const Options& options);

 protected:
  /// `parameters` must be grad-requiring leaves. A sync over `comm` gets a
  /// GradBucketer running collective `kind` over `bucket_bytes` buckets
  /// (0: one whole-model bucket).
  GradSync(std::vector<Tensor> parameters, const Options& options,
           Communicator* comm = nullptr,
           CollectiveKind kind = CollectiveKind::kAllReduce,
           std::size_t bucket_bytes = 0);

  /// The update behind step(), after the timestep advanced.
  virtual double update(int rank, bool measure_norm) = 0;
  /// True when each rank holds only its own moment shard.
  virtual bool sharded() const { return false; }

  /// Allocates the two moments as flat tensors of `count` elements.
  void allocate_moments(std::size_t count);
  /// Posts every bucket not yet posted (arming the bucketer first when the
  /// caller never did), fires the pre-drain hook, then waits every bucket.
  void reduce_gradients(int rank);
  /// Averages the rank-summed gradient `grad` over comm_'s ranks, then
  /// clips it. The norm is taken only when clipping or
  /// `measure_norm` asks for it; a sharded sync's `grad` is this rank's
  /// shard, whose partial sum of squares is all-reduced in fixed rank order
  /// so every rank gets the identical norm. Returns that pre-clip norm of
  /// the averaged gradient, or 0.
  double average_and_clip(std::span<real> grad, int rank,
                          bool measure_norm) const;

  ParamArena arena_;
  Options options_;
  Communicator* comm_;  ///< null for plain Adam
  double max_grad_norm_ = 0.0;
  std::int64_t timestep_ = 0;
  Tensor m_;  ///< first moment, kOptimizerState
  Tensor v_;  ///< second moment, kOptimizerState
  std::unique_ptr<GradBucketer> bucketer_;

 private:
  std::function<void()> pre_drain_hook_;
};

/// Plain Adam with replicated moments, each parameter updating its own
/// range. Used by the single-process Trainer and by graph-parallel ranks,
/// whose gradients are already replicated exactly.
class Adam : public GradSync {
 public:
  Adam(std::vector<Tensor> parameters, const Options& options);

 private:
  /// Parameters whose gradient is undefined are skipped (zero gradient,
  /// moments untouched).
  double update(int rank, bool measure_norm) override;
};

}  // namespace sgnn
