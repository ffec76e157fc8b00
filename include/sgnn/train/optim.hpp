#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/tensor/param_arena.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

class SnapshotBuilder;
class SnapshotView;

/// Adam (Kingma & Ba), the one optimizer every training setting runs — the
/// rank's gradient sync that the shared training step (TrainStep) drives.
/// Single-process, DDP and ZeRO-1 training differ only in data: an optional
/// Communicator and the CollectiveKind its gradient buckets run.
///   no communicator — no synchronization (single process, graph-parallel
///                     ranks, whose gradients are already replicated);
///   kAllReduce      — DDP: averaged all-reduce, every rank keeps FULL
///                     moments (the redundancy ZeRO removes);
///   kReduceScatter  — ZeRO-1 (Rajbhandari et al., SC'20): each rank keeps
///                     moments for its 1/R shard only, updates that shard
///                     of the rank-averaged gradient and all-gathers the
///                     refreshed parameters (Tab. II's memory/time trade).
/// The two moment vectors are the "optimizer states" of Fig. 6, allocated
/// under MemCategory::kOptimizerState so the memory benches see them.
///
/// Construction packs the parameters into one ParamArena (or adopts the one
/// they already form), so values, gradients and both moments are flat
/// buffers in registration order and the update is one pass over a range
/// of them. Every setting updates its whole range: a parameter backward
/// never reached takes a zero gradient (no rank can know which parameters
/// another rank left without one).
class Adam {
 public:
  /// Adam hyperparameters.
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  /// `parameters` must be grad-requiring leaves. With a `comm`, every rank
  /// constructs its own Adam over its replica, and a GradBucketer runs
  /// `kind` (kAllReduce or kReduceScatter) over `bucket_bytes` gradient
  /// buckets (default: DDP's 25 MB; 0 makes one whole-model bucket). Every
  /// cap gives byte-identical training, and ZeRO buckets scatter along the
  /// GLOBAL shard boundaries, so shard ownership — and checkpoint layout —
  /// never depends on it. Without a `comm`, `kind` and `bucket_bytes` are
  /// unused.
  Adam(std::vector<Tensor> parameters, const Options& options,
       Communicator* comm = nullptr,
       CollectiveKind kind = CollectiveKind::kAllReduce,
       std::size_t bucket_bytes = GradBucketer::kDefaultBucketBytes);
  ~Adam();
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Zeros the arena's gradient buffer (see ParamArena::zero_grad).
  void zero_grad() { arena_.zero_grad(); }

  /// Runs loss.backward() with the sync armed: with a communicator, the
  /// bucketer begins the step for `rank` and the autograd leaf-grad hook
  /// posts each bucket's collective the moment its last gradient lands, so
  /// communication overlaps the rest of backward.
  void backward(Tensor& loss, int rank);

  /// Applies one update from the accumulated gradients; collective with a
  /// communicator (every rank calls it once per step). When clipping is on
  /// or `measure_norm` is set, returns the joint L2 norm of the gradient
  /// the update consumed — rank-averaged where gradients are synchronized —
  /// before clipping; otherwise returns 0. A synchronized step leaves the
  /// averaged (and clipped) gradient in `.grad`: all of it under
  /// kAllReduce, only this rank's shard under kReduceScatter.
  double step(int rank = 0, bool measure_norm = false);

  double learning_rate() const { return options_.learning_rate; }
  void set_learning_rate(double lr) { options_.learning_rate = lr; }
  /// Completed updates: Adam's bias-correction step count.
  std::int64_t timestep() const { return timestep_; }

  /// Joint L2 clip of the gradient the update consumes (0 disables). A
  /// synchronized Adam clips the rank-AVERAGED gradient, so every replica
  /// scales by the identical factor and stays bit-identical.
  void set_max_grad_norm(double max_norm) { max_grad_norm_ = max_norm; }

  /// Elements of each moment this rank holds: the whole arena, or under
  /// kReduceScatter the largest (rank 0's) shard, so ranks are
  /// interchangeable.
  std::size_t shard_elements() const {
    return static_cast<std::size_t>(m_.numel());
  }

  /// Optimizer-state sections of a training checkpoint (sgnn::ckpt):
  /// optim.timestep and optim.lr, plus the moments — optim.m/optim.v for
  /// replicated state, written by rank 0 for every rank, or one
  /// optim.m.<r>/optim.v.<r> shard per rank. Restoring them resumes the
  /// update sequence bit-identically.
  void save(SnapshotBuilder& builder, int rank) const;
  void load(const SnapshotView& view, int rank);

  /// The gradient bucketer; null without a communicator.
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

 private:
  /// True when each rank holds only its own moment shard.
  bool sharded() const {
    return comm_ != nullptr && kind_ == CollectiveKind::kReduceScatter;
  }

  ParamArena arena_;
  Options options_;
  Communicator* comm_;  ///< null: no synchronization
  CollectiveKind kind_;
  double max_grad_norm_ = 0.0;
  std::int64_t timestep_ = 0;
  Tensor m_;  ///< first moment, kOptimizerState
  Tensor v_;  ///< second moment, kOptimizerState
  std::unique_ptr<GradBucketer> bucketer_;
  std::function<void()> pre_drain_hook_;
};

}  // namespace sgnn
