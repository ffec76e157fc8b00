#pragma once

// The one training loop Trainer and every DistributedTrainer rank thread
// run: the step body, the epoch loop around it, snapshots and resume.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/comm/communicator.hpp"
#include "sgnn/data/loader.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/loss_scaler.hpp"
#include "sgnn/train/optim.hpp"
#include "sgnn/train/schedule.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

/// One training step. TrainLoop constructs it at the top of the step,
/// BEFORE the batch is fetched: the step clock, the "train_step" profiler
/// region and the kernel-profile snapshot start here, so batch assembly
/// counts as step time. Then the caller's RunBatch run()s the batch.
class TrainStep {
 public:
  /// What stays fixed across the steps of one rank's run.
  struct Context {
    EGNNModel& model;
    GradSync& sync;
    /// Emitting rank; -1 for single-process training (as in
    /// StepTelemetry). Only rank 0 (or the single process) reads the
    /// kernel-profile deltas: prof::totals() aggregates every rank thread.
    int rank;
    const LossWeights& loss_weights;
    /// Step-based LR schedule; overrides the sync's learning rate when set.
    const std::optional<LrSchedule>& schedule;
    /// Disabled scalers pass every step through unscaled.
    LossScaler& loss_scaler;
    /// Not owned; null detaches. An attached sink also makes the sync
    /// measure the gradient norm.
    obs::TelemetrySink* telemetry;
  };

  /// `step` is the global index of the step about to run (it picks the
  /// scheduled learning rate), `epoch` the epoch it belongs to.
  TrainStep(const Context& context, std::int64_t step, std::int64_t epoch);

  /// Runs the step on `batch`: zero_grad, forward + loss (scaled for
  /// backward when loss scaling is on), backward with the sync armed, then
  /// the optimizer phase — scheduled learning rate, overflow skip, unscale,
  /// clip or norm, update. Returns the step's telemetry; the comm_* and
  /// halo_* fields are left for a distributed caller to fill.
  obs::StepTelemetry run(const GraphBatch& batch,
                         const EGNNModel::ForwardOptions& forward);

 private:
  const Context& context_;
  std::int64_t step_;
  std::int64_t epoch_;
  WallTimer timer_;
  obs::prof::Totals prof_before_;
  obs::prof::ProfRegion region_;
};

/// The training loop both trainers run: Trainer drives one with its Adam,
/// and one serves every rank thread of a DistributedTrainer run. It owns
/// the run's snapshot writer, its resume path and each rank's loss tally.
/// What differs stays with the caller: the RunBatch that turns sampler
/// indices into a batch, each rank's GradSync, and where an epoch starts.
class TrainLoop {
 public:
  /// The preconditions both trainers share: epochs > 0, and a snapshot
  /// cadence only with a directory.
  static void check_options(std::int64_t epochs,
                            const ckpt::CheckpointOptions& checkpoint);

  /// `kind` is the snapshots' meta.kind, `model` the replica they hold,
  /// `syncs[r]` rank r's GradSync. With a `comm`, each save is collective
  /// and rank 0 writes every rank's state. A snapshot records `meta` and a
  /// resume must match it.
  TrainLoop(std::string kind, const ckpt::CheckpointOptions& checkpoint,
            EGNNModel& model, std::vector<GradSync*> syncs,
            Communicator* comm = nullptr,
            std::vector<std::pair<std::string, std::int64_t>> meta = {});

  /// The one resume, from checkpoint.resume_from: restores `sampler` (Error
  /// on another size or batch size), the loss tallies, the model, every
  /// GradSync, `step` (completed steps) and `epoch` (the next step's).
  /// False for a fresh run; Error on another kind or `meta`.
  bool resume(EpochSampler& sampler, std::int64_t& step, std::int64_t& epoch);

  /// Fetches the next batch, runs `step` on it and returns the telemetry;
  /// the batch and whatever else serves only this step die with the call.
  using RunBatch = std::function<obs::StepTelemetry(TrainStep& step)>;

  /// Runs the batches left in `sampler`'s epoch `epoch` as the rank of
  /// `context`. Per batch: a TrainStep, run_batch, telemetry, the rank's
  /// loss tally, ++step (completed steps), a snapshot when due, and the
  /// crash injection.
  void run_epoch(const TrainStep::Context& context, EpochSampler& sampler,
                 std::int64_t& step, std::int64_t epoch,
                 const RunBatch& run_batch);

  /// One running loss tally per rank, carried by every snapshot.
  std::vector<LossTally>& losses() { return losses_; }

 private:
  std::string kind_;
  const ckpt::CheckpointOptions& checkpoint_;
  EGNNModel& model_;
  std::vector<GradSync*> syncs_;
  Communicator* comm_;
  std::vector<std::pair<std::string, std::int64_t>> meta_;
  std::vector<LossTally> losses_;
  std::optional<ckpt::CheckpointManager> manager_;
};

}  // namespace sgnn
