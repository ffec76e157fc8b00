#pragma once

// The training step and training-state snapshot code both trainers share:
// Trainer::train_epoch is the single-process instance, every
// DistributedTrainer rank thread the distributed one. What differs between
// them — gradient synchronization and optimizer-state placement — sits
// behind the GradSync each caller hands in.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
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

/// One training step. Construct it at the top of the step, BEFORE the batch
/// is fetched: the step clock, the "train_step" profiler region and the
/// kernel-profile snapshot start here, so batch assembly counts as step
/// time. Then run() the batch and emit() the telemetry it returns.
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

  /// Feeds obs::MetricsRegistry and the context's sink.
  void emit(const obs::StepTelemetry& telemetry) const;

 private:
  const Context& context_;
  std::int64_t step_;
  std::int64_t epoch_;
  WallTimer timer_;
  obs::prof::Totals prof_before_;
  obs::prof::ProfRegion region_;
};

/// The snapshot writer both trainers use: meta.kind, meta.step (completed
/// steps), meta.epoch (the epoch of the NEXT step: `epoch`, or the one
/// after when the sampler has no batch left), sampler.{rng,order,cursor},
/// the model.* sections, and the optimizer sections of every rank's
/// GradSync (syncs[r] is rank r's). The caller adds its own meta fields.
void save_training_state(SnapshotBuilder& builder, const std::string& kind,
                         std::int64_t step, std::int64_t epoch,
                         const EGNNModel& model,
                         const std::vector<GradSync*>& syncs,
                         const EpochSampler& sampler);

/// The newest readable snapshot under `location` for a resume: nullopt
/// when `location` is empty (a fresh run), or with a warning when nothing
/// under it is readable; Error when its meta.kind is not
/// `kind` (a snapshot of another trainer or mode is never half-applied).
std::optional<SnapshotView> find_resume_snapshot(const std::string& location,
                                                 const std::string& kind);

/// Restores what save_training_state wrote into `sampler` (first, so a
/// position that does not fit it fails before anything else changes),
/// `model` and each rank's GradSync; the caller reads the meta counters.
void load_training_state(const SnapshotView& view, EGNNModel& model,
                         const std::vector<GradSync*>& syncs,
                         EpochSampler& sampler);

}  // namespace sgnn
