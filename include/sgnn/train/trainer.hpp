#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/data/loader.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/train/baseline.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/loss_scaler.hpp"
#include "sgnn/train/optim.hpp"
#include "sgnn/train/schedule.hpp"

namespace sgnn {

namespace obs {
class TelemetrySink;
}  // namespace obs

class TrainLoop;

/// Hyperparameters of one training run. Defaults follow the paper's setup
/// (Sec. III-B: hyperparameters from the HydraGNN-GFM study, 10 epochs).
struct TrainOptions {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 8;
  Adam::Options adam;
  LossWeights loss_weights;
  bool activation_checkpointing = false;
  /// Multiplicative learning-rate decay applied after every epoch
  /// (ignored when `schedule` is set).
  double lr_decay = 0.85;
  /// Step-based schedule overriding adam.learning_rate/lr_decay when set.
  std::optional<LrSchedule> schedule;
  /// Joint L2 gradient-norm clip; 0 disables clipping.
  double max_grad_norm = 0.0;
  /// Dynamic loss scaling for reduced-precision runs (single-process
  /// Trainer only; the distributed trainers ignore it). Enable together
  /// with SGNN_COMPUTE_DTYPE=float32 — harmless but pointless under fp64.
  LossScaler::Options loss_scaling;
  /// Crash-safe training-state snapshots (see docs/fault-tolerance.md).
  ckpt::CheckpointOptions checkpoint;
};

/// Single-process trainer: the building block the scaling sweeps call, and
/// the reference the distributed trainers are tested against. It runs the
/// same training loop as every DistributedTrainer rank — step body,
/// snapshot writer and resume path — with plain Adam as the GradSync.
class Trainer {
 public:
  Trainer(EGNNModel& model, const TrainOptions& options);
  ~Trainer();

  struct EpochResult {
    double mean_train_loss = 0;
    double seconds = 0;
  };

  /// One pass over the loader; updates after every batch. Tags the phases
  /// (forward/backward/optimizer) for the memory profiler.
  EpochResult train_epoch(DataLoader& loader);

  /// Full run: `epochs` passes with LR decay. When
  /// options.checkpoint.resume_from names a readable snapshot, training
  /// resumes from it BIT-IDENTICALLY: the parameters after `fit` are
  /// byte-for-byte equal to an uninterrupted run of the same options.
  std::vector<EpochResult> fit(DataLoader& loader);

  /// Test-set metrics at the current parameters.
  EvalMetrics evaluate(const std::vector<const MolecularGraph*>& graphs,
                       std::int64_t batch_size) const;

  /// Trains and evaluates on energies with this per-species composition
  /// baseline subtracted (see EnergyBaseline). Applied consistently to
  /// train and test targets, so losses across runs remain comparable.
  void set_energy_baseline(EnergyBaseline baseline) {
    baseline_ = baseline;
    use_baseline_ = true;
  }

  EGNNModel& model() { return model_; }

  /// Attaches a per-step telemetry receiver (not owned; nullptr detaches).
  /// Every step also feeds the global obs::MetricsRegistry regardless.
  void set_telemetry(obs::TelemetrySink* sink) { telemetry_ = sink; }

 private:
  EGNNModel& model_;
  TrainOptions options_;
  Adam optimizer_;
  LossScaler loss_scaler_;
  EnergyBaseline baseline_;
  bool use_baseline_ = false;
  std::int64_t global_step_ = 0;
  std::int64_t epoch_index_ = 0;
  obs::TelemetrySink* telemetry_ = nullptr;
  /// Snapshots, resume, and the loss tally of the current epoch's steps.
  std::unique_ptr<TrainLoop> loop_;
  /// Set by a mid-epoch resume: the first train_epoch continues the
  /// restored loader state instead of reshuffling.
  bool skip_begin_epoch_ = false;
};

}  // namespace sgnn
