#pragma once

#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/tensor/tensor.hpp"

namespace sgnn {

/// Relative weights of the HydraGNN prediction tasks.
struct LossWeights {
  double energy = 1.0;
  double force = 25.0;   ///< forces are per-component and much smaller
  double dipole = 1.0;   ///< only applied when the model predicts dipoles
};

/// Differentiable loss plus detached per-task values for logging.
struct LossTerms {
  Tensor total;            ///< scalar, autograd-connected
  double energy_mse = 0;   ///< per-atom-normalized energy MSE
  double force_mse = 0;    ///< per-component force MSE
  double dipole_mse = 0;   ///< 0 unless the dipole head is active
};

/// HydraGNN-style multi-task objective:
///   L = w_E * MSE( E_pred/N_atoms, E_true/N_atoms ) + w_F * MSE(F_pred, F_true)
/// Energies are normalized per atom so graphs of different sizes contribute
/// comparably (total energy is extensive; without this, OC slabs with ~80
/// atoms would dominate the molecular sources).
LossTerms multitask_loss(const Tensor& predicted_energy,
                         const Tensor& predicted_forces,
                         const GraphBatch& batch, const LossWeights& weights);

/// Dispatch on the model output: adds the dipole term when the model
/// produced a dipole prediction.
LossTerms multitask_loss(const EGNNModel::Output& prediction,
                         const GraphBatch& batch, const LossWeights& weights);

/// Evaluation metrics on one batch (no autograd).
struct EvalMetrics {
  double loss = 0;             ///< same composite objective
  double energy_mae_per_atom = 0;
  double force_mae = 0;
  double dipole_mae = 0;       ///< 0 unless the dipole head is active
  std::int64_t num_graphs = 0;
  std::int64_t num_nodes = 0;
};

EvalMetrics evaluate_batch(const EGNNModel& model, const GraphBatch& batch,
                           const LossWeights& weights);

/// Accumulates batch metrics into dataset-level averages.
struct MetricAccumulator {
  double loss_sum = 0;
  double energy_mae_sum = 0;  ///< weighted by graphs
  double dipole_mae_sum = 0;  ///< weighted by graphs
  double force_mae_sum = 0;   ///< weighted by nodes
  std::int64_t graphs = 0;
  std::int64_t nodes = 0;
  std::int64_t batches = 0;

  void add(const EvalMetrics& m);
  EvalMetrics mean() const;
};

/// A rank's running training loss: the sum and count of the step losses
/// its reported mean covers (the epoch's for Trainer, the whole run's for a
/// DistributedTrainer rank). It is training state: snapshots carry it, so
/// a resumed mean covers the steps before the snapshot too.
struct LossTally {
  double sum = 0;
  std::int64_t steps = 0;

  void add(double loss) {
    sum += loss;
    ++steps;
  }
  double mean() const {
    return steps > 0 ? sum / static_cast<double>(steps) : 0.0;
  }
};

}  // namespace sgnn
