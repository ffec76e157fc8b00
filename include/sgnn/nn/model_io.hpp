#pragma once

#include <memory>
#include <string>

#include "sgnn/nn/egnn.hpp"

namespace sgnn {

class SnapshotBuilder;
class SnapshotView;

/// Model persistence on the snapshot container (sgnn/store/snapshot.hpp):
/// a model is a set of model.* sections —
///   model.config.<field>   one per ModelConfig field
///   model.param_count      u64
///   model.shape.<i>        u64[] dims of parameter i
///   model.param.<i>        real[] data of parameter i
/// A model file is a snapshot holding these sections plus
/// meta.kind = "model". Training checkpoints (sgnn::ckpt) hold the same
/// sections next to their optimizer state, so every checkpoint loads as a
/// model file too, while a saved model ships for inference without its
/// Adam moments.

/// Adds the model.* sections of `model` to `builder`.
void save_model_sections(SnapshotBuilder& builder, const EGNNModel& model);

/// Restores parameters from the model.* sections of `view`, ignoring every
/// other section. Throws Error when the architecture or a parameter shape
/// does not match `model`; all sections are validated before the first
/// weight is written, so a failed load never leaves the model torn.
void load_model_sections(const SnapshotView& view, EGNNModel& model);

/// Writes a model file atomically (tmp file + fsync + rename).
void save_model(const EGNNModel& model, const std::string& path);

/// Reconstructs the model (config + weights) from a model file or a
/// training checkpoint. Throws Error on a missing, truncated, corrupted, or
/// incompatible file. (Modules are pinned in memory, hence the unique_ptr.)
std::unique_ptr<EGNNModel> load_model(const std::string& path);

/// Restores weights into an existing model whose config must match.
void load_parameters_into(EGNNModel& model, const std::string& path);

/// Snapshot payload holding just the model.* sections (no container
/// framing); what serve::Server loads and hot-swaps.
std::string model_payload_bytes(const EGNNModel& model);

/// Restores parameters from any snapshot payload carrying model.*
/// sections (model_payload_bytes, or a read_snapshot_file of a model file
/// or checkpoint); throws Error on architecture mismatch or truncation.
void load_model_payload(EGNNModel& model, const std::string& payload);

}  // namespace sgnn
