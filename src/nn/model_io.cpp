#include "sgnn/nn/model_io.hpp"

#include <cstring>
#include <vector>

#include "sgnn/store/snapshot.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace {

ModelConfig read_config(const SnapshotView& view) {
  ModelConfig config;
  config.hidden_dim = view.i64("model.config.hidden_dim");
  config.num_layers = view.i64("model.config.num_layers");
  config.num_species = view.i64("model.config.num_species");
  config.num_rbf = view.i64("model.config.num_rbf");
  config.cutoff = view.f64("model.config.cutoff");
  config.residual = view.u64("model.config.residual") != 0;
  config.coord_scale = view.f64("model.config.coord_scale");
  const auto kernel = view.i64("model.config.kernel");
  SGNN_CHECK(kernel >= 0 && kernel <= 2, "invalid kernel in model file");
  config.kernel = static_cast<MessagePassingKernel>(kernel);
  const auto head = view.i64("model.config.force_head");
  SGNN_CHECK(head >= 0 && head <= 1, "invalid force head in model file");
  config.force_head = static_cast<ForceHead>(head);
  config.predict_dipole = view.u64("model.config.predict_dipole") != 0;
  config.seed = view.u64("model.config.seed");
  SGNN_CHECK(config.hidden_dim > 0 && config.num_layers > 0 &&
                 config.num_species > 0 && config.num_rbf > 0,
             "model file carries an invalid config");
  return config;
}

}  // namespace

void save_model_sections(SnapshotBuilder& builder, const EGNNModel& model) {
  const ModelConfig& config = model.config();
  builder.add_i64("model.config.hidden_dim", config.hidden_dim);
  builder.add_i64("model.config.num_layers", config.num_layers);
  builder.add_i64("model.config.num_species", config.num_species);
  builder.add_i64("model.config.num_rbf", config.num_rbf);
  builder.add_f64("model.config.cutoff", config.cutoff);
  builder.add_u64("model.config.residual", config.residual ? 1 : 0);
  builder.add_f64("model.config.coord_scale", config.coord_scale);
  builder.add_i64("model.config.kernel",
                  static_cast<std::int64_t>(config.kernel));
  builder.add_i64("model.config.force_head",
                  static_cast<std::int64_t>(config.force_head));
  builder.add_u64("model.config.predict_dipole", config.predict_dipole ? 1 : 0);
  builder.add_u64("model.config.seed", config.seed);
  const auto params = model.parameters();
  builder.add_u64("model.param_count", params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = params[i];
    std::vector<std::uint64_t> dims(p.rank());
    for (std::size_t axis = 0; axis < p.rank(); ++axis) {
      dims[axis] = static_cast<std::uint64_t>(p.dim(axis));
    }
    const std::string index = std::to_string(i);
    builder.add_u64s("model.shape." + index, dims);
    builder.add_reals("model.param." + index, p.data(),
                      static_cast<std::size_t>(p.numel()));
  }
}

void load_model_sections(const SnapshotView& view, EGNNModel& model) {
  const ModelConfig config = read_config(view);
  SGNN_CHECK(config.hidden_dim == model.config().hidden_dim &&
                 config.num_layers == model.config().num_layers &&
                 config.num_species == model.config().num_species &&
                 config.num_rbf == model.config().num_rbf &&
                 config.kernel == model.config().kernel &&
                 config.force_head == model.config().force_head &&
                 config.predict_dipole == model.config().predict_dipole,
             "model payload architecture does not match the target model");
  auto params = model.parameters();
  const auto count = view.u64("model.param_count");
  SGNN_CHECK(count == params.size(),
             "model file has " << count << " parameter tensors, model needs "
                               << params.size());
  // Two-phase restore: validate every tensor's shape and data size first,
  // so a mismatch discovered at parameter k cannot leave the model torn
  // (parameters 0..k-1 new, the rest old). The view is the staging area;
  // live weights are only touched after all of it has validated.
  std::vector<const std::string*> staged;
  staged.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = params[i];
    const std::string index = std::to_string(i);
    const auto dims = view.u64s("model.shape." + index);
    SGNN_CHECK(dims.size() == p.rank(), "parameter rank mismatch");
    for (std::size_t axis = 0; axis < dims.size(); ++axis) {
      SGNN_CHECK(static_cast<std::int64_t>(dims[axis]) == p.dim(axis),
                 "parameter shape mismatch on axis "
                     << axis << ": file has " << dims[axis] << ", model has "
                     << p.dim(axis));
    }
    const std::string& data = view.bytes("model.param." + index);
    const std::size_t expected =
        static_cast<std::size_t>(p.numel()) * sizeof(real);
    SGNN_CHECK(data.size() == expected, "parameter " << i << " holds "
                                                     << data.size()
                                                     << " bytes, model needs "
                                                     << expected);
    staged.push_back(&data);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i].data(), staged[i]->data(), staged[i]->size());
  }
}

void save_model(const EGNNModel& model, const std::string& path) {
  SnapshotBuilder builder;
  builder.add_bytes("meta.kind", "model");
  save_model_sections(builder, model);
  write_snapshot_file(path, builder.payload());
}

std::unique_ptr<EGNNModel> load_model(const std::string& path) {
  const SnapshotView view(read_snapshot_file(path));
  auto model = std::make_unique<EGNNModel>(read_config(view));
  load_model_sections(view, *model);
  return model;
}

void load_parameters_into(EGNNModel& model, const std::string& path) {
  load_model_payload(model, read_snapshot_file(path));
}

std::string model_payload_bytes(const EGNNModel& model) {
  SnapshotBuilder builder;
  save_model_sections(builder, model);
  return builder.payload();
}

void load_model_payload(EGNNModel& model, const std::string& payload) {
  load_model_sections(SnapshotView(payload), model);
}

}  // namespace sgnn
