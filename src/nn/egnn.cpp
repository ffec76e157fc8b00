#include "sgnn/nn/egnn.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sgnn/tensor/checkpoint.hpp"
#include "sgnn/tensor/grad_reducer.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace {

/// Parameters of an MLP with dims {d0, d1, ..., dk} and biases.
std::int64_t mlp_params(const std::vector<std::int64_t>& dims) {
  std::int64_t count = 0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    count += dims[i] * dims[i + 1] + dims[i + 1];
  }
  return count;
}

}  // namespace

const char* kernel_name(MessagePassingKernel kernel) {
  switch (kernel) {
    case MessagePassingKernel::kEGNN: return "EGNN";
    case MessagePassingKernel::kSchNet: return "SchNet (CFConv)";
    case MessagePassingKernel::kGAT: return "GAT (edge attention)";
  }
  return "?";
}

std::int64_t ModelConfig::parameter_count() const {
  const std::int64_t h = hidden_dim;
  std::int64_t per_layer = 0;
  switch (kernel) {
    case MessagePassingKernel::kEGNN:
      per_layer += mlp_params({2 * h + num_rbf, h, h});  // phi_e
      per_layer += mlp_params({h, h, 1});                // phi_x
      break;
    case MessagePassingKernel::kSchNet:
      per_layer += mlp_params({h, h});                   // phi_v
      per_layer += mlp_params({num_rbf, h, h});          // phi_w
      break;
    case MessagePassingKernel::kGAT:
      per_layer += mlp_params({2 * h + num_rbf, h, 1});  // phi_e (attention)
      per_layer += mlp_params({2 * h + num_rbf, h, h});  // phi_v
      break;
  }
  per_layer += mlp_params({2 * h, h, h});  // phi_h
  std::int64_t head_params = mlp_params({h, h, 1});  // energy head
  if (predict_dipole) head_params += mlp_params({h, h, 1});
  if (force_head == ForceHead::kEquivariantEdge) {
    per_layer += mlp_params({h, h, 1});  // per-layer force gate phi_f
  } else {
    head_params += mlp_params({h, h, 3});  // node-level force MLP
  }
  return num_species * h                  // embedding
         + num_layers * per_layer         // backbone
         + head_params;
}

ModelConfig ModelConfig::for_parameter_budget(std::int64_t target_params,
                                              std::int64_t num_layers) {
  SGNN_CHECK(target_params > 0 && num_layers > 0,
             "parameter budget and depth must be positive");
  ModelConfig config;
  config.num_layers = num_layers;
  // parameter_count is monotone in hidden_dim: binary search the width.
  std::int64_t lo = 1;
  std::int64_t hi = 1;
  for (;;) {
    config.hidden_dim = hi;
    if (config.parameter_count() >= target_params) break;
    hi *= 2;
    SGNN_CHECK(hi < (std::int64_t{1} << 22), "parameter budget out of range");
  }
  while (lo < hi) {
    const std::int64_t mid = (lo + hi) / 2;
    config.hidden_dim = mid;
    if (config.parameter_count() < target_params) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // lo is the smallest width meeting the budget; pick the closer of lo-1/lo.
  config.hidden_dim = lo;
  const std::int64_t over = config.parameter_count() - target_params;
  if (lo > 1) {
    ModelConfig below = config;
    below.hidden_dim = lo - 1;
    const std::int64_t under = target_params - below.parameter_count();
    if (under < over) config.hidden_dim = lo - 1;
  }
  return config;
}

EGNNLayer::EGNNLayer(const ModelConfig& config, Rng& rng)
    : hidden_(config.hidden_dim),
      num_rbf_(config.num_rbf),
      cutoff_(static_cast<real>(config.cutoff)),
      residual_(config.residual),
      coord_scale_(static_cast<real>(config.coord_scale)),
      kernel_(config.kernel) {
  SGNN_CHECK(num_rbf_ > 0, "num_rbf must be positive");
  SGNN_CHECK(cutoff_ > 0, "model cutoff must be positive");
  const std::int64_t h = hidden_;
  switch (kernel_) {
    case MessagePassingKernel::kEGNN:
      phi_e_ = std::make_unique<MLP>(
          std::vector<std::int64_t>{2 * h + num_rbf_, h, h}, rng,
          Activation::kSiLU, Activation::kSiLU);
      phi_x_ = std::make_unique<MLP>(std::vector<std::int64_t>{h, h, 1}, rng,
                                     Activation::kSiLU, Activation::kTanh);
      register_module(*phi_e_);
      register_module(*phi_x_);
      break;
    case MessagePassingKernel::kSchNet:
      phi_v_ = std::make_unique<MLP>(std::vector<std::int64_t>{h, h}, rng,
                                     Activation::kSiLU, Activation::kNone);
      phi_w_ = std::make_unique<MLP>(
          std::vector<std::int64_t>{num_rbf_, h, h}, rng, Activation::kSiLU,
          Activation::kNone);
      register_module(*phi_v_);
      register_module(*phi_w_);
      break;
    case MessagePassingKernel::kGAT:
      phi_e_ = std::make_unique<MLP>(
          std::vector<std::int64_t>{2 * h + num_rbf_, h, 1}, rng,
          Activation::kSiLU, Activation::kNone);
      phi_v_ = std::make_unique<MLP>(
          std::vector<std::int64_t>{2 * h + num_rbf_, h, h}, rng,
          Activation::kSiLU, Activation::kSiLU);
      register_module(*phi_e_);
      register_module(*phi_v_);
      break;
  }
  phi_h_ = std::make_unique<MLP>(std::vector<std::int64_t>{2 * h, h, h}, rng,
                                 Activation::kSiLU, Activation::kNone);
  register_module(*phi_h_);
  if (config.force_head == ForceHead::kEquivariantEdge) {
    phi_f_ = std::make_unique<MLP>(std::vector<std::int64_t>{h, h, 1}, rng,
                                   Activation::kSiLU, Activation::kNone);
    register_module(*phi_f_);
  }
}

EGNNLayer::EdgeContext EGNNLayer::EdgeContext::build(
    const std::vector<std::int64_t>& src, const std::vector<std::int64_t>& dst,
    Tensor edge_shift, std::int64_t num_nodes, GraphParallelHook* halo) {
  EdgeContext context;
  context.edge_src = &src;
  context.edge_dst = &dst;
  context.edge_shift = std::move(edge_shift);
  context.num_nodes = num_nodes;
  context.halo = halo;
  const ScopedMemCategory scope(MemCategory::kWorkspace);
  context.inv_degree = Tensor::zeros(Shape{num_nodes, 1});
  real* d = context.inv_degree.data();
  for (const auto i : dst) d[i] += 1;
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    d[i] = real{1} / std::max(d[i], real{1});
  }
  return context;
}

Tensor EGNNLayer::forward(const Tensor& state,
                          const EdgeContext& context) const {
  const std::int64_t n = context.num_nodes;
  SGNN_CHECK(state.rank() == 2 && state.dim(0) == n &&
                 state.dim(1) == hidden_ + 6,
             "EGNN layer state must be (" << n << ", " << hidden_ + 6
                                          << "), got "
                                          << state.shape().to_string());
  const Tensor h = narrow(state, 1, 0, hidden_);
  const Tensor x = narrow(state, 1, hidden_, 3);
  const Tensor force_acc = narrow(state, 1, hidden_ + 3, 3);

  // Relative geometry per directed edge (dst receives from src). Under
  // graph parallelism the src side may live on another rank: the hook
  // posts the boundary exchange for x AND h here, delivers x, and lets h
  // overlap the distance/RBF compute below (collected at h_src).
  const Tensor x_dst = index_select_rows(x, *context.edge_dst);
  const Tensor x_src = context.halo != nullptr
                           ? context.halo->select_src_x(x, h)
                           : index_select_rows(x, *context.edge_src);
  const Tensor rel = (x_dst - x_src) + context.edge_shift;  // x_i - x_j + S
  const Tensor dist_sq = row_norm_squared(rel);             // (E, 1)
  const Tensor dist = sqrt_op(dist_sq + real{1e-12});       // (E, 1)

  // Gaussian radial basis over [0, cutoff]: the invariant edge features.
  std::vector<Tensor> rbf;
  rbf.reserve(static_cast<std::size_t>(num_rbf_));
  const real gamma =
      static_cast<real>(num_rbf_ * num_rbf_) / (cutoff_ * cutoff_);
  for (std::int64_t k = 0; k < num_rbf_; ++k) {
    const real mu = cutoff_ * static_cast<real>(k) /
                    static_cast<real>(num_rbf_ - 1 > 0 ? num_rbf_ - 1 : 1);
    rbf.push_back(exp_op(square(dist - mu) * (-gamma)));
  }

  // Per-edge messages, kernel-dependent. All kernels consume only
  // invariant pair features, so the model's symmetry properties are
  // kernel-independent.
  const Tensor h_dst = index_select_rows(h, *context.edge_dst);
  const Tensor h_src = context.halo != nullptr
                           ? context.halo->select_src_h(h)
                           : index_select_rows(h, *context.edge_src);
  const Tensor rbf_features = concat(rbf, 1);  // (E, K)

  Tensor message;     // (E, hidden)
  Tensor aggregated;  // (N, hidden)
  Tensor x_new = x;
  switch (kernel_) {
    case MessagePassingKernel::kEGNN: {
      message = phi_e_->forward(concat({h_dst, h_src, rbf_features}, 1));
      aggregated = scatter_add_rows(message, *context.edge_dst, n) *
                   context.inv_degree;
      // Equivariant coordinate update (EGNN's signature move).
      const Tensor coord_gate = phi_x_->forward(message);  // (E, 1)
      const Tensor dx =
          scatter_add_rows(rel * coord_gate, *context.edge_dst, n) *
          context.inv_degree * coord_scale_;
      x_new = x + dx;
      break;
    }
    case MessagePassingKernel::kSchNet: {
      // Continuous-filter convolution: value of the sender modulated by a
      // learned function of the distance.
      message = phi_v_->forward(h_src) * phi_w_->forward(rbf_features);
      aggregated = scatter_add_rows(message, *context.edge_dst, n) *
                   context.inv_degree;
      break;
    }
    case MessagePassingKernel::kGAT: {
      const Tensor pair = concat({h_dst, h_src, rbf_features}, 1);
      // Bounded logits (cf. GraphTransformer) -> per-receiver softmax.
      const Tensor logits = tanh_op(phi_e_->forward(pair)) * real{5};
      const Tensor weights = exp_op(logits);
      const Tensor denom = scatter_add_rows(weights, *context.edge_dst, n);
      const Tensor attention =
          weights / index_select_rows(denom, *context.edge_dst);
      message = phi_v_->forward(pair) * attention;
      // Attention already normalizes; plain sum aggregation.
      aggregated = scatter_add_rows(message, *context.edge_dst, n);
      break;
    }
  }

  // Node update (residual as in Satorras et al.).
  Tensor h_new = phi_h_->forward(concat({h, aggregated}, 1));
  if (residual_) h_new = h + h_new;

  // Equivariant per-edge force decomposition: invariant gate phi_F(m_ij)
  // along the unit bond vector, summed over neighbors (pairwise force
  // fields have exactly this form, so magnitudes are unconstrained). With
  // the node-MLP head the accumulator simply passes through.
  Tensor force_new = force_acc;
  if (phi_f_) {
    const Tensor unit = rel / dist;
    const Tensor edge_force = unit * phi_f_->forward(message);
    force_new = force_acc + scatter_add_rows(edge_force, *context.edge_dst, n);
  }

  return concat({h_new, x_new, force_new}, 1);
}

EGNNModel::EGNNModel(const ModelConfig& config) : config_(config) {
  SGNN_CHECK(config.hidden_dim > 0, "hidden_dim must be positive");
  SGNN_CHECK(config.num_layers > 0, "num_layers must be positive");
  Rng rng(config.seed);
  embedding_ = std::make_unique<Embedding>(config.num_species,
                                           config.hidden_dim, rng);
  register_module(*embedding_);
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<EGNNLayer>(config, rng));
    register_module(*layers_.back());
  }
  energy_head_ = std::make_unique<MLP>(
      std::vector<std::int64_t>{config.hidden_dim, config.hidden_dim, 1}, rng,
      Activation::kSiLU, Activation::kNone);
  register_module(*energy_head_);
  if (config.force_head == ForceHead::kNodeMLP) {
    force_head_ = std::make_unique<MLP>(
        std::vector<std::int64_t>{config.hidden_dim, config.hidden_dim, 3},
        rng, Activation::kSiLU, Activation::kNone);
    register_module(*force_head_);
  }
  if (config.predict_dipole) {
    dipole_head_ = std::make_unique<MLP>(
        std::vector<std::int64_t>{config.hidden_dim, config.hidden_dim, 1},
        rng, Activation::kSiLU, Activation::kNone);
    register_module(*dipole_head_);
  }
}

EGNNModel::Output EGNNModel::forward(const GraphBatch& batch,
                                     const ForwardOptions& options) const {
  SGNN_CHECK(batch.num_nodes > 0, "forward on empty batch");
  // Each rank vets its own shard (without a hook, the whole batch): the owned
  // ranges cover the batch, so these checks add up to the whole-batch one.
  GraphParallelHook* const hook = options.graph_parallel;
  const std::vector<int>& species =
      hook != nullptr ? hook->owned_species() : batch.species;
  for (const auto z : species) {
    SGNN_CHECK(z >= 0 && z < config_.num_species,
               "species " << z << " outside model vocabulary ["
                          << config_.num_species << ")");
  }
  // Edge context shared by all layers (constant w.r.t. autograd).
  const EGNNLayer::EdgeContext context =
      hook != nullptr
          ? hook->edge_context()
          : EGNNLayer::EdgeContext::build(batch.edge_src, batch.edge_dst,
                                          batch.edge_shift, batch.num_nodes);
  SGNN_CHECK(context.halo == hook,
             "graph-parallel hook edge context is inconsistent");
  const auto replicate = [hook](const Tensor& owned) {
    return hook != nullptr ? hook->all_gather_rows(owned) : owned;
  };

  // Backbone. Under graph parallelism the reducer stays armed across it so
  // every leaf parameter gradient recorded here (embedding scatter, weight
  // and bias folds inside the MLPs) is continued rank to rank instead of
  // computed from local rows only — that is what keeps parameter gradients
  // replicated AND bit-identical to the single-rank fold. Without a hook
  // the reducer is null and arming it changes nothing.
  Tensor h_final;
  Tensor force_acc;
  ShardedGradReducer* const reducer =
      hook != nullptr ? hook->reducer() : nullptr;
  {
    const ScopedShardedGradReducer armed(reducer);
    // Initial state: [species embedding | positions | zero force accumulator].
    const Tensor h0 = embedding_->forward(species);
    Tensor state = concat(
        {h0, hook != nullptr ? hook->owned_positions() : batch.positions,
         Tensor::zeros(Shape{context.num_nodes, 3})},
        1);
    for (const auto& layer : layers_) {
      if (options.activation_checkpointing) {
        const EGNNLayer* raw = layer.get();
        // Recompute-on-backward runs outside the forward's arming scope,
        // so the closure re-arms the reducer itself: the ops re-recorded
        // during recompute must capture it exactly like the originals.
        state = checkpoint(
            [raw, context, reducer](const std::vector<Tensor>& in) {
              const ScopedShardedGradReducer rearmed(reducer);
              return raw->forward(in[0], context);
            },
            {state});
      } else {
        state = layer->forward(state, context);
      }
    }
    h_final = narrow(state, 1, 0, config_.hidden_dim);
    if (config_.force_head == ForceHead::kEquivariantEdge) {
      force_acc = narrow(state, 1, config_.hidden_dim + 3, 3);
    }
  }

  // Replicated readout: gather the final node features (and the force
  // accumulator) to every rank, then run the heads on FULL tensors with
  // the reducer disarmed — head activations are replicated, so their
  // parameter gradients are already the single-rank fold.
  const Tensor h_full = replicate(h_final);
  const Tensor forces = config_.force_head == ForceHead::kNodeMLP
                            ? force_head_->forward(h_full)
                            : replicate(force_acc);

  // Over-smoothing metric: variance of node features across nodes.
  {
    const autograd::NoGradGuard no_grad;
    const Tensor centered = h_full - mean(h_full, 0, true);
    last_feature_spread_ = mean(square(centered)).item();
  }

  // Graph-level energy: per-node contributions summed per graph (extensive
  // quantity, HydraGNN's graph-level head).
  const Tensor node_energy = energy_head_->forward(h_full);
  Output out;
  out.energy =
      scatter_add_rows(node_energy, batch.node_to_graph, batch.num_graphs);
  out.forces = forces;
  if (dipole_head_) {
    // Dipole magnitude is non-negative: softplus keeps the head in range.
    const Tensor node_dipole = softplus(dipole_head_->forward(h_full));
    out.dipole = scatter_add_rows(node_dipole, batch.node_to_graph,
                                  batch.num_graphs);
  }
  return out;
}

}  // namespace sgnn
