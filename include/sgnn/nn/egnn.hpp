#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/layers.hpp"
#include "sgnn/nn/module.hpp"

namespace sgnn {

/// Interaction kernel of a message-passing layer. HydraGNN's "flexible
/// message passing neural network layers" (Sec. II-B) support multiple
/// kernels behind one model; the paper's experiments use the EGNN kernel,
/// the others are provided for the kernel ablation
/// (bench/ablation_kernels).
enum class MessagePassingKernel : int {
  kEGNN = 0,    ///< Satorras et al. equivariant messages + coordinate update
  kSchNet = 1,  ///< continuous-filter convolution: phi_v(h_j) * W(rbf)
  kGAT = 2,     ///< distance-aware attention over radius-graph edges
};

const char* kernel_name(MessagePassingKernel kernel);

/// How node-level forces are produced.
enum class ForceHead : int {
  /// Equivariant per-edge decomposition F_i = sum_j unit_ij * phi_F(m_ij)
  /// (this repo's default; exactly E(3)-equivariant).
  kEquivariantEdge = 0,
  /// HydraGNN-faithful node-level head: F_i = MLP(h_i) on the final node
  /// features — the paper's "node-level property prediction" head. NOT
  /// equivariant (invariant features cannot produce covariant vectors),
  /// and fully exposed to over-smoothing of h, which is what makes the
  /// paper's Fig. 5 depth degradation visible.
  kNodeMLP = 1,
};

/// Architecture hyperparameters of the EGNN backbone + HydraGNN-style
/// heads. The scaling experiments vary only `hidden_dim` (width) and
/// `num_layers` (depth), exactly as Sec. III-B of the paper prescribes.
struct ModelConfig {
  std::int64_t hidden_dim = 64;   ///< neurons per layer ("width")
  std::int64_t num_layers = 3;    ///< message-passing steps ("depth")
  /// Species vocabulary (atomic-number upper bound).
  std::int64_t num_species = 96;
  /// Gaussian radial-basis expansion of edge lengths fed to phi_e (the
  /// standard edge featurization of ML interatomic potentials).
  std::int64_t num_rbf = 8;
  /// Interaction cutoff the radial basis spans; must match the radius used
  /// to build the graphs.
  double cutoff = 3.5;
  /// Residual node update h' = h + phi_h(...). Turning it off makes the
  /// over-smoothing collapse (Fig. 5) more pronounced.
  bool residual = true;
  /// Step size of the equivariant coordinate update.
  double coord_scale = 0.1;
  /// Interaction kernel (paper: kEGNN).
  MessagePassingKernel kernel = MessagePassingKernel::kEGNN;
  /// Force head (paper: kNodeMLP via HydraGNN; default here is the
  /// equivariant extension).
  ForceHead force_head = ForceHead::kEquivariantEdge;
  /// Adds a third, graph-level head predicting the dipole-moment magnitude
  /// (HydraGNN-style multi-task learning; see bench/ablation_multitask).
  bool predict_dipole = false;
  std::uint64_t seed = 0xE6AA;    ///< parameter-init seed

  /// Total parameter count of a model with this config (closed form,
  /// verified against Module::num_parameters in tests).
  std::int64_t parameter_count() const;

  /// Finds the hidden_dim whose parameter_count is closest to `target`
  /// at fixed depth — how the sweeps hit "0.1M / 1M / ... params".
  static ModelConfig for_parameter_budget(std::int64_t target_params,
                                          std::int64_t num_layers);
};

class GraphParallelHook;
class ShardedGradReducer;

/// One E(n)-equivariant message-passing layer (Satorras et al., ICML'21):
///   m_ij   = phi_e(h_i, h_j, rbf(|x_i - x_j|))
///   x_i'   = x_i + (1/deg_i) * sum_j (x_i - x_j) * phi_x(m_ij)
///   h_i'   = h_i + phi_h(h_i, (1/deg_i) * sum_j m_ij)
/// plus an equivariant per-edge force decomposition
///   F_i'   = F_i + sum_j unit(x_i - x_j) * phi_F(m_ij)
/// feeding the node-level force head: the gate phi_F is invariant and the
/// unit bond vector is equivariant, so predicted forces transform exactly
/// like coordinates (verified by the equivariance property tests).
class EGNNLayer : public Module {
 public:
  EGNNLayer(const ModelConfig& config, Rng& rng);

  /// Static per-batch edge context (no autograd participation). Under graph
  /// parallelism (sgnn::gpar) the arrays are LOCAL: num_nodes counts this
  /// rank's owned nodes, edge_* span its edge slice, and `halo` supplies
  /// the ghost rows that edge_src values >= num_nodes refer to.
  struct EdgeContext {
    const std::vector<std::int64_t>* edge_src = nullptr;
    const std::vector<std::int64_t>* edge_dst = nullptr;
    Tensor edge_shift;    ///< (E, 3)
    Tensor inv_degree;    ///< (N, 1), 1/max(deg, 1)
    std::int64_t num_nodes = 0;
    /// Non-null when this context describes one rank's partition: the layer
    /// sources src-side rows through the hook (which exchanges boundary
    /// rows with the other ranks) instead of a local gather.
    GraphParallelHook* halo = nullptr;

    /// The one builder: `src`/`dst` must outlive the context. Counts
    /// 1/max(deg, 1) from `dst`, exact for a rank's owned nodes too (all
    /// their in-edges lie in its slice).
    static EdgeContext build(const std::vector<std::int64_t>& src,
                             const std::vector<std::int64_t>& dst,
                             Tensor edge_shift, std::int64_t num_nodes,
                             GraphParallelHook* halo = nullptr);
  };

  /// `state` packs [h | x | F] as (N, hidden + 6); returns the new state.
  Tensor forward(const Tensor& state, const EdgeContext& context) const;

 private:
  std::int64_t hidden_;
  std::int64_t num_rbf_;
  real cutoff_;
  bool residual_;
  real coord_scale_;
  MessagePassingKernel kernel_;
  std::unique_ptr<MLP> phi_e_;  ///< message MLP (EGNN) / attention (GAT)
  std::unique_ptr<MLP> phi_x_;  ///< coordinate gate (EGNN only)
  std::unique_ptr<MLP> phi_h_;  ///< node update
  std::unique_ptr<MLP> phi_f_;  ///< per-edge force gate
  std::unique_ptr<MLP> phi_v_;  ///< value transform (SchNet/GAT)
  std::unique_ptr<MLP> phi_w_;  ///< filter generator (SchNet)
};

/// What EGNNModel::forward takes from the partition / communication layer
/// to run on one rank's shard (implemented by sgnn::gpar::HaloExchanger,
/// which lives in the train module — this interface keeps nn free of comm).
/// The forward body is the same with or without a hook; the hook supplies
/// the shard (owned inputs and local edge context), the src-side rows,
/// the readout's replication and the parameter-gradient reducer.
///
/// The contract every method shares: inputs are this rank's OWNED node rows
/// (global order restricted to the owned range), and anything returned is
/// bit-identical to what the unpartitioned forward would have produced for
/// the same rows — see docs/graph-parallelism.md for the argument.
class GraphParallelHook {
 public:
  virtual ~GraphParallelHook() = default;

  /// Inputs of this rank's shard (edge_context().num_nodes rows).
  virtual const std::vector<int>& owned_species() const = 0;
  virtual const Tensor& owned_positions() const = 0;
  /// Local edge context (edge_src/edge_dst in local ids, halo == this).
  virtual const EGNNLayer::EdgeContext& edge_context() const = 0;

  /// Per-edge src-side coordinate rows (E_local, 3). Posts the boundary
  /// exchange for BOTH x and h, waits only for x; the h rows keep flying
  /// while the layer computes distances and radial features, and
  /// select_src_h collects them (that compute window is what hides the
  /// halo latency).
  virtual Tensor select_src_x(const Tensor& x, const Tensor& h) = 0;
  /// Per-edge src-side feature rows (E_local, hidden); waits the h
  /// exchange posted by the preceding select_src_x.
  virtual Tensor select_src_h(const Tensor& h) = 0;

  /// Replicates a sharded per-node tensor: rank-order all-gather of owned
  /// rows = the full (num_nodes, cols) tensor in global node order. Its
  /// backward slices the rank's own rows back out (no communication).
  virtual Tensor all_gather_rows(const Tensor& owned) = 0;

  /// Fold-continuation reducer armed around the sharded backbone so leaf
  /// parameter gradients come out replicated and bit-exact.
  virtual ShardedGradReducer* reducer() = 0;
};

/// The full model: species embedding, EGNN backbone, and the two HydraGNN
/// output heads (graph-level energy, node-level forces).
class EGNNModel : public Module {
 public:
  explicit EGNNModel(const ModelConfig& config);

  struct Output {
    Tensor energy;  ///< (G, 1)
    Tensor forces;  ///< (N, 3)
    Tensor dipole;  ///< (G, 1); undefined unless config.predict_dipole
  };

  struct ForwardOptions {
    /// Wrap each EGNN layer in an activation checkpoint (Sec. V-B).
    bool activation_checkpointing = false;
    /// Non-null runs the same forward on this rank's shard: the backbone
    /// processes only the owned nodes (ghost rows via the hook's halo
    /// exchange, parameter gradients folded by its reducer), and the
    /// readout replicates the final node features so energies/forces/loss
    /// come out FULL and bit-identical to the unpartitioned forward on
    /// every rank. Null: the whole batch, replication is the identity.
    GraphParallelHook* graph_parallel = nullptr;
  };

  Output forward(const GraphBatch& batch) const {
    return forward(batch, ForwardOptions{});
  }
  Output forward(const GraphBatch& batch, const ForwardOptions& options) const;

  const ModelConfig& config() const { return config_; }

  /// Mean node-feature variance after the backbone — the over-smoothing
  /// metric reported by the depth/width bench (collapses toward 0 as
  /// depth grows past the useful range).
  double last_feature_spread() const { return last_feature_spread_; }

 private:
  ModelConfig config_;
  std::unique_ptr<Embedding> embedding_;
  std::vector<std::unique_ptr<EGNNLayer>> layers_;
  std::unique_ptr<MLP> energy_head_;
  std::unique_ptr<MLP> force_head_;   ///< only for ForceHead::kNodeMLP
  std::unique_ptr<MLP> dipole_head_;  ///< only when predict_dipole
  mutable double last_feature_spread_ = 0.0;
};

}  // namespace sgnn
