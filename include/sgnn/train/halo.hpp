#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sgnn/comm/communicator.hpp"
#include "sgnn/graph/partition.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/tensor/grad_reducer.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn::gpar {

/// One rank's halo-exchange engine for a graph-parallel training step: the
/// GraphParallelHook the EGNN forward sources ghost rows through, and the
/// ShardedGradReducer its backward folds replicated parameter gradients
/// with. One instance per rank per step; it must outlive the step's
/// backward pass (its buffers belong to in-flight collectives).
///
/// Every exchange is built from Communicator::iall_gather_counts with
/// globally identical counts, so the SPMD post sequence is symmetric by
/// construction — no rank ever branches a collective on its own row counts
/// (the classic graph-parallel deadlock; see docs/graph-parallelism.md).
///
/// Bit-identity contract (the partition-parity test wall enforces it):
/// * forward ghost rows are byte copies of the owner's rows;
/// * the ghost-gradient reduction folds per-edge gradient rows into each
///   owner row in GLOBAL edge order (rank-ascending blocks, slice order
///   within a block) — the exact order the unpartitioned scatter uses;
/// * parameter gradients are fold continuations rank to rank (never
///   partial-sum reductions, which would re-bracket the floating sums).
class HaloExchanger final : public GraphParallelHook,
                            public ShardedGradReducer {
 public:
  /// Slices rank `rank`'s shard out of `batch` under `partition`. Both
  /// references (plus the communicator) must outlive the exchanger.
  HaloExchanger(Communicator& comm, int rank, const GraphPartition& partition,
                const GraphBatch& batch);
  /// Waits any still-pending exchange so the progress engine never touches
  /// freed buffers — what makes a simulated crash INSIDE the halo window
  /// (ckpt fault injection) unwind safely.
  ~HaloExchanger() override;
  HaloExchanger(const HaloExchanger&) = delete;
  HaloExchanger& operator=(const HaloExchanger&) = delete;

  // -- GraphParallelHook ----------------------------------------------------
  const std::vector<int>& owned_species() const override { return species_; }
  const Tensor& owned_positions() const override { return positions_; }
  const EGNNLayer::EdgeContext& edge_context() const override {
    return context_;
  }
  Tensor select_src_x(const Tensor& x, const Tensor& h) override;
  Tensor select_src_h(const Tensor& h) override;
  Tensor all_gather_rows(const Tensor& owned) override;
  ShardedGradReducer* reducer() override { return this; }

  // -- ShardedGradReducer ---------------------------------------------------
  Tensor matmul_weight_grad(const Tensor& a, const Tensor& grad) override;
  Tensor rows_sum_grad(const Tensor& grad) override;
  Tensor scatter_rows_grad(const Tensor& grad,
                           const std::vector<std::int64_t>& index,
                           std::int64_t rows, std::int64_t cols) override;

  // -- Instrumentation ------------------------------------------------------
  /// Fault-injection hook, fired after the boundary gathers are posted and
  /// before the first wait — inside the halo-exchange window.
  void set_pre_wait_hook(std::function<void()> hook) {
    pre_wait_hook_ = std::move(hook);
  }
  /// Payload bytes moved by halo exchanges so far (boundary gathers, ghost
  /// gradients, readout replication, ring folds; counted per logical op).
  std::uint64_t halo_bytes() const { return halo_bytes_; }
  /// Logical halo collectives posted so far.
  std::int64_t exchanges() const { return exchanges_; }
  /// Post/wait-stamped events for InterconnectModel::overlap_cost — how
  /// much of the halo traffic the RBF compute window actually hid. Clears
  /// the internal list.
  std::vector<InterconnectModel::OverlapEvent> take_events();

 private:
  /// A posted boundary gather whose wait is deferred (the overlap window).
  struct PendingGather {
    std::vector<real> piece;     ///< this rank's boundary rows, packed
    std::vector<real> gathered;  ///< rank-order concat of all boundaries
    CollectiveHandle handle;
    std::uint64_t bytes = 0;
    double post_seconds = 0;
    bool posted = false;  ///< false when the global boundary is empty
    bool open = false;    ///< true between post and wait
  };

  /// Packs this rank's boundary rows of `rows` and posts the gather.
  void post_boundary_gather(const real* rows, std::int64_t cols,
                            PendingGather& pending);
  /// Waits `pending` and records its overlap event.
  void wait_gather(PendingGather& pending);
  /// Builds the (E_local, cols) src-side gather of `owned` (detached
  /// values) + the waited ghost rows, with the ghost-gradient backward.
  Tensor make_src_select(const Tensor& owned, const std::vector<real>& ghost,
                         std::int64_t cols);
  /// Backward of make_src_select: exchanges ghost per-edge gradient rows
  /// and folds them into owner rows in global edge order.
  Tensor ghost_scatter_grad(const Tensor& grad, std::int64_t cols);
  /// Rank-to-rank fold continuation: `fold_own` adds this rank's rows into
  /// the carried partial (exact single-rank bracketing); the result of the
  /// last rank is replicated everywhere.
  Tensor ring_fold(std::int64_t rows, std::int64_t cols,
                   const std::function<void(real*)>& fold_own);
  void record_event(CollectiveKind kind, std::uint64_t bytes, double post,
                    double wait);
  /// Adds to the halo byte/exchange counters and obs metrics — once per
  /// LOGICAL collective, so only rank 0 of each op accounts it.
  void count_exchange(std::uint64_t bytes);

  Communicator& comm_;
  const int me_;
  const GraphPartition& part_;
  const RankPartition& mine_;

  std::vector<int> species_;  ///< owned species, global order
  Tensor positions_;          ///< (n_own, 3) owned positions
  EGNNLayer::EdgeContext context_;

  PendingGather pending_x_;
  PendingGather pending_h_;

  WallTimer clock_;  ///< step-relative stamps for overlap events
  std::vector<InterconnectModel::OverlapEvent> events_;
  std::uint64_t halo_bytes_ = 0;
  std::int64_t exchanges_ = 0;
  std::function<void()> pre_wait_hook_;
};

}  // namespace sgnn::gpar
