#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sgnn/graph/batch.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn::gpar {

/// One rank's share of a spatially partitioned GraphBatch.
///
/// Ownership is by contiguous global node ranges (spatial locality comes
/// from the atom order — see spatial_order below), and because every
/// neighbor search returns edges in canonical (dst, src) order, the edges
/// owned by a rank (those whose dst it owns) form a CONTIGUOUS slice of the
/// global edge list, and the global list is exactly the rank-order
/// concatenation of the per-rank slices. That is the property every
/// bit-identity argument in docs/graph-parallelism.md leans on.
///
/// Local node ids: owned nodes map to [0, num_owned()) by subtracting
/// owned_begin; ghost (halo) nodes map to num_owned() + (index in `halo`).
struct RankPartition {
  std::int64_t owned_begin = 0;  ///< global node range [begin, end)
  std::int64_t owned_end = 0;

  /// Sorted global ids of ghost nodes: the exact one-hop boundary set —
  /// non-owned sources of edges whose destination this rank owns.
  std::vector<std::int64_t> halo;

  std::int64_t edge_begin = 0;  ///< global edge slice [begin, end)
  std::int64_t edge_end = 0;

  /// Local-id endpoints of the edge slice: dst in [0, num_owned()), src in
  /// [0, num_owned() + halo.size()).
  std::vector<std::int64_t> local_src;
  std::vector<std::int64_t> local_dst;

  /// Sorted owned global ids some other rank's halo needs; each exchange
  /// posts exactly these rows.
  std::vector<std::int64_t> boundary;

  /// For halo entry k: its row in the rank-order concatenation of all
  /// ranks' boundary lists (what iall_gather_counts delivers).
  std::vector<std::int64_t> halo_fetch;

  /// Local edge indices whose src is a ghost, ascending — the rows this
  /// rank posts during the backward ghost-gradient exchange.
  std::vector<std::int64_t> ghost_edges;

  /// inbound[r]: merge schedule of rank r's ghost-gradient block into this
  /// rank's owned gradient — (position in r's ghost block, owned-local
  /// target row), ascending by position so the fold continues r's local
  /// edge order.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> inbound;

  std::int64_t num_owned() const { return owned_end - owned_begin; }
  std::int64_t num_local_edges() const { return edge_end - edge_begin; }
};

/// Deterministic spatial partition of a GraphBatch across `num_ranks`
/// simulated ranks. Pure shape/index arithmetic — the same partition is
/// computed on every rank (and on every thread count).
struct GraphPartition {
  int num_ranks = 1;
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  std::vector<RankPartition> ranks;

  /// Builds the partition and checks its invariants (every node owned
  /// exactly once, halo = exact one-hop boundary, edge slices cover the
  /// batch). Empty batches and ranks with zero owned nodes are valid.
  static GraphPartition build(const GraphBatch& batch, int num_ranks);

  /// Balanced contiguous range of `n` nodes owned by `rank` (first n % R
  /// ranks get the extra node). Pure index arithmetic, shared with the
  /// Communicator's shard_range philosophy but over NODES, not bytes.
  static std::pair<std::int64_t, std::int64_t> owned_range(std::int64_t n,
                                                           int rank,
                                                           int num_ranks) {
    const std::int64_t base = n / num_ranks;
    const std::int64_t rem = n % num_ranks;
    const std::int64_t begin = rank * base + std::min<std::int64_t>(rank, rem);
    return {begin, begin + base + (rank < rem ? 1 : 0)};
  }

  /// Owner of a global node id under owned_range (closed form).
  int owner(std::int64_t node) const {
    SGNN_CHECK(node >= 0 && node < num_nodes,
               "owner(" << node << ") out of range [0, " << num_nodes << ")");
    const std::int64_t base = num_nodes / num_ranks;
    const std::int64_t rem = num_nodes % num_ranks;
    // First `rem` ranks own base + 1 nodes, the rest own base.
    const std::int64_t split = rem * (base + 1);
    if (node < split) return static_cast<int>(node / (base + 1));
    if (base == 0) return num_ranks - 1;  // n < R: trailing ranks own nothing
    return static_cast<int>(rem + (node - split) / base);
  }
};

/// Deterministic spatial ordering of a structure's atoms: sorted along the
/// longest bounding-box axis (ties: next-longest axes, then original
/// index), so contiguous id ranges are spatial slabs and halos stay thin.
/// Safe for degenerate geometry — zero-extent axes (planar slabs, wires,
/// all atoms coincident) contribute only tie-breaking.
std::vector<std::int64_t> spatial_order(const AtomicStructure& structure);

}  // namespace sgnn::gpar
