#include "sgnn/train/halo.hpp"

#include <algorithm>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn::gpar {

HaloExchanger::HaloExchanger(Communicator& comm, int rank,
                             const GraphPartition& partition,
                             const GraphBatch& batch)
    : comm_(comm),
      me_(rank),
      part_(partition),
      mine_(partition.ranks.at(static_cast<std::size_t>(rank))) {
  SGNN_CHECK(comm.num_ranks() == partition.num_ranks,
             "partition built for " << partition.num_ranks
                                    << " ranks, communicator has "
                                    << comm.num_ranks());
  SGNN_CHECK(partition.num_nodes == batch.num_nodes &&
                 partition.num_edges == batch.num_edges,
             "partition does not describe this batch");
  const std::int64_t owned = mine_.num_owned();
  const std::int64_t local_edges = mine_.num_local_edges();

  species_.reserve(static_cast<std::size_t>(owned));
  for (std::int64_t i = mine_.owned_begin; i < mine_.owned_end; ++i) {
    species_.push_back(batch.species[static_cast<std::size_t>(i)]);
  }

  positions_ = Tensor::zeros(Shape{owned, 3});
  std::copy_n(batch.positions.data() + mine_.owned_begin * 3,
              static_cast<std::size_t>(owned * 3), positions_.data());

  Tensor shift = Tensor::zeros(Shape{local_edges, 3});
  std::copy_n(batch.edge_shift.data() + mine_.edge_begin * 3,
              static_cast<std::size_t>(local_edges * 3), shift.data());
  context_ = EGNNLayer::EdgeContext::build(mine_.local_src, mine_.local_dst,
                                           shift, owned, this);
}

HaloExchanger::~HaloExchanger() {
  // A simulated crash can unwind mid-window with gathers still in flight;
  // the progress engine owns the buffers until completion, so drain them
  // here (every rank posted symmetrically before throwing, so these waits
  // complete; failures from a dying communicator are already reported
  // through the primary exception).
  for (PendingGather* pending : {&pending_x_, &pending_h_}) {
    if (pending->open && pending->posted) {
      try {
        pending->handle.wait();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    pending->open = false;
  }
}

void HaloExchanger::record_event(CollectiveKind kind, std::uint64_t bytes,
                                 double post, double wait) {
  InterconnectModel::OverlapEvent event;
  event.kind = kind;
  event.bytes = bytes;
  event.post_seconds = post;
  event.wait_seconds = wait;
  events_.push_back(event);
}

std::vector<InterconnectModel::OverlapEvent> HaloExchanger::take_events() {
  std::vector<InterconnectModel::OverlapEvent> taken;
  taken.swap(events_);
  return taken;
}

void HaloExchanger::count_exchange(std::uint64_t bytes) {
  halo_bytes_ += bytes;
  ++exchanges_;
  if (me_ == 0) {
    // Once per LOGICAL collective (mirrors the Communicator's traffic
    // counters, which the progress engine bumps once per op, not per rank).
    obs::MetricsRegistry::instance()
        .counter("halo.bytes")
        .add(static_cast<std::int64_t>(bytes));
    obs::MetricsRegistry::instance().counter("halo.exchanges").add(1);
  }
}

void HaloExchanger::post_boundary_gather(const real* rows, std::int64_t cols,
                                         PendingGather& pending) {
  SGNN_CHECK(!pending.open, "halo boundary gather already in flight");
  const int num_ranks = part_.num_ranks;
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_ranks));
  std::size_t total = 0;
  for (int r = 0; r < num_ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        part_.ranks[static_cast<std::size_t>(r)].boundary.size() *
        static_cast<std::size_t>(cols);
    total += counts[static_cast<std::size_t>(r)];
  }
  pending.open = true;
  pending.posted = total > 0;
  pending.bytes = total * sizeof(real);
  pending.post_seconds = clock_.seconds();
  if (!pending.posted) return;  // symmetric: counts are global

  pending.piece.resize(mine_.boundary.size() * static_cast<std::size_t>(cols));
  real* out = pending.piece.data();
  for (std::size_t i = 0; i < mine_.boundary.size(); ++i) {
    const std::int64_t local = mine_.boundary[i] - mine_.owned_begin;
    std::copy_n(rows + local * cols, static_cast<std::size_t>(cols),
                out + static_cast<std::int64_t>(i) * cols);
  }
  pending.gathered.resize(total);
  pending.handle =
      comm_.iall_gather_counts(me_, pending.piece, counts, pending.gathered);
  count_exchange(pending.bytes);
}

void HaloExchanger::wait_gather(PendingGather& pending) {
  SGNN_CHECK(pending.open, "halo gather waited before being posted");
  if (pending.posted) {
    pending.handle.wait();
    record_event(CollectiveKind::kAllGather, pending.bytes,
                 pending.post_seconds, clock_.seconds());
  }
  pending.open = false;
}

Tensor HaloExchanger::make_src_select(const Tensor& owned,
                                      const std::vector<real>& ghost,
                                      std::int64_t cols) {
  const Tensor od = owned.detach();
  const std::int64_t owned_rows = mine_.num_owned();
  const std::int64_t edges = mine_.num_local_edges();
  Tensor out = Tensor::make_result(
      Shape{edges, cols}, {owned},
      [this, cols](const Tensor& grad) -> std::vector<Tensor> {
        return {ghost_scatter_grad(grad, cols)};
      },
      "halo_select_src");
  const obs::prof::KernelScope prof(
      "halo_select", 0,
      obs::prof::sat_mul(2 * static_cast<std::int64_t>(sizeof(real)), edges,
                         cols));
  const real* po = od.data();
  const real* pg = ghost.data();
  real* dst = out.data();
  for (std::int64_t e = 0; e < edges; ++e) {
    const std::int64_t src = mine_.local_src[static_cast<std::size_t>(e)];
    const real* row =
        src < owned_rows
            ? po + src * cols
            : pg + mine_.halo_fetch[static_cast<std::size_t>(
                       src - owned_rows)] *
                       cols;
    std::copy_n(row, static_cast<std::size_t>(cols), dst + e * cols);
  }
  return out;
}

Tensor HaloExchanger::select_src_x(const Tensor& x, const Tensor& h) {
  const std::int64_t owned = mine_.num_owned();
  SGNN_CHECK(x.rank() == 2 && x.dim(0) == owned && x.dim(1) == 3,
             "select_src_x expects owned (" << owned << ", 3) coordinates, "
                                            << "got "
                                            << x.shape().to_string());
  SGNN_CHECK(h.rank() == 2 && h.dim(0) == owned,
             "select_src_x expects owned feature rows, got "
                 << h.shape().to_string());
  const obs::prof::ProfRegion region("halo");
  // Post BOTH exchanges up front: x resolves now (the geometry needs it),
  // h keeps flying across the distance/RBF compute and lands in
  // select_src_h — that window is the overlap this module exists for.
  const Tensor xd = x.detach();
  const Tensor hd = h.detach();
  post_boundary_gather(xd.data(), 3, pending_x_);
  post_boundary_gather(hd.data(), h.dim(1), pending_h_);
  if (pre_wait_hook_) pre_wait_hook_();
  wait_gather(pending_x_);
  return make_src_select(x, pending_x_.gathered, 3);
}

Tensor HaloExchanger::select_src_h(const Tensor& h) {
  SGNN_CHECK(pending_h_.open,
             "select_src_h without a preceding select_src_x (the h exchange "
             "is posted there)");
  const obs::prof::ProfRegion region("halo");
  wait_gather(pending_h_);
  return make_src_select(h, pending_h_.gathered, h.dim(1));
}

Tensor HaloExchanger::ghost_scatter_grad(const Tensor& grad,
                                         std::int64_t cols) {
  const obs::prof::ProfRegion region("halo");
  const int num_ranks = part_.num_ranks;
  const std::int64_t owned = mine_.num_owned();
  Tensor out = Tensor::zeros(Shape{owned, cols});

  // Exchange the per-edge gradient rows of every rank's ghost edges. The
  // rows are shipped PER EDGE (not pre-summed per node) precisely so the
  // owner can fold them in global edge order — pre-summing would re-bracket
  // the floating-point accumulation and break bit-identity.
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_ranks));
  std::size_t total = 0;
  for (int r = 0; r < num_ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        part_.ranks[static_cast<std::size_t>(r)].ghost_edges.size() *
        static_cast<std::size_t>(cols);
    total += counts[static_cast<std::size_t>(r)];
  }
  const real* pg = grad.data();
  std::vector<real> gathered(total);
  if (total > 0) {
    std::vector<real> piece(mine_.ghost_edges.size() *
                            static_cast<std::size_t>(cols));
    for (std::size_t i = 0; i < mine_.ghost_edges.size(); ++i) {
      std::copy_n(pg + mine_.ghost_edges[i] * cols,
                  static_cast<std::size_t>(cols),
                  piece.data() + static_cast<std::int64_t>(i) * cols);
    }
    const double post = clock_.seconds();
    CollectiveHandle handle =
        comm_.iall_gather_counts(me_, piece, counts, gathered);
    handle.wait();  // backward needs the rows immediately: fully exposed
    record_event(CollectiveKind::kAllGather, total * sizeof(real), post,
                 post);
    count_exchange(total * sizeof(real));
  }

  // Fold every edge's contribution into its owner row in GLOBAL edge order:
  // rank blocks ascending, slice order within a block. Block me_ uses the
  // local gradient rows directly (same bytes as its gathered copy).
  const obs::prof::KernelScope prof(
      "halo_scatter", 0,
      obs::prof::sat_mul(
          static_cast<std::int64_t>(sizeof(real)),
          obs::prof::sat_add(
              obs::prof::sat_mul(2, mine_.num_local_edges(), cols),
              2 * static_cast<std::int64_t>(total))));
  real* po = out.data();
  std::size_t offset = 0;
  for (int r = 0; r < num_ranks; ++r) {
    if (r == me_) {
      const std::int64_t edges = mine_.num_local_edges();
      for (std::int64_t e = 0; e < edges; ++e) {
        const std::int64_t src = mine_.local_src[static_cast<std::size_t>(e)];
        if (src >= owned) continue;  // ghost: delivered to its owner
        real* dst = po + src * cols;
        const real* row = pg + e * cols;
        for (std::int64_t c = 0; c < cols; ++c) dst[c] += row[c];
      }
    } else {
      const real* block = gathered.data() + offset;
      for (const auto& [pos, target] :
           mine_.inbound[static_cast<std::size_t>(r)]) {
        real* dst = po + target * cols;
        const real* row = block + pos * cols;
        for (std::int64_t c = 0; c < cols; ++c) dst[c] += row[c];
      }
    }
    offset += counts[static_cast<std::size_t>(r)];
  }
  return out;
}

Tensor HaloExchanger::all_gather_rows(const Tensor& owned) {
  const std::int64_t owned_rows = mine_.num_owned();
  SGNN_CHECK(owned.rank() == 2 && owned.dim(0) == owned_rows,
             "all_gather_rows expects this rank's owned rows, got "
                 << owned.shape().to_string());
  const obs::prof::ProfRegion region("halo");
  const std::int64_t cols = owned.dim(1);
  const Tensor od = owned.detach();
  const std::int64_t begin = mine_.owned_begin;
  Tensor out = Tensor::make_result(
      Shape{part_.num_nodes, cols}, {owned},
      [owned_rows, cols, begin](const Tensor& grad) -> std::vector<Tensor> {
        // The readout past this point is replicated, so its gradient is
        // identical on every rank; this rank's share is just its own rows.
        const obs::prof::KernelScope prof(
            "halo_all_gather", 0,
            obs::prof::sat_mul(2 * static_cast<std::int64_t>(sizeof(real)),
                               owned_rows, cols),
            ".bwd");
        Tensor gx = Tensor::zeros(Shape{owned_rows, cols});
        std::copy_n(grad.data() + begin * cols,
                    static_cast<std::size_t>(owned_rows * cols), gx.data());
        return {gx};
      },
      "halo_all_gather");
  if (part_.num_ranks == 1) {
    std::copy_n(od.data(), static_cast<std::size_t>(owned_rows * cols),
                out.data());
    return out;
  }
  std::vector<std::size_t> counts(static_cast<std::size_t>(part_.num_ranks));
  std::size_t total = 0;
  for (int r = 0; r < part_.num_ranks; ++r) {
    counts[static_cast<std::size_t>(r)] =
        static_cast<std::size_t>(
            part_.ranks[static_cast<std::size_t>(r)].num_owned()) *
        static_cast<std::size_t>(cols);
    total += counts[static_cast<std::size_t>(r)];
  }
  std::vector<real> piece(od.data(),
                          od.data() + static_cast<std::size_t>(owned_rows) *
                                          static_cast<std::size_t>(cols));
  std::vector<real> gathered(total);
  const double post = clock_.seconds();
  CollectiveHandle handle =
      comm_.iall_gather_counts(me_, piece, counts, gathered);
  handle.wait();  // the heads need the full tensor now: fully exposed
  record_event(CollectiveKind::kAllGather, total * sizeof(real), post, post);
  count_exchange(total * sizeof(real));
  // Rank-order concatenation of contiguous owned ranges IS global node
  // order — no permutation needed.
  std::copy(gathered.begin(), gathered.end(), out.data());
  return out;
}

Tensor HaloExchanger::ring_fold(std::int64_t rows, std::int64_t cols,
                                const std::function<void(real*)>& fold_own) {
  const obs::prof::ProfRegion region("halo");
  const std::size_t size =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  Tensor out = Tensor::zeros(Shape{rows, cols});
  const int num_ranks = part_.num_ranks;
  if (num_ranks == 1 || size == 0) {
    fold_own(out.data());
    return out;
  }

  // Fold continuation around the ring: op i carries rank i's partial (the
  // fold of ranks 0..i over the zero initial value). Rank r waits op r-1,
  // continues the fold with ITS rows (+= in the single-rank kernel's exact
  // per-element order), posts op r, and everyone reads op R-1 — the full
  // gradient with single-rank bracketing, replicated. Empty pieces for the
  // other ops are posted eagerly, so op i is fully posted as soon as rank i
  // finishes its fold: the chain is deadlock-free by induction.
  const double post = clock_.seconds();
  std::vector<CollectiveHandle> handles(static_cast<std::size_t>(num_ranks));
  std::vector<std::vector<real>> gathered(
      static_cast<std::size_t>(num_ranks));
  const std::vector<real> empty;
  std::vector<real> full;
  for (int i = 0; i < num_ranks; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    std::vector<std::size_t> counts(static_cast<std::size_t>(num_ranks), 0);
    counts[ii] = size;
    gathered[ii].resize(size);
    if (i == me_) {
      if (me_ > 0) {
        handles[ii - 1].wait();
        std::copy(gathered[ii - 1].begin(), gathered[ii - 1].end(),
                  out.data());
      }
      fold_own(out.data());
      full.assign(out.data(), out.data() + size);
      handles[ii] = comm_.iall_gather_counts(me_, full, counts, gathered[ii]);
    } else {
      handles[ii] = comm_.iall_gather_counts(me_, empty, counts,
                                             gathered[ii]);
    }
  }
  const auto last = static_cast<std::size_t>(num_ranks - 1);
  handles[last].wait();
  std::copy(gathered[last].begin(), gathered[last].end(), out.data());
  // Earlier ops executed before the last one (the engine matches posts in
  // order); these waits only release their buffers.
  for (std::size_t i = 0; i < last; ++i) handles[i].wait();
  // One summarized event per ring: R serialized hops of `size` reals. The
  // chain is inherently mostly exposed — only the aggregate split is
  // interesting, not per-hop stamps.
  record_event(CollectiveKind::kAllGather,
               static_cast<std::uint64_t>(num_ranks) * size * sizeof(real),
               post, clock_.seconds());
  count_exchange(static_cast<std::uint64_t>(num_ranks) * size *
                 sizeof(real));
  return out;
}

Tensor HaloExchanger::matmul_weight_grad(const Tensor& a, const Tensor& grad) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = grad.dim(1);
  SGNN_CHECK(grad.dim(0) == m,
             "matmul_weight_grad: " << m << " activation rows vs "
                                    << grad.dim(0) << " gradient rows");
  const Tensor ad = a.detach();
  const Tensor gd = grad.detach();
  return ring_fold(k, n, [m, k, n, ad, gd](real* c) {
    // Continues matmul_at_b's fold over this rank's rows: its accumulate
    // form starts from the partial in c and adds ascending p with one
    // separately rounded mul+add per element, the order the single-rank
    // product uses on either backend.
    const obs::prof::KernelScope prof(
        "halo_ring", obs::prof::sat_mul(2, m, k, n),
        obs::prof::sat_mul(static_cast<std::int64_t>(sizeof(real)),
                           obs::prof::sat_add(obs::prof::sat_mul(m, k),
                                              obs::prof::sat_mul(m, n),
                                              obs::prof::sat_mul(k, n))),
        ".bwd");
    kernels::matmul_at_b(ad.data(), gd.data(), c, m, k, n,
                         /*accumulate=*/true);
  });
}

Tensor HaloExchanger::rows_sum_grad(const Tensor& grad) {
  const std::int64_t m = grad.dim(0);
  const std::int64_t n = grad.dim(1);
  const Tensor gd = grad.detach();
  return ring_fold(1, n, [m, n, gd](real* c) {
    // Continues reduce_to's serial row-major fold over the global rows.
    const obs::prof::KernelScope prof(
        "halo_ring", obs::prof::sat_mul(m, n),
        obs::prof::sat_mul(static_cast<std::int64_t>(sizeof(real)),
                           obs::prof::sat_add(obs::prof::sat_mul(m, n), n)),
        ".bwd");
    const real* pg = gd.data();
    for (std::int64_t i = 0; i < m; ++i) {
      const real* row = pg + i * n;
      for (std::int64_t j = 0; j < n; ++j) c[j] += row[j];
    }
  });
}

Tensor HaloExchanger::scatter_rows_grad(const Tensor& grad,
                                        const std::vector<std::int64_t>& index,
                                        std::int64_t rows, std::int64_t cols) {
  const std::int64_t m = grad.dim(0);
  SGNN_CHECK(static_cast<std::size_t>(m) == index.size(),
             "scatter_rows_grad: " << m << " rows vs " << index.size()
                                   << " indices");
  const Tensor gd = grad.detach();
  return ring_fold(rows, cols, [m, cols, gd, &index](real* c) {
    // Continues scatter_rows_into's per-receiver input-order fold (this
    // rank's ids are a contiguous global-order slice of the input rows).
    const obs::prof::KernelScope prof(
        "halo_ring", 0,
        obs::prof::sat_mul(3 * static_cast<std::int64_t>(sizeof(real)), m,
                           cols),
        ".bwd");
    const real* pg = gd.data();
    for (std::int64_t r = 0; r < m; ++r) {
      real* dst = c + index[static_cast<std::size_t>(r)] * cols;
      const real* row = pg + r * cols;
      for (std::int64_t j = 0; j < cols; ++j) dst[j] += row[j];
    }
  });
}

}  // namespace sgnn::gpar
