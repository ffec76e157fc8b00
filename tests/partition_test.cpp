// The partition-parity test wall for graph parallelism (sgnn::gpar):
// structural invariants of the spatial partitioner (every node owned exactly
// once, halo = the exact one-hop boundary set, degenerate graphs survive,
// deterministic under concurrency) and the headline bit-identity contract —
// partitioned forward energies, forces, gradients, and post-step parameters
// are EXPECT_EQ-identical to the unpartitioned single-rank path for 1, 2,
// and 4 ranks, with and without activation checkpointing. EXPECT_EQ on raw
// vectors — not EXPECT_NEAR — is the point: partitioning is a placement
// change, never a numerics change. Runs with SGNN_NUM_THREADS=4 (see
// tests/CMakeLists.txt) so the intra-op pool races the halo exchanges under
// TSan.

#include "sgnn/graph/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>
#include <span>

#include "sgnn/data/dataset.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/graph/graph.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/train/distributed.hpp"
#include "sgnn/train/halo.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/train/zero.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

/// The parameters' values, flat in registration order: their arena's value
/// buffer (a list an optimizer already packed is adopted, not copied).
std::vector<real> flat_values(const std::vector<Tensor>& parameters) {
  const std::span<real> values = ParamArena(parameters).values();
  return {values.begin(), values.end()};
}

/// The parameters' gradients, flat in registration order (zeros where
/// backward produced none): their arena's gradient buffer.
std::vector<real> flat_grads(const std::vector<Tensor>& parameters) {
  const std::span<real> grads = ParamArena(parameters).grads();
  return {grads.begin(), grads.end()};
}


const AggregatedDataset& tiny_dataset() {
  static const AggregatedDataset dataset = [] {
    DatasetOptions options;
    options.target_bytes = 700 << 10;
    options.seed = 31;
    static const ReferencePotential potential;
    return AggregatedDataset::generate(options, potential);
  }();
  return dataset;
}

std::unique_ptr<DDStore> make_store(int ranks) {
  auto store = std::make_unique<DDStore>(ranks);
  store->insert(tiny_dataset().graphs());
  return store;
}

template <typename Body>
void run_ranks(int num_ranks, Body body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < num_ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
}

AtomicStructure random_cluster(std::int64_t atoms, double box, Rng& rng) {
  AtomicStructure s;
  const int palette[] = {elements::kH, elements::kC, elements::kN,
                         elements::kO, elements::kCu};
  for (std::int64_t i = 0; i < atoms; ++i) {
    s.species.push_back(palette[rng.uniform_index(5)]);
    s.positions.push_back(
        {rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)});
  }
  return s;
}

GraphBatch dense_batch(std::uint64_t seed, int graphs = 3,
                       std::int64_t atoms = 18) {
  Rng rng(seed);
  std::vector<MolecularGraph> storage;
  for (int g = 0; g < graphs; ++g) {
    storage.push_back(
        MolecularGraph::from_structure(random_cluster(atoms, 5.0, rng), 3.0));
  }
  return GraphBatch::from_graphs(storage);
}

/// Full structural audit of one partition against its source batch: the
/// single place every invariant the halo exchange relies on is spelled out.
void check_invariants(const GraphBatch& batch, const gpar::GraphPartition& p) {
  const int R = p.num_ranks;
  ASSERT_EQ(static_cast<int>(p.ranks.size()), R);
  ASSERT_EQ(p.num_nodes, batch.num_nodes);
  ASSERT_EQ(p.num_edges, batch.num_edges);

  // Ownership: contiguous ranges that tile [0, N) exactly once, and the
  // closed-form owner() agrees with them.
  EXPECT_EQ(p.ranks.front().owned_begin, 0);
  EXPECT_EQ(p.ranks.back().owned_end, batch.num_nodes);
  for (int r = 0; r + 1 < R; ++r) {
    EXPECT_EQ(p.ranks[static_cast<std::size_t>(r)].owned_end,
              p.ranks[static_cast<std::size_t>(r) + 1].owned_begin);
  }
  for (std::int64_t node = 0; node < batch.num_nodes; ++node) {
    const int o = p.owner(node);
    const auto& rp = p.ranks[static_cast<std::size_t>(o)];
    EXPECT_GE(node, rp.owned_begin);
    EXPECT_LT(node, rp.owned_end);
  }

  // Edge slices: contiguous cover of [0, E) in rank order.
  EXPECT_EQ(p.ranks.front().edge_begin, 0);
  EXPECT_EQ(p.ranks.back().edge_end, batch.num_edges);
  for (int r = 0; r + 1 < R; ++r) {
    EXPECT_EQ(p.ranks[static_cast<std::size_t>(r)].edge_end,
              p.ranks[static_cast<std::size_t>(r) + 1].edge_begin);
  }

  std::vector<std::int64_t> boundary_concat;
  for (const auto& rp : p.ranks) {
    boundary_concat.insert(boundary_concat.end(), rp.boundary.begin(),
                           rp.boundary.end());
  }

  for (int r = 0; r < R; ++r) {
    const auto& rp = p.ranks[static_cast<std::size_t>(r)];

    // Halo = EXACTLY the sorted unique non-owned sources of the slice: no
    // dropped boundary node, no over-fetch past one hop.
    std::vector<std::int64_t> expected_halo;
    for (std::int64_t e = rp.edge_begin; e < rp.edge_end; ++e) {
      const std::int64_t src = batch.edge_src[static_cast<std::size_t>(e)];
      EXPECT_EQ(p.owner(batch.edge_dst[static_cast<std::size_t>(e)]), r);
      if (src < rp.owned_begin || src >= rp.owned_end) {
        expected_halo.push_back(src);
      }
    }
    std::sort(expected_halo.begin(), expected_halo.end());
    expected_halo.erase(
        std::unique(expected_halo.begin(), expected_halo.end()),
        expected_halo.end());
    EXPECT_EQ(rp.halo, expected_halo) << "rank " << r;

    // Local endpoints decode back to the exact global edge slice.
    ASSERT_EQ(static_cast<std::int64_t>(rp.local_src.size()),
              rp.num_local_edges());
    ASSERT_EQ(static_cast<std::int64_t>(rp.local_dst.size()),
              rp.num_local_edges());
    std::vector<std::int64_t> ghost_edges;
    for (std::int64_t e = 0; e < rp.num_local_edges(); ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const std::int64_t ls = rp.local_src[ei];
      const std::int64_t global_src =
          ls < rp.num_owned()
              ? rp.owned_begin + ls
              : rp.halo[static_cast<std::size_t>(ls - rp.num_owned())];
      EXPECT_EQ(global_src,
                batch.edge_src[static_cast<std::size_t>(rp.edge_begin + e)]);
      EXPECT_EQ(rp.owned_begin + rp.local_dst[ei],
                batch.edge_dst[static_cast<std::size_t>(rp.edge_begin + e)]);
      if (ls >= rp.num_owned()) ghost_edges.push_back(e);
    }
    EXPECT_EQ(rp.ghost_edges, ghost_edges) << "rank " << r;

    // Boundary of rank r = sorted union of r-owned ids in the other ranks'
    // halos (exactly what r must post each exchange).
    std::vector<std::int64_t> expected_boundary;
    for (int o = 0; o < R; ++o) {
      if (o == r) continue;
      for (const std::int64_t g :
           p.ranks[static_cast<std::size_t>(o)].halo) {
        if (g >= rp.owned_begin && g < rp.owned_end) {
          expected_boundary.push_back(g);
        }
      }
    }
    std::sort(expected_boundary.begin(), expected_boundary.end());
    expected_boundary.erase(
        std::unique(expected_boundary.begin(), expected_boundary.end()),
        expected_boundary.end());
    EXPECT_EQ(rp.boundary, expected_boundary) << "rank " << r;

    // halo_fetch addresses the rank-order boundary concatenation.
    ASSERT_EQ(rp.halo_fetch.size(), rp.halo.size());
    for (std::size_t k = 0; k < rp.halo.size(); ++k) {
      ASSERT_GE(rp.halo_fetch[k], 0);
      ASSERT_LT(rp.halo_fetch[k],
                static_cast<std::int64_t>(boundary_concat.size()));
      EXPECT_EQ(boundary_concat[static_cast<std::size_t>(rp.halo_fetch[k])],
                rp.halo[k]);
    }

    // Backward merge schedules: rank r2's ghost block folds into r's owned
    // rows at the positions r2's slice order dictates.
    ASSERT_EQ(static_cast<int>(rp.inbound.size()), R);
    for (int r2 = 0; r2 < R; ++r2) {
      const auto& sender = p.ranks[static_cast<std::size_t>(r2)];
      std::int64_t last_pos = -1;
      for (const auto& [pos, target] :
           rp.inbound[static_cast<std::size_t>(r2)]) {
        EXPECT_GT(pos, last_pos);  // ascending: the fold continues in order
        last_pos = pos;
        ASSERT_GE(pos, 0);
        ASSERT_LT(pos,
                  static_cast<std::int64_t>(sender.ghost_edges.size()));
        const std::int64_t sender_edge =
            sender.edge_begin +
            sender.ghost_edges[static_cast<std::size_t>(pos)];
        EXPECT_EQ(batch.edge_src[static_cast<std::size_t>(sender_edge)],
                  rp.owned_begin + target);
      }
    }
  }
}

bool partitions_equal(const gpar::GraphPartition& a,
                      const gpar::GraphPartition& b) {
  if (a.num_ranks != b.num_ranks || a.num_nodes != b.num_nodes ||
      a.num_edges != b.num_edges || a.ranks.size() != b.ranks.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const auto& x = a.ranks[r];
    const auto& y = b.ranks[r];
    if (x.owned_begin != y.owned_begin || x.owned_end != y.owned_end ||
        x.edge_begin != y.edge_begin || x.edge_end != y.edge_end ||
        x.halo != y.halo || x.local_src != y.local_src ||
        x.local_dst != y.local_dst || x.boundary != y.boundary ||
        x.halo_fetch != y.halo_fetch || x.ghost_edges != y.ghost_edges ||
        x.inbound != y.inbound) {
      return false;
    }
  }
  return true;
}

// -- partitioner invariants ---------------------------------------------------

TEST(PartitionTest, InvariantsHoldAcrossRankCounts) {
  const GraphBatch batch = dense_batch(41);
  ASSERT_GT(batch.num_edges, 0);
  for (const int R : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("ranks=" + std::to_string(R));
    check_invariants(batch, gpar::GraphPartition::build(batch, R));
  }
}

TEST(PartitionTest, MultiRankPartitionsActuallyHaveHalos) {
  // Guard against a vacuous wall: on a dense connected batch, splitting
  // across ranks MUST produce boundary traffic.
  const GraphBatch batch = dense_batch(42, /*graphs=*/1, /*atoms=*/24);
  for (const int R : {2, 4}) {
    const auto part = gpar::GraphPartition::build(batch, R);
    std::size_t halo_total = 0;
    for (const auto& rp : part.ranks) halo_total += rp.halo.size();
    EXPECT_GT(halo_total, 0u) << "ranks=" << R;
  }
}

TEST(PartitionTest, DegenerateBatchesSurvive) {
  // Empty batch: every rank owns nothing, exchanges nothing.
  const GraphBatch empty =
      GraphBatch::from_graphs(std::vector<const MolecularGraph*>{});
  for (const int R : {1, 2, 4}) {
    const auto part = gpar::GraphPartition::build(empty, R);
    check_invariants(empty, part);
    for (const auto& rp : part.ranks) {
      EXPECT_EQ(rp.num_owned(), 0);
      EXPECT_TRUE(rp.halo.empty());
      EXPECT_TRUE(rp.boundary.empty());
    }
  }

  // Single atom: one rank owns it, nobody needs a halo.
  AtomicStructure lone;
  lone.species = {elements::kCu};
  lone.positions = {{0.0, 0.0, 0.0}};
  const MolecularGraph lone_graph = MolecularGraph::from_structure(lone, 3.0);
  const GraphBatch single = GraphBatch::from_graphs(
      std::vector<const MolecularGraph*>{&lone_graph});
  for (const int R : {1, 2, 4}) {
    const auto part = gpar::GraphPartition::build(single, R);
    check_invariants(single, part);
    for (const auto& rp : part.ranks) EXPECT_TRUE(rp.halo.empty());
  }

  // Zero edges: two atoms beyond the cutoff. Partition survives with empty
  // edge slices everywhere.
  AtomicStructure apart;
  apart.species = {elements::kH, elements::kH};
  apart.positions = {{0.0, 0.0, 0.0}, {50.0, 0.0, 0.0}};
  const MolecularGraph apart_graph =
      MolecularGraph::from_structure(apart, 3.0);
  ASSERT_EQ(apart_graph.num_edges(), 0);
  const GraphBatch disconnected = GraphBatch::from_graphs(
      std::vector<const MolecularGraph*>{&apart_graph});
  for (const int R : {1, 2, 3}) {
    check_invariants(disconnected,
                     gpar::GraphPartition::build(disconnected, R));
  }

  // More ranks than nodes: trailing ranks own empty ranges.
  const auto part = gpar::GraphPartition::build(disconnected, 5);
  check_invariants(disconnected, part);
  std::int64_t owned_total = 0;
  for (const auto& rp : part.ranks) owned_total += rp.num_owned();
  EXPECT_EQ(owned_total, 2);
}

TEST(PartitionTest, BuildIsDeterministicUnderConcurrency) {
  // The partition is pure index arithmetic: rebuilding it — serially or from
  // four racing threads (this suite runs with SGNN_NUM_THREADS=4) — must
  // produce identical structures, or ranks would disagree about ownership.
  const GraphBatch batch = dense_batch(43);
  const auto reference = gpar::GraphPartition::build(batch, 4);
  EXPECT_TRUE(
      partitions_equal(reference, gpar::GraphPartition::build(batch, 4)));

  std::vector<gpar::GraphPartition> built(4);
  run_ranks(4, [&](int t) {
    built[static_cast<std::size_t>(t)] = gpar::GraphPartition::build(batch, 4);
  });
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(partitions_equal(reference,
                                 built[static_cast<std::size_t>(t)]))
        << "thread " << t;
  }
}

TEST(PartitionTest, SpatialOrderHandlesZeroExtentGeometry) {
  // Planar slab: zero z-extent. The longest axis (x) dominates the sort and
  // the degenerate axis only tie-breaks; the result is a permutation sorted
  // by x.
  AtomicStructure slab;
  for (int i = 0; i < 6; ++i) {
    slab.species.push_back(elements::kSi);
    slab.positions.push_back({static_cast<double>(5 - i),
                              0.25 * static_cast<double>(i % 2), 1.0});
  }
  const auto order = gpar::spatial_order(slab);
  ASSERT_EQ(order.size(), 6u);
  std::set<std::int64_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 6u);  // a permutation: nothing dropped or doubled
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    EXPECT_LE(slab.positions[static_cast<std::size_t>(order[k])].x,
              slab.positions[static_cast<std::size_t>(order[k + 1])].x);
  }

  // All atoms coincident: every extent is zero, so the original index is
  // the only tiebreak left and the order is the identity.
  AtomicStructure point;
  for (int i = 0; i < 5; ++i) {
    point.species.push_back(elements::kC);
    point.positions.push_back({1.0, 2.0, 3.0});
  }
  const auto identity = gpar::spatial_order(point);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(identity[static_cast<std::size_t>(i)], i);
  }

  // Deterministic: same input, same order, every time.
  EXPECT_EQ(gpar::spatial_order(slab), gpar::spatial_order(slab));
  EXPECT_TRUE(gpar::spatial_order(AtomicStructure{}).empty());
}

// -- model-level bit-identity -------------------------------------------------

struct ForwardBackwardResult {
  std::vector<real> energy;
  std::vector<real> forces;
  std::vector<real> dipole;  ///< empty unless the config predicts dipoles
  std::vector<real> gradients;
};

std::vector<real> dipole_vector(const EGNNModel::Output& out) {
  return out.dipole.defined() ? out.dipole.to_vector() : std::vector<real>{};
}

ForwardBackwardResult reference_forward_backward(const ModelConfig& config,
                                                 const GraphBatch& batch,
                                                 bool checkpointing) {
  EGNNModel model(config);
  EGNNModel::ForwardOptions options;
  options.activation_checkpointing = checkpointing;
  const auto out = model.forward(batch, options);
  LossTerms terms = multitask_loss(out, batch, LossWeights{});
  terms.total.backward();
  return {out.energy.to_vector(), out.forces.to_vector(), dipole_vector(out),
          flat_grads(model.parameters())};
}

/// One model variant the forward's shared readout serves: message-passing
/// kernel x force head x dipole head.
using ModelVariant = std::tuple<MessagePassingKernel, ForceHead, bool>;

class PartitionParityTest : public ::testing::TestWithParam<ModelVariant> {};

TEST_P(PartitionParityTest, ForwardBackwardIsBitIdenticalToUnpartitioned) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  std::tie(config.kernel, config.force_head, config.predict_dipole) =
      GetParam();
  const auto& graphs = tiny_dataset().graphs();
  ASSERT_GE(graphs.size(), 4u);
  std::vector<const MolecularGraph*> samples;
  for (std::size_t g = 0; g < 4; ++g) samples.push_back(&graphs[g]);

  for (const bool checkpointing : {false, true}) {
    const GraphBatch reference_batch = GraphBatch::from_graphs(samples);
    const ForwardBackwardResult reference =
        reference_forward_backward(config, reference_batch, checkpointing);
    ASSERT_FALSE(reference.energy.empty());
    ASSERT_FALSE(reference.gradients.empty());
    ASSERT_EQ(reference.dipole.empty(), !config.predict_dipole);

    for (const int R : {1, 2, 4}) {
      SCOPED_TRACE(std::string("ranks=") + std::to_string(R) +
                   (checkpointing ? " ckpt" : ""));
      Communicator comm(R);
      std::vector<std::unique_ptr<EGNNModel>> models;
      for (int r = 0; r < R; ++r) {
        models.push_back(std::make_unique<EGNNModel>(config));
      }
      std::vector<ForwardBackwardResult> results(
          static_cast<std::size_t>(R));
      run_ranks(R, [&](int rank) {
        const auto ri = static_cast<std::size_t>(rank);
        // Each rank builds its own batch and partition, exactly like the
        // trainer: both are deterministic, so all ranks agree.
        const GraphBatch batch = GraphBatch::from_graphs(samples);
        const auto partition = gpar::GraphPartition::build(batch, R);
        gpar::HaloExchanger halo(comm, rank, partition, batch);
        EGNNModel::ForwardOptions options;
        options.activation_checkpointing = checkpointing;
        options.graph_parallel = &halo;
        const auto out = models[ri]->forward(batch, options);
        LossTerms terms = multitask_loss(out, batch, LossWeights{});
        terms.total.backward();
        results[ri] = {out.energy.to_vector(), out.forces.to_vector(),
                       dipole_vector(out),
                       flat_grads(models[ri]->parameters())};
      });
      for (int r = 0; r < R; ++r) {
        const auto& got = results[static_cast<std::size_t>(r)];
        EXPECT_EQ(got.energy, reference.energy) << "rank " << r;
        EXPECT_EQ(got.forces, reference.forces) << "rank " << r;
        if (config.predict_dipole) {
          EXPECT_EQ(got.dipole, reference.dipole) << "rank " << r;
        }
        EXPECT_EQ(got.gradients, reference.gradients) << "rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelVariants, PartitionParityTest,
    ::testing::Combine(::testing::Values(MessagePassingKernel::kEGNN,
                                         MessagePassingKernel::kSchNet,
                                         MessagePassingKernel::kGAT),
                       ::testing::Values(ForceHead::kEquivariantEdge,
                                         ForceHead::kNodeMLP),
                       ::testing::Bool()));

// -- trainer-level bit-identity -----------------------------------------------

std::vector<real> parity_train(int ranks, bool graph_parallel,
                               bool checkpointing,
                               obs::TelemetrySink* sink = nullptr,
                               DistTrainReport* report_out = nullptr) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = ranks;
  options.epochs = 1;
  options.per_rank_batch_size = 4;  // the GLOBAL batch under graph_parallel
  options.strategy = DistStrategy::kDDP;
  options.graph_parallel = graph_parallel;
  options.activation_checkpointing = checkpointing;
  options.max_grad_norm = 0.0;
  options.bucket_bytes = 0;
  options.telemetry = sink;
  DistributedTrainer trainer(config, options);
  const auto store = make_store(ranks);
  const DistTrainReport report = trainer.train(*store);
  if (report_out != nullptr) *report_out = report;
  EXPECT_EQ(trainer.replica_divergence(), 0.0);
  return flat_values(trainer.model().parameters());
}

TEST(PartitionParityTest, TrainedParametersMatchSingleRankByteForByte) {
  // The headline wall: a full graph-parallel training run — partitioned
  // forward, halo exchanges, ghost-gradient reduction, plain per-rank Adam —
  // lands on the EXACT bytes of the unpartitioned single-rank run, for
  // every rank count, with and without activation checkpointing.
  for (const bool checkpointing : {false, true}) {
    const std::vector<real> reference =
        parity_train(1, /*graph_parallel=*/false, checkpointing);
    for (const int R : {1, 2, 4}) {
      EXPECT_EQ(parity_train(R, /*graph_parallel=*/true, checkpointing),
                reference)
          << "ranks=" << R << (checkpointing ? " ckpt" : "");
    }
  }
}

// -- halo telemetry -----------------------------------------------------------

TEST(GraphParallelTelemetryTest, HaloTrafficIsAccountedAndSplit) {
  obs::RecordingTelemetrySink sink;
  DistTrainReport report;
  parity_train(2, /*graph_parallel=*/true, /*checkpointing=*/false, &sink,
               &report);

  EXPECT_GT(report.halo_bytes, 0u);
  EXPECT_GT(report.halo_exchanges, 0);
  EXPECT_GT(report.steps, 0);

  std::uint64_t bytes = 0;
  std::int64_t exchanges = 0;
  double exposed = 0;
  double overlapped = 0;
  for (const obs::StepTelemetry& step : sink.steps()) {
    if (step.rank != 0) {
      // Only rank 0 attributes halo traffic (counted once per collective).
      EXPECT_EQ(step.halo_bytes, 0u);
      EXPECT_EQ(step.halo_exchanges, 0);
      continue;
    }
    EXPECT_GT(step.halo_bytes, 0u);
    EXPECT_GT(step.halo_exchanges, 0);
    // The halo split partitions the step's modeled comm time: what a rank
    // stalls on plus what the RBF compute window hid.
    EXPECT_GE(step.halo_exposed_seconds, 0.0);
    EXPECT_GE(step.halo_overlapped_seconds, 0.0);
    EXPECT_DOUBLE_EQ(
        step.halo_exposed_seconds + step.halo_overlapped_seconds,
        step.comm_seconds_modeled);
    // Every collective in a graph-parallel step IS halo traffic.
    EXPECT_EQ(step.comm_exposed_seconds, step.halo_exposed_seconds);
    EXPECT_EQ(step.comm_buckets, 0);
    bytes += step.halo_bytes;
    exchanges += step.halo_exchanges;
    exposed += step.halo_exposed_seconds;
    overlapped += step.halo_overlapped_seconds;
  }
  EXPECT_EQ(report.halo_bytes, bytes);
  EXPECT_EQ(report.halo_exchanges, exchanges);
  EXPECT_DOUBLE_EQ(report.halo_exposed_seconds, exposed);
  EXPECT_DOUBLE_EQ(report.halo_overlapped_seconds, overlapped);
}

TEST(GraphParallelTelemetryTest, ReplicatedRunsReportZeroHaloTraffic) {
  DistTrainReport report;
  parity_train(2, /*graph_parallel=*/false, /*checkpointing=*/false, nullptr,
               &report);
  EXPECT_EQ(report.halo_bytes, 0u);
  EXPECT_EQ(report.halo_exchanges, 0);
  EXPECT_EQ(report.halo_exposed_seconds, 0.0);
  EXPECT_EQ(report.halo_overlapped_seconds, 0.0);
}

// -- configuration guard rails ------------------------------------------------

TEST(GraphParallelOptionsTest, UnsupportedCombinationsFailLoudly) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  const auto store = make_store(2);

  DistTrainOptions zero_opts;
  zero_opts.num_ranks = 2;
  zero_opts.graph_parallel = true;
  zero_opts.strategy = DistStrategy::kZeRO1;
  DistributedTrainer zero_trainer(config, zero_opts);
  EXPECT_THROW(zero_trainer.train(*store), Error);

  DistTrainOptions clip_opts;
  clip_opts.num_ranks = 2;
  clip_opts.graph_parallel = true;
  clip_opts.strategy = DistStrategy::kDDP;
  clip_opts.max_grad_norm = 1.0;
  DistributedTrainer clip_trainer(config, clip_opts);
  EXPECT_THROW(clip_trainer.train(*store), Error);
}

}  // namespace
}  // namespace sgnn
