#include "sgnn/data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sgnn/data/loader.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {
namespace {

const ReferencePotential& shared_potential() {
  static const ReferencePotential potential;
  return potential;
}

/// One small shared dataset for the read-only tests (generation dominates
/// test runtime, so build it once).
const AggregatedDataset& shared_dataset() {
  static const AggregatedDataset dataset = [] {
    DatasetOptions options;
    options.target_bytes = 3 << 20;
    options.seed = 7;
    return AggregatedDataset::generate(options, shared_potential());
  }();
  return dataset;
}

TEST(SourcesTest, SpecsCoverAllSourcesAndFractionsSumToOne) {
  double total = 0;
  for (const auto source : all_sources()) {
    const auto& spec = source_spec(source);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.byte_fraction, 0);
    EXPECT_GT(spec.max_atoms, spec.min_atoms);
    total += spec.byte_fraction;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SourcesTest, MolecularSourcesAreOpenPeriodicSourcesAreNot) {
  EXPECT_FALSE(source_spec(DataSource::kANI1x).periodic);
  EXPECT_FALSE(source_spec(DataSource::kQM7X).periodic);
  EXPECT_TRUE(source_spec(DataSource::kOC2020).periodic);
  EXPECT_TRUE(source_spec(DataSource::kOC2022).periodic);
  EXPECT_TRUE(source_spec(DataSource::kMPTrj).periodic);
}

TEST(SourcesTest, GeneratedStructuresAreValidAndMatchGeometryClass) {
  Rng rng(1);
  for (const auto source : all_sources()) {
    for (int i = 0; i < 3; ++i) {
      const AtomicStructure s = generate_structure(source, rng);
      s.validate();
      EXPECT_EQ(s.periodic, source_spec(source).periodic)
          << source_spec(source).name;
      EXPECT_GE(s.num_atoms(), 2) << source_spec(source).name;
    }
  }
}

TEST(SourcesTest, MoleculesAreConnectedAtCutoff) {
  Rng rng(2);
  const ReferencePotential& pot = shared_potential();
  for (int i = 0; i < 5; ++i) {
    const MolecularGraph g = generate_sample(DataSource::kANI1x, rng, pot);
    // BFS from node 0 must reach every atom.
    std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
    std::vector<std::int64_t> queue = {0};
    seen[0] = 1;
    while (!queue.empty()) {
      const std::int64_t node = queue.back();
      queue.pop_back();
      for (std::int64_t k = 0; k < g.num_edges(); ++k) {
        const auto ki = static_cast<std::size_t>(k);
        if (g.edges.src[ki] == node &&
            !seen[static_cast<std::size_t>(g.edges.dst[ki])]) {
          seen[static_cast<std::size_t>(g.edges.dst[ki])] = 1;
          queue.push_back(g.edges.dst[ki]);
        }
      }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), g.num_nodes());
  }
}

TEST(SourcesTest, LabelsAreFiniteAndNoiseIsApplied) {
  Rng rng_a(3);
  Rng rng_b(3);
  const ReferencePotential& pot = shared_potential();
  LabelNoise no_noise;
  no_noise.energy_sigma_per_atom = 0;
  no_noise.force_sigma = 0;
  const MolecularGraph clean =
      generate_sample(DataSource::kMPTrj, rng_a, pot, no_noise);
  const MolecularGraph noisy = generate_sample(DataSource::kMPTrj, rng_b, pot);
  EXPECT_TRUE(std::isfinite(clean.energy));
  // Same structure (same rng stream), labels differ only by noise.
  EXPECT_EQ(clean.structure.species, noisy.structure.species);
  EXPECT_NE(clean.energy, noisy.energy);
}

TEST(SourcesTest, CleanLabelsMatchPotentialExactly) {
  Rng rng(4);
  const ReferencePotential& pot = shared_potential();
  LabelNoise no_noise;
  no_noise.energy_sigma_per_atom = 0;
  no_noise.force_sigma = 0;
  const MolecularGraph g =
      generate_sample(DataSource::kANI1x, rng, pot, no_noise);
  const PotentialResult reference = pot.evaluate(g.structure, g.edges);
  EXPECT_DOUBLE_EQ(g.energy, reference.energy);
  for (std::size_t i = 0; i < g.forces.size(); ++i) {
    EXPECT_EQ(g.forces[i], reference.forces[i]);
  }
}

TEST(DatasetTest, ByteSharesFollowTableI) {
  const auto& dataset = shared_dataset();
  EXPECT_GE(dataset.total_bytes(), 3u << 20);
  for (const auto source : all_sources()) {
    const auto& stats = dataset.stats(source);
    EXPECT_GT(stats.num_graphs, 0) << source_spec(source).name;
    const double share = static_cast<double>(stats.bytes) /
                         static_cast<double>(dataset.total_bytes());
    // One graph of slack on either side of the target share.
    EXPECT_NEAR(share, source_spec(source).byte_fraction, 0.05)
        << source_spec(source).name;
  }
}

TEST(DatasetTest, GenerationIsDeterministic) {
  DatasetOptions options;
  options.target_bytes = 256 << 10;
  options.seed = 11;
  const auto a = AggregatedDataset::generate(options, shared_potential());
  const auto b = AggregatedDataset::generate(options, shared_potential());
  ASSERT_EQ(a.graphs().size(), b.graphs().size());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  for (std::size_t i = 0; i < a.graphs().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.graphs()[i].energy, b.graphs()[i].energy);
  }
}

TEST(DatasetTest, SplitIsDisjointAndCoversEverything) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  std::set<std::size_t> train(split.train.begin(), split.train.end());
  std::set<std::size_t> test(split.test.begin(), split.test.end());
  EXPECT_EQ(train.size() + test.size(), dataset.graphs().size());
  for (const auto t : test) EXPECT_FALSE(train.count(t));
  // Test share close to requested byte fraction.
  const double share = static_cast<double>(dataset.bytes_of(split.test)) /
                       static_cast<double>(dataset.total_bytes());
  EXPECT_NEAR(share, 0.2, 0.06);
}

TEST(DatasetTest, ProportionalSubsampleKeepsTheMix) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  const auto subset = dataset.subsample(
      split.train, dataset.total_bytes() / 3, /*proportional=*/true, 5);
  // OC2020 should still dominate the subset's bytes (it is 61% of the mix).
  std::uint64_t oc_bytes = 0;
  std::uint64_t total = 0;
  for (const auto index : subset) {
    const auto bytes = dataset.graphs()[index].serialized_bytes();
    total += bytes;
    if (dataset.source_of(index) == DataSource::kOC2020) oc_bytes += bytes;
  }
  EXPECT_GT(static_cast<double>(oc_bytes) / static_cast<double>(total), 0.4);
}

TEST(DatasetTest, BiasedSubsampleFavorsMolecularSources) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  const std::uint64_t budget = dataset.total_bytes() / 12;
  const auto biased =
      dataset.subsample(split.train, budget, /*proportional=*/false, 5);
  std::uint64_t molecular = 0;
  std::uint64_t total = 0;
  for (const auto index : biased) {
    const auto bytes = dataset.graphs()[index].serialized_bytes();
    total += bytes;
    const auto source = dataset.source_of(index);
    if (source == DataSource::kANI1x || source == DataSource::kQM7X ||
        source == DataSource::kMPTrj) {
      molecular += bytes;
    }
  }
  // In the proportional mix these sources are ~6% of bytes; the biased
  // subset should be dominated by them.
  EXPECT_GT(static_cast<double>(molecular) / static_cast<double>(total), 0.5);
}

TEST(DatasetTest, SubsampleRespectsBudget) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  const std::uint64_t budget = dataset.total_bytes() / 4;
  const auto subset = dataset.subsample(split.train, budget, true, 5);
  const std::uint64_t used = dataset.bytes_of(subset);
  // Budget may be exceeded by at most one (largest) graph.
  EXPECT_LT(used, budget + 200 * 1024);
  EXPECT_GT(used, budget / 2);
}

TEST(LoaderTest, CoversEveryGraphOncePerEpoch) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  auto subset_view = dataset.view(split.test);
  DataLoader loader(subset_view, 4, /*seed=*/3);
  std::size_t seen = 0;
  while (loader.has_next()) {
    seen += static_cast<std::size_t>(loader.next().num_graphs);
  }
  EXPECT_EQ(seen, subset_view.size());
  EXPECT_FALSE(loader.has_next());
  loader.begin_epoch();
  EXPECT_TRUE(loader.has_next());
}

TEST(LoaderTest, ShuffleChangesOrderButNotContents) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  auto subset_view = dataset.view(split.test);
  ASSERT_GE(subset_view.size(), 4u);

  DataLoader shuffled(subset_view, 1, 3, /*shuffle=*/true);
  DataLoader ordered(subset_view, 1, 3, /*shuffle=*/false);
  std::multiset<double> energies_shuffled;
  std::vector<double> order_shuffled;
  std::vector<double> order_plain;
  while (shuffled.has_next()) {
    const double e = shuffled.next().energy.item();
    energies_shuffled.insert(e);
    order_shuffled.push_back(e);
  }
  std::multiset<double> energies_plain;
  while (ordered.has_next()) {
    const double e = ordered.next().energy.item();
    energies_plain.insert(e);
    order_plain.push_back(e);
  }
  EXPECT_EQ(energies_shuffled, energies_plain);
  EXPECT_NE(order_shuffled, order_plain);
}

TEST(LoaderTest, BatchSizeBounds) {
  const auto& dataset = shared_dataset();
  const auto split = dataset.split(0.2, 99);
  auto subset_view = dataset.view(split.test);
  DataLoader loader(subset_view, 3, 3);
  EXPECT_EQ(loader.num_batches(),
            (static_cast<std::int64_t>(subset_view.size()) + 2) / 3);
  while (loader.has_next()) {
    EXPECT_LE(loader.next().num_graphs, 3);
  }
}

TEST(EpochSamplerTest, RestoredStateResumesTheSameOrder) {
  EpochSampler original(10, 3, /*seed=*/5);
  original.next();
  original.next();
  const EpochSampler::State mid_epoch = original.state();

  // Another seed: everything the resume sees must come from the state.
  EpochSampler restored(10, 3, /*seed=*/6);
  restored.restore_state(mid_epoch);
  const auto drain = [](EpochSampler& sampler) {
    std::vector<std::size_t> indices;
    while (sampler.has_next()) {
      for (const std::size_t index : sampler.next()) indices.push_back(index);
    }
    return indices;
  };
  const std::vector<std::size_t> remaining = drain(original);
  EXPECT_EQ(remaining.size(), 4u);
  EXPECT_EQ(drain(restored), remaining);
  original.begin_epoch();
  restored.begin_epoch();
  EXPECT_EQ(drain(restored), drain(original));
}

TEST(EpochSamplerTest, RestoreRejectsAStateThatDoesNotFit) {
  EpochSampler sampler(10, 3, /*seed=*/5);
  const EpochSampler::State good = sampler.state();

  EpochSampler::State wrong_size = good;
  wrong_size.order.pop_back();
  EXPECT_THROW(sampler.restore_state(wrong_size), Error);

  EpochSampler::State cursor_past_end = good;
  cursor_past_end.cursor = 11;
  EXPECT_THROW(sampler.restore_state(cursor_past_end), Error);

  EpochSampler::State index_out_of_range = good;
  index_out_of_range.order[4] = 10;
  EXPECT_THROW(sampler.restore_state(index_out_of_range), Error);

  // A rejected state leaves the sampler as it was.
  EXPECT_EQ(sampler.state().order, good.order);
  EXPECT_EQ(sampler.state().cursor, good.cursor);
}

TEST(EpochSamplerTest, DropLastHandsOutOnlyFullBatches) {
  EpochSampler sampler(10, 4, /*seed=*/5, /*shuffle=*/true,
                       /*drop_last=*/true);
  EXPECT_EQ(sampler.num_batches(), 2);
  EXPECT_EQ(sampler.next().size(), 4u);
  EXPECT_EQ(sampler.next().size(), 4u);
  EXPECT_FALSE(sampler.has_next());
}

}  // namespace
}  // namespace sgnn
