#include "sgnn/data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "sgnn/util/error.hpp"
#include "sgnn/util/logging.hpp"

namespace sgnn {

AggregatedDataset AggregatedDataset::generate(
    const DatasetOptions& options, const ReferencePotential& potential) {
  SGNN_CHECK(options.target_bytes > 0, "dataset byte target must be positive");
  AggregatedDataset dataset;
  Rng master(options.seed);

  for (const DataSource source : all_sources()) {
    const SourceSpec& spec = source_spec(source);
    const auto budget = static_cast<std::uint64_t>(
        spec.byte_fraction * static_cast<double>(options.target_bytes));
    Rng rng = master.split();
    auto& stats = dataset.stats_[static_cast<std::size_t>(source)];
    while (stats.bytes < budget) {
      MolecularGraph graph =
          generate_sample(source, rng, potential, options.noise);
      stats.num_graphs += 1;
      stats.num_nodes += graph.num_nodes();
      stats.num_edges += graph.num_edges();
      stats.bytes += graph.serialized_bytes();
      dataset.total_bytes_ += graph.serialized_bytes();
      dataset.graphs_.push_back(std::move(graph));
      dataset.source_of_.push_back(source);
    }
    SGNN_LOG_DEBUG << spec.name << ": " << stats.num_graphs << " graphs, "
                   << stats.bytes << " bytes";
  }
  return dataset;
}

const AggregatedDataset::SourceStats& AggregatedDataset::stats(
    DataSource source) const {
  return stats_[static_cast<std::size_t>(source)];
}

AggregatedDataset::Split AggregatedDataset::split(double test_fraction,
                                                  std::uint64_t seed) const {
  SGNN_CHECK(test_fraction > 0 && test_fraction < 1,
             "test fraction must be in (0, 1), got " << test_fraction);
  std::vector<std::size_t> order(graphs_.size());
  std::iota(order.begin(), order.end(), 0);
  Rng(seed).shuffle(order);
  const auto test_budget = static_cast<std::uint64_t>(
      test_fraction * static_cast<double>(total_bytes_));
  Split split;
  std::uint64_t test_bytes = 0;
  for (const auto index : order) {
    if (test_bytes < test_budget) {
      split.test.push_back(index);
      test_bytes += graphs_[index].serialized_bytes();
    } else {
      split.train.push_back(index);
    }
  }
  SGNN_CHECK(!split.train.empty() && !split.test.empty(),
             "degenerate split: dataset too small");
  return split;
}

std::vector<std::size_t> AggregatedDataset::subsample(
    const std::vector<std::size_t>& pool, std::uint64_t budget_bytes,
    bool proportional, std::uint64_t seed) const {
  std::vector<std::size_t> order = pool;
  Rng(seed).shuffle(order);

  if (!proportional) {
    // Cheap-data-first: molecular sources (and small bulk) before the
    // expensive catalysis sweeps — an under-curated subset whose mix does
    // not match the full-aggregate test distribution.
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       const auto rank = [](DataSource s) {
                         switch (s) {
                           case DataSource::kANI1x: return 0;
                           case DataSource::kQM7X: return 1;
                           case DataSource::kMPTrj: return 2;
                           case DataSource::kOC2020: return 3;
                           case DataSource::kOC2022: return 4;
                           case DataSource::kCount: break;
                         }
                         return 5;
                       };
                       return rank(source_of_[a]) < rank(source_of_[b]);
                     });
  }

  std::vector<std::size_t> chosen;
  std::uint64_t used = 0;
  for (const auto index : order) {
    if (used >= budget_bytes) break;
    chosen.push_back(index);
    used += graphs_[index].serialized_bytes();
  }
  SGNN_CHECK(!chosen.empty(), "subsample budget too small for one graph");
  return chosen;
}

std::uint64_t AggregatedDataset::bytes_of(
    const std::vector<std::size_t>& indices) const {
  std::uint64_t total = 0;
  for (const auto index : indices) {
    total += graphs_[index].serialized_bytes();
  }
  return total;
}

std::vector<const MolecularGraph*> AggregatedDataset::view(
    const std::vector<std::size_t>& indices) const {
  std::vector<const MolecularGraph*> pointers;
  pointers.reserve(indices.size());
  for (const auto index : indices) {
    SGNN_CHECK(index < graphs_.size(), "dataset index out of range");
    pointers.push_back(&graphs_[index]);
  }
  return pointers;
}

}  // namespace sgnn
