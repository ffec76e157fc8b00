#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sgnn/data/dataset.hpp"
#include "sgnn/graph/structure.hpp"

// Seeded input generation. The workload seed is a benchmark argument; the
// program under test only ever receives what these functions generate.
// The same seed regenerates byte-identical inputs, which the run checks by
// hashing the batch sequence (training) or the request list (serving).

namespace perfbench {

constexpr std::size_t kNumSources =
    static_cast<std::size_t>(sgnn::DataSource::kCount);

struct TrainSizing {
  /// Byte budget of the generated AggregatedDataset (all five sources).
  std::uint64_t dataset_bytes = 8u << 20;
  /// Graphs drawn from each source (ANI1x, QM7-X, OC2020, OC2022, MPTrj)
  /// into the fixed training set every round trains on.
  std::array<std::size_t, kNumSources> per_source{};
};

struct TrainInputs {
  sgnn::AggregatedDataset dataset;
  /// Dataset indices of the training set, stratified over the sources.
  std::vector<std::size_t> train_set;
  std::uint64_t loader_seed = 0;
  std::uint64_t model_seed = 0;

  std::vector<const sgnn::MolecularGraph*> graphs() const {
    return dataset.view(train_set);
  }
  std::vector<sgnn::MolecularGraph> graph_copies() const;
  std::int64_t atoms() const;
};

TrainInputs make_train_inputs(std::uint64_t seed, const TrainSizing& sizing);

/// Hash of every batch the DataLoader delivers over `epochs` epochs of the
/// training set (species, positions, edges and labels, in delivery order).
std::uint64_t batch_sequence_hash(const TrainInputs& inputs,
                                  std::int64_t batch_size,
                                  std::int64_t epochs);

struct ServeRequestSpec {
  std::size_t structure = 0;  ///< index into ServeInputs::structures
  bool forces = false;
  bool repeat = false;  ///< a resident structure (served from the cache)
};

struct ServeInputs {
  /// structures[0, resident) is the resident set the cache is warmed with;
  /// every later structure is fresh and requested exactly once.
  std::vector<sgnn::AtomicStructure> structures;
  std::size_t resident = 0;
  /// rounds consecutive slices of `per_round` requests; every slice has the
  /// same number of fresh structures per source, of repeats, and of force
  /// requests among both, so rounds differ only in which structures land
  /// where.
  std::vector<ServeRequestSpec> requests;
  std::size_t per_round = 0;
  std::uint64_t model_seed = 0;
};

struct ServeSizing {
  std::size_t resident = 32;
  std::size_t rounds = 20;
  std::size_t fresh_per_source = 20;  ///< per round
  std::size_t repeats = 30;           ///< per round
  double force_share = 0.2;  ///< of fresh (per source) and of repeats
};

ServeInputs make_serve_inputs(std::uint64_t seed, const ServeSizing& sizing);

std::uint64_t request_list_hash(const ServeInputs& inputs);

}  // namespace perfbench
