#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sgnn/data/loader.hpp"
#include "sgnn/potential/potential.hpp"
#include "sgnn/util/rng.hpp"

namespace perfbench {

namespace {

/// FNV-1a over raw bytes, chained across calls.
class Hasher {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    bytes(v.data(), v.size() * sizeof(T));
  }
  void tensor(const sgnn::Tensor& t) {
    if (!t.defined()) return;
    bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(sgnn::real));
  }
  void structure(const sgnn::AtomicStructure& s) {
    vec(s.species);
    vec(s.positions);
    bytes(&s.cell, sizeof s.cell);
    const unsigned char periodic = s.periodic ? 1 : 0;
    bytes(&periodic, 1);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

template <typename T>
void shuffle(std::vector<T>& items, sgnn::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
  }
}

/// Per-purpose seeds derived from the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  sgnn::Rng rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
  return rng.next_u64();
}

}  // namespace

std::vector<sgnn::MolecularGraph> TrainInputs::graph_copies() const {
  std::vector<sgnn::MolecularGraph> copies;
  copies.reserve(train_set.size());
  for (const std::size_t index : train_set) {
    copies.push_back(dataset.graphs()[index]);
  }
  return copies;
}

std::int64_t TrainInputs::atoms() const {
  std::int64_t total = 0;
  for (const std::size_t index : train_set) {
    total += dataset.graphs()[index].num_nodes();
  }
  return total;
}

TrainInputs make_train_inputs(std::uint64_t seed, const TrainSizing& sizing) {
  const sgnn::ReferencePotential potential;
  sgnn::DatasetOptions options;
  options.target_bytes = sizing.dataset_bytes;
  options.seed = derive(seed, 1);
  TrainInputs inputs{sgnn::AggregatedDataset::generate(options, potential),
                     {}, derive(seed, 2), derive(seed, 3)};

  std::array<std::vector<std::size_t>, kNumSources> by_source;
  for (std::size_t i = 0; i < inputs.dataset.graphs().size(); ++i) {
    by_source[static_cast<std::size_t>(inputs.dataset.source_of(i))]
        .push_back(i);
  }
  sgnn::Rng pick(derive(seed, 4));
  for (std::size_t s = 0; s < kNumSources; ++s) {
    std::vector<std::size_t>& pool = by_source[s];
    if (pool.size() < sizing.per_source[s]) {
      throw std::runtime_error(
          "dataset has " + std::to_string(pool.size()) + " graphs of source " +
          std::to_string(s) + ", need " +
          std::to_string(sizing.per_source[s]));
    }
    shuffle(pool, pick);
    inputs.train_set.insert(inputs.train_set.end(), pool.begin(),
                            pool.begin() + static_cast<std::ptrdiff_t>(
                                               sizing.per_source[s]));
  }
  return inputs;
}

std::uint64_t batch_sequence_hash(const TrainInputs& inputs,
                                  std::int64_t batch_size,
                                  std::int64_t epochs) {
  sgnn::DataLoader loader(inputs.graphs(), batch_size, inputs.loader_seed);
  Hasher h;
  h.bytes(&inputs.model_seed, sizeof inputs.model_seed);
  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    loader.begin_epoch();
    while (loader.has_next()) {
      const sgnn::GraphBatch batch = loader.next();
      h.vec(batch.species);
      h.tensor(batch.positions);
      h.vec(batch.edge_src);
      h.vec(batch.edge_dst);
      h.tensor(batch.energy);
      h.tensor(batch.forces);
    }
  }
  return h.value();
}

ServeInputs make_serve_inputs(std::uint64_t seed, const ServeSizing& sizing) {
  ServeInputs inputs;
  inputs.resident = sizing.resident;
  inputs.model_seed = derive(seed, 5);
  sgnn::Rng rng(derive(seed, 6));
  const auto& sources = sgnn::all_sources();
  const auto draw = [&](sgnn::DataSource source) {
    // The molecule generator sometimes stops at one atom; every lone atom
    // of a species is the same structure to the cache, so it would not be
    // fresh. Draw again.
    sgnn::AtomicStructure structure;
    do {
      structure = sgnn::generate_structure(source, rng);
    } while (structure.num_atoms() < 2);
    inputs.structures.push_back(std::move(structure));
    return inputs.structures.size() - 1;
  };
  for (std::size_t i = 0; i < sizing.resident; ++i) {
    draw(sources[i % sources.size()]);
  }
  const auto forced = [&](std::size_t count) {
    return static_cast<std::size_t>(
        std::llround(sizing.force_share * static_cast<double>(count)));
  };
  for (std::size_t round = 0; round < sizing.rounds; ++round) {
    std::vector<ServeRequestSpec> slice;
    for (const sgnn::DataSource source : sources) {
      for (std::size_t k = 0; k < sizing.fresh_per_source; ++k) {
        slice.push_back({draw(source), k < forced(sizing.fresh_per_source),
                         false});
      }
    }
    for (std::size_t k = 0; k < sizing.repeats; ++k) {
      slice.push_back({rng.uniform_index(sizing.resident),
                       k < forced(sizing.repeats), true});
    }
    shuffle(slice, rng);
    inputs.requests.insert(inputs.requests.end(), slice.begin(), slice.end());
    inputs.per_round = slice.size();
  }
  return inputs;
}

std::uint64_t request_list_hash(const ServeInputs& inputs) {
  Hasher h;
  h.bytes(&inputs.model_seed, sizeof inputs.model_seed);
  for (const ServeRequestSpec& r : inputs.requests) {
    h.structure(inputs.structures[r.structure]);
    const unsigned char flags =
        static_cast<unsigned char>((r.forces ? 1 : 0) | (r.repeat ? 2 : 0));
    h.bytes(&flags, 1);
  }
  return h.value();
}

}  // namespace perfbench
