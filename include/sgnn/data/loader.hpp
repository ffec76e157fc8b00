#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sgnn/graph/batch.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {

/// The batch order of every training data path (DataLoader,
/// StreamingLoader, each DistributedTrainer rank): a permutation of
/// [0, size) cut into batches, reshuffled at each begin_epoch() by its own
/// deterministic generator, so runs are reproducible regardless of what
/// else consumes randomness.
class EpochSampler {
 public:
  /// Shuffles once on construction (when enabled). With `drop_last` an
  /// epoch holds only full batches.
  EpochSampler(std::size_t size, std::int64_t batch_size, std::uint64_t seed,
               bool shuffle = true, bool drop_last = false);

  std::size_t size() const { return order_.size(); }
  std::int64_t num_batches() const;
  /// Starts a new epoch (reshuffles the previous order when enabled).
  void begin_epoch();
  bool has_next() const;
  /// Indices of the next batch, valid until the sampler next changes.
  std::span<const std::size_t> next();

  /// Iteration state, for training-state checkpoints: the RNG, the current
  /// epoch's order, the position within it, and the batch size that
  /// position counts in.
  struct State {
    Rng::State rng;
    std::vector<std::uint64_t> order;
    std::uint64_t cursor = 0;
    std::uint64_t batch_size = 0;
  };
  State state() const;
  /// Error unless `state` indexes [0, size()) with an in-range cursor and
  /// was taken at this sampler's batch size.
  void restore_state(const State& state);

 private:
  std::vector<std::size_t> order_;
  std::size_t batch_size_;
  Rng rng_;
  bool shuffle_;
  bool drop_last_;
  std::size_t cursor_ = 0;
};

/// Mini-batch iterator over a fixed set of graphs, in EpochSampler order.
class DataLoader {
 public:
  DataLoader(std::vector<const MolecularGraph*> graphs,
             std::int64_t batch_size, std::uint64_t seed,
             bool shuffle = true);

  /// Batches per epoch (last partial batch included).
  std::int64_t num_batches() const { return sampler_.num_batches(); }
  std::int64_t num_graphs() const {
    return static_cast<std::int64_t>(graphs_.size());
  }

  /// Starts a new epoch (reshuffles when enabled).
  void begin_epoch() { sampler_.begin_epoch(); }
  /// True while the current epoch has batches left.
  bool has_next() const { return sampler_.has_next(); }
  /// Builds and returns the next batch.
  GraphBatch next();

  /// The batch order, for training-state checkpoints.
  EpochSampler& sampler() { return sampler_; }
  const EpochSampler& sampler() const { return sampler_; }

 private:
  std::vector<const MolecularGraph*> graphs_;
  EpochSampler sampler_;
};

}  // namespace sgnn
