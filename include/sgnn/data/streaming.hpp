#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "sgnn/data/loader.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/store/bp_file.hpp"

namespace sgnn {

/// Out-of-core mini-batch loader: batches are assembled directly from a bp
/// container, deserializing records on demand through a bounded LRU cache.
/// This is the data path for datasets that do not fit in memory — the
/// situation the paper's ADIOS + DDStore stack exists for. It draws from
/// the same EpochSampler as the in-memory DataLoader, so given the same
/// seed the two deliver identical batches.
class StreamingLoader {
 public:
  /// `cache_capacity` = max resident graphs (0 disables caching).
  StreamingLoader(const BpReader& reader, std::int64_t batch_size,
                  std::uint64_t seed, std::size_t cache_capacity = 256,
                  bool shuffle = true);

  std::int64_t num_batches() const { return sampler_.num_batches(); }

  void begin_epoch() { sampler_.begin_epoch(); }
  bool has_next() const { return sampler_.has_next(); }
  GraphBatch next();

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< records deserialized from the file
    double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  const CacheStats& cache_stats() const { return stats_; }

 private:
  const MolecularGraph& fetch(std::size_t record);

  const BpReader& reader_;
  EpochSampler sampler_;

  // LRU cache: list holds (record, graph) in recency order, map indexes it.
  std::size_t capacity_;
  std::list<std::pair<std::size_t, MolecularGraph>> lru_;
  std::unordered_map<std::size_t,
                     std::list<std::pair<std::size_t, MolecularGraph>>::iterator>
      cache_;
  CacheStats stats_;
};

}  // namespace sgnn
