#include "sgnn/data/streaming.hpp"

namespace sgnn {

StreamingLoader::StreamingLoader(const BpReader& reader,
                                 std::int64_t batch_size, std::uint64_t seed,
                                 std::size_t cache_capacity, bool shuffle)
    : reader_(reader),
      sampler_(reader.size(), batch_size, seed, shuffle),
      capacity_(cache_capacity) {}

const MolecularGraph& StreamingLoader::fetch(std::size_t record) {
  const auto it = cache_.find(record);
  if (it != cache_.end()) {
    ++stats_.hits;
    // Refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  ++stats_.misses;
  lru_.emplace_front(record, reader_.read(record));
  cache_[record] = lru_.begin();
  // Eviction is deferred to next(): every graph fetched for the batch under
  // construction must stay resident until the batch has been assembled.
  return lru_.front().second;
}

GraphBatch StreamingLoader::next() {
  std::vector<const MolecularGraph*> batch;
  for (const std::size_t record : sampler_.next()) {
    batch.push_back(&fetch(record));
  }
  GraphBatch result = GraphBatch::from_graphs(batch);
  // Trim to capacity now that the batch no longer references cache entries
  // (GraphBatch copies everything it needs).
  while (lru_.size() > capacity_) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return result;
}

}  // namespace sgnn
