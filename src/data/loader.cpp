#include "sgnn/data/loader.hpp"

#include <algorithm>
#include <numeric>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

EpochSampler::EpochSampler(std::size_t size, std::int64_t batch_size,
                           std::uint64_t seed, bool shuffle, bool drop_last)
    : order_(size),
      batch_size_(static_cast<std::size_t>(batch_size)),
      rng_(seed),
      shuffle_(shuffle),
      drop_last_(drop_last) {
  SGNN_CHECK(size > 0, "batch sampler needs at least one sample");
  SGNN_CHECK(batch_size > 0, "batch size must be positive");
  // num_batches() rounds up with `size + batch_size - 1`; bound the batch
  // size so that sum can never wrap.
  SGNN_CHECK(batch_size <= (std::int64_t{1} << 30),
             "batch size " << batch_size << " is implausibly large");
  std::iota(order_.begin(), order_.end(), 0);
  begin_epoch();
}

std::int64_t EpochSampler::num_batches() const {
  const std::size_t n = order_.size();
  return static_cast<std::int64_t>(
      drop_last_ ? n / batch_size_ : (n + batch_size_ - 1) / batch_size_);
}

void EpochSampler::begin_epoch() {
  cursor_ = 0;
  if (shuffle_) rng_.shuffle(order_);
}

bool EpochSampler::has_next() const {
  return drop_last_ ? order_.size() - cursor_ >= batch_size_
                    : cursor_ < order_.size();
}

std::span<const std::size_t> EpochSampler::next() {
  SGNN_CHECK(has_next(), "next() called on exhausted epoch");
  const std::size_t count = std::min(batch_size_, order_.size() - cursor_);
  const std::span<const std::size_t> batch(order_.data() + cursor_, count);
  cursor_ += count;
  return batch;
}

EpochSampler::State EpochSampler::state() const {
  State state;
  state.rng = rng_.state();
  state.order.assign(order_.begin(), order_.end());
  state.cursor = cursor_;
  state.batch_size = batch_size_;
  return state;
}

void EpochSampler::restore_state(const State& state) {
  SGNN_CHECK(state.order.size() == order_.size(),
             "sampler state covers " << state.order.size()
                                     << " samples, sampler holds "
                                     << order_.size());
  SGNN_CHECK(state.batch_size == batch_size_,
             "sampler state was taken at batch size "
                 << state.batch_size << ", sampler draws batches of "
                 << batch_size_);
  SGNN_CHECK(state.cursor <= state.order.size(),
             "sampler state cursor out of range");
  for (const auto index : state.order) {
    SGNN_CHECK(index < order_.size(),
               "sampler state order index " << index << " out of range");
  }
  rng_.set_state(state.rng);
  order_.assign(state.order.begin(), state.order.end());
  cursor_ = state.cursor;
}

DataLoader::DataLoader(std::vector<const MolecularGraph*> graphs,
                       std::int64_t batch_size, std::uint64_t seed,
                       bool shuffle)
    : graphs_(std::move(graphs)),
      sampler_(graphs_.size(), batch_size, seed, shuffle) {}

GraphBatch DataLoader::next() {
  obs::TraceSpan span("next_batch", "data");
  std::vector<const MolecularGraph*> batch;
  for (const std::size_t index : sampler_.next()) {
    batch.push_back(graphs_[index]);
  }
  GraphBatch result = GraphBatch::from_graphs(batch);
  if (span.active()) {
    span.arg("graphs", result.num_graphs).arg("atoms", result.num_nodes);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.counter("data.batches").add(1);
  registry.counter("data.graphs").add(result.num_graphs);
  return result;
}

}  // namespace sgnn
