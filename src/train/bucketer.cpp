#include "sgnn/train/bucketer.hpp"

#include <algorithm>

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

std::vector<GradBucketer::Bucket> GradBucketer::plan(
    std::size_t total_elements, std::size_t bucket_bytes) {
  std::vector<Bucket> buckets;
  if (total_elements == 0) return buckets;
  const std::size_t cap = std::max<std::size_t>(1, bucket_bytes / sizeof(real));
  std::size_t hi = total_elements;
  while (hi > 0) {
    const std::size_t lo = hi > cap ? hi - cap : 0;
    buckets.push_back(Bucket{lo, hi});
    hi = lo;
  }
  return buckets;
}

GradBucketer::GradBucketer(Communicator& comm, const ParamArena& arena,
                           CollectiveKind kind, std::size_t bucket_bytes)
    : comm_(comm), arena_(arena), kind_(kind) {
  SGNN_CHECK(kind == CollectiveKind::kAllReduce ||
                 kind == CollectiveKind::kReduceScatter,
             "GradBucketer buckets gradient all-reduce or reduce-scatter");
  const std::size_t total = arena_.size();
  if (bucket_bytes == 0) bucket_bytes = total * sizeof(real);
  buckets_ = plan(total, bucket_bytes);

  // Buckets overlapping each parameter. plan() tiles [0, total) downward in
  // cap-sized steps, so element x lies in bucket (total - 1 - x) / cap.
  const std::size_t cap = std::max<std::size_t>(1, bucket_bytes / sizeof(real));
  const std::vector<Tensor>& parameters = arena_.parameters();
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    leaf_to_param_.emplace(parameters[i].impl().get(), i);
    const std::size_t lo = arena_.offset(i);
    const std::size_t hi = arena_.offset(i + 1);
    // A zero-element parameter overlaps no bucket; give it an empty range
    // so completion bookkeeping skips it.
    param_buckets_.push_back(hi == lo ? std::pair<std::size_t, std::size_t>{1, 0}
                                      : std::pair{(total - hi) / cap,
                                                  (total - 1 - lo) / cap});
  }

  if (kind_ == CollectiveKind::kReduceScatter) {
    counts_.resize(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      auto& counts = counts_[b];
      counts.assign(static_cast<std::size_t>(comm_.num_ranks()), 0);
      for (int r = 0; r < comm_.num_ranks(); ++r) {
        const auto [s, e] =
            Communicator::shard_range(total, r, comm_.num_ranks());
        const std::size_t lo = std::max(s, buckets_[b].begin);
        const std::size_t hi = std::min(e, buckets_[b].end);
        counts[static_cast<std::size_t>(r)] = hi > lo ? hi - lo : 0;
      }
    }
  }
  handles_.resize(buckets_.size());
  event_index_.assign(buckets_.size(), 0);
}

GradBucketer::~GradBucketer() {
  // A step abandoned mid-flight (exception between post and drain) leaves
  // live handles whose spans the progress engine may still write; block
  // until they settle before the arena can die. Errors are already being
  // reported through the original exception — swallow them here.
  for (auto& handle : handles_) {
    if (!handle.valid()) continue;
    try {
      handle.wait();
    } catch (...) {  // NOLINT
    }
  }
}

void GradBucketer::begin_step(int rank) {
  SGNN_CHECK(!active_, "begin_step() while a bucketed step is in flight");
  SGNN_CHECK(rank >= 0 && rank < comm_.num_ranks(), "invalid rank " << rank);
  rank_ = rank;
  active_ = true;
  param_done_.assign(param_buckets_.size(), false);
  bucket_pending_.assign(buckets_.size(), 0);
  for (const auto& [first, last] : param_buckets_) {
    for (std::size_t b = first; b <= last && b < buckets_.size(); ++b) {
      ++bucket_pending_[b];
    }
  }
  next_post_ = 0;
  std::fill(handles_.begin(), handles_.end(), CollectiveHandle{});
  events_.clear();
  step_timer_.reset();
}

void GradBucketer::on_leaf_grad(const void* leaf) {
  if (!active_) return;
  const auto it = leaf_to_param_.find(leaf);
  if (it == leaf_to_param_.end()) return;  // checkpoint-recompute leaf etc.
  const std::size_t i = it->second;
  if (param_done_[i]) return;
  param_done_[i] = true;
  const auto [first, last] = param_buckets_[i];
  for (std::size_t b = first; b <= last && b < buckets_.size(); ++b) {
    SGNN_CHECK(bucket_pending_[b] > 0, "bucket readiness underflow");
    --bucket_pending_[b];
  }
  post_ready();
}

void GradBucketer::post_ready() {
  // Post strictly in bucket order, holding back buckets that completed
  // early: the post FIFO must be identical on every rank, and autograd's
  // completion order — while deterministic — is a property of the graph,
  // not of the layout.
  while (next_post_ < buckets_.size() && bucket_pending_[next_post_] == 0) {
    post_bucket(next_post_);
    ++next_post_;
  }
}

std::span<real> GradBucketer::shard_piece(std::span<real> buffer,
                                          std::size_t b) const {
  const auto [s, e] =
      Communicator::shard_range(arena_.size(), rank_, comm_.num_ranks());
  const std::size_t lo = std::max(s, buckets_[b].begin);
  const std::size_t hi = std::min(e, buckets_[b].end);
  return hi > lo ? buffer.subspan(lo, hi - lo) : std::span<real>();
}

void GradBucketer::record_post(std::size_t b, CollectiveKind kind) {
  InterconnectModel::OverlapEvent event;
  event.kind = kind;
  event.bytes = (buckets_[b].end - buckets_[b].begin) * sizeof(real);
  event.post_seconds = step_timer_.seconds();
  event.wait_seconds = event.post_seconds;
  event_index_[b] = events_.size();
  events_.push_back(event);
}

void GradBucketer::post_bucket(std::size_t b) {
  const Bucket& bucket = buckets_[b];
  const std::span<real> grads = arena_.grads();
  const std::span<real> payload =
      grads.subspan(bucket.begin, bucket.end - bucket.begin);
  record_post(b, kind_);
  if (kind_ == CollectiveKind::kAllReduce) {
    handles_[b] = comm_.iall_reduce_sum(rank_, payload);
  } else {
    handles_[b] = comm_.ireduce_scatter_counts(rank_, payload, counts_[b],
                                               shard_piece(grads, b));
  }
}

void GradBucketer::post_remaining() {
  SGNN_CHECK(active_, "post_remaining() outside a bucketed step");
  // Sweep up parameters the leaf-grad hook never reported: gradients that
  // arrived through checkpointed segments, or parameters with no gradient
  // at all. Their slices are final once backward() has returned.
  for (std::size_t i = 0; i < param_done_.size(); ++i) {
    if (param_done_[i]) continue;
    param_done_[i] = true;
    const auto [first, last] = param_buckets_[i];
    for (std::size_t b = first; b <= last && b < buckets_.size(); ++b) {
      SGNN_CHECK(bucket_pending_[b] > 0, "bucket readiness underflow");
      --bucket_pending_[b];
    }
  }
  post_ready();
  SGNN_CHECK(next_post_ == buckets_.size(),
             "post_remaining left " << buckets_.size() - next_post_
                                    << " buckets unposted");
}

void GradBucketer::wait_bucket(std::size_t b) {
  events_[event_index_[b]].wait_seconds = step_timer_.seconds();
  handles_[b].wait();
  handles_[b] = CollectiveHandle{};
}

void GradBucketer::drain() {
  SGNN_CHECK(active_, "drain outside a bucketed step");
  const obs::TraceSpan span("bucket_drain", "collective");
  for (std::size_t b = 0; b < buckets_.size(); ++b) wait_bucket(b);
}

void GradBucketer::all_gather_params() {
  SGNN_CHECK(active_, "all_gather_params outside a bucketed step");
  SGNN_CHECK(kind_ == CollectiveKind::kReduceScatter,
             "all_gather_params is the ZeRO parameter path");
  const obs::TraceSpan span("bucket_all_gather", "collective");
  // Post every bucket's gather first (FIFO), then wait them in order.
  const std::span<real> values = arena_.values();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    record_post(b, CollectiveKind::kAllGather);
    handles_[b] = comm_.iall_gather_counts(
        rank_, shard_piece(values, b), counts_[b],
        values.subspan(buckets_[b].begin, buckets_[b].end - buckets_[b].begin));
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) wait_bucket(b);
}

void GradBucketer::end_step() {
  SGNN_CHECK(active_, "end_step() outside a bucketed step");
  active_ = false;
}

std::vector<InterconnectModel::OverlapEvent> GradBucketer::take_events() {
  std::vector<InterconnectModel::OverlapEvent> events;
  events.swap(events_);
  return events;
}

}  // namespace sgnn
