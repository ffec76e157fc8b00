#include "sgnn/comm/communicator.hpp"

#include <algorithm>
#include <numeric>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace comm_detail {

/// Shared completion state of one rank's post (one per handle). The engine
/// flips `done` (or sets `error`) under the mutex and notifies.
struct NbOpState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::string error;  ///< non-empty: wait()/test() throw instead
};

/// One rank's enqueued non-blocking post, parked until every rank's
/// matching post (same position in its FIFO) has arrived.
struct PendingOp {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  int rank = -1;
  std::span<const real> input;      ///< rs input / ag piece
  std::span<real> output;           ///< ar in-out / rs piece / ag gathered
  std::vector<std::size_t> counts;  ///< explicit partition sizes
  std::shared_ptr<NbOpState> state;
};

/// Completes every handle of a matched set, with or without an error.
void finish(std::vector<PendingOp>& ops, const std::string& error) {
  for (auto& op : ops) {
    const std::lock_guard<std::mutex> lock(op.state->mutex);
    op.state->error = error;
    op.state->done = true;
    op.state->cv.notify_all();
  }
}

}  // namespace comm_detail

bool CollectiveHandle::test() const {
  SGNN_CHECK(state_ != nullptr, "test() on an empty CollectiveHandle");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->done && !state_->error.empty()) {
    throw Error(state_->error);
  }
  return state_->done;
}

void CollectiveHandle::wait() const {
  SGNN_CHECK(state_ != nullptr, "wait() on an empty CollectiveHandle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (!state_->error.empty()) {
    throw Error(state_->error);
  }
}

Communicator::Communicator(int num_ranks) : num_ranks_(num_ranks) {
  SGNN_CHECK(num_ranks > 0, "communicator needs at least one rank");
  nb_queues_.resize(static_cast<std::size_t>(num_ranks));
}

Communicator::~Communicator() {
  std::vector<comm_detail::PendingOp> orphans;
  {
    const std::lock_guard<std::mutex> lock(nb_mutex_);
    nb_shutdown_ = true;
    nb_cv_.notify_all();
  }
  if (nb_engine_.joinable()) nb_engine_.join();
  // The engine drains every matchable set before exiting; whatever is left
  // is an un-matchable partial post (some rank never posted its half).
  // Fail those handles so a stray wait() throws instead of hanging forever.
  for (auto& queue : nb_queues_) {
    for (auto& op : queue) orphans.push_back(std::move(op));
    queue.clear();
  }
  comm_detail::finish(orphans,
                      orphans.empty()
                          ? ""
                          : "communicator destroyed with unmatched "
                            "non-blocking collective posts");
}

void Communicator::barrier() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t generation = generation_;
  if (++arrived_ == num_ranks_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return generation_ != generation; });
  }
}

std::pair<std::size_t, std::size_t> Communicator::shard_range(std::size_t n,
                                                              int rank,
                                                              int num_ranks) {
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t R = static_cast<std::size_t>(num_ranks);
  const std::size_t base = n / R;
  const std::size_t extra = n % R;
  const std::size_t begin = r * base + std::min(r, extra);
  const std::size_t size = base + (r < extra ? 1 : 0);
  return {begin, begin + size};
}

void Communicator::all_reduce_sum(int rank, std::span<real> data) {
  obs::TraceSpan span("all_reduce", "collective");
  if (span.active()) {
    span.arg("bytes", static_cast<std::uint64_t>(data.size_bytes()));
  }
  iall_reduce_sum(rank, data).wait();
}

CollectiveHandle Communicator::iall_reduce_sum(int rank,
                                               std::span<real> data) {
  return enqueue({CollectiveKind::kAllReduce, rank, {}, data, {}, nullptr});
}

CollectiveHandle Communicator::ireduce_scatter_counts(
    int rank, std::span<const real> input,
    const std::vector<std::size_t>& counts, std::span<real> piece) {
  return enqueue(
      {CollectiveKind::kReduceScatter, rank, input, piece, counts, nullptr});
}

CollectiveHandle Communicator::iall_gather_counts(
    int rank, std::span<const real> piece,
    const std::vector<std::size_t>& counts, std::span<real> gathered) {
  return enqueue(
      {CollectiveKind::kAllGather, rank, piece, gathered, counts, nullptr});
}

CollectiveHandle Communicator::enqueue(comm_detail::PendingOp op) {
  // Per-rank shape checks fire before anything is queued, so a bad post
  // throws on its own rank instead of failing the matched set.
  SGNN_CHECK(op.rank >= 0 && op.rank < num_ranks_, "invalid rank " << op.rank);
  if (op.kind != CollectiveKind::kAllReduce) {
    SGNN_CHECK(op.counts.size() == static_cast<std::size_t>(num_ranks_),
               "collective needs one count per rank, got "
                   << op.counts.size() << " for " << num_ranks_ << " ranks");
    const std::size_t total =
        std::accumulate(op.counts.begin(), op.counts.end(), std::size_t{0});
    const std::size_t mine = op.counts[static_cast<std::size_t>(op.rank)];
    const bool scatter = op.kind == CollectiveKind::kReduceScatter;
    const std::size_t full = scatter ? op.input.size() : op.output.size();
    const std::size_t piece = scatter ? op.output.size() : op.input.size();
    SGNN_CHECK(full == total, "collective counts sum to "
                                  << total << " but the full buffer has "
                                  << full << " elements");
    SGNN_CHECK(piece == mine, "collective piece has " << piece
                                                      << " elements but counts["
                                                      << op.rank << "] is "
                                                      << mine);
  }
  op.state = std::make_shared<comm_detail::NbOpState>();
  CollectiveHandle handle(op.state);
  {
    const std::lock_guard<std::mutex> lock(nb_mutex_);
    SGNN_CHECK(!nb_shutdown_, "non-blocking post on a shutting-down "
                              "communicator");
    if (!nb_engine_started_) {
      nb_engine_started_ = true;
      nb_engine_ = std::thread([this] { progress_loop(); });
    }
    nb_queues_[static_cast<std::size_t>(op.rank)].push_back(std::move(op));
    nb_cv_.notify_all();
  }
  return handle;
}

namespace {

/// Cross-rank validation of one matched set of posts. Returns an empty
/// string when the set forms a well-posed collective; otherwise the error
/// every handle should fail with. Per-rank shapes were checked at post
/// time; what only the matched set can show is deferred to wait()/test(),
/// since it cannot throw in any rank's thread.
std::string validate_matched(const std::vector<comm_detail::PendingOp>& ops) {
  const comm_detail::PendingOp& first = ops.front();
  for (const auto& op : ops) {
    if (op.kind != first.kind) {
      return "mismatched non-blocking collective kinds across ranks "
             "(SPMD post-order violation)";
    }
    if (first.kind == CollectiveKind::kAllReduce) {
      if (op.output.size() != first.output.size()) {
        return "iall_reduce_sum size mismatch across ranks";
      }
    } else if (op.counts != first.counts) {
      return "non-blocking collective counts differ across ranks";
    }
  }
  return std::string();
}

}  // namespace

void Communicator::progress_loop() {
  for (;;) {
    std::vector<comm_detail::PendingOp> ops;
    {
      std::unique_lock<std::mutex> lock(nb_mutex_);
      const auto matchable = [&] {
        for (const auto& queue : nb_queues_) {
          if (queue.empty()) return false;
        }
        return true;
      };
      nb_cv_.wait(lock, [&] { return nb_shutdown_ || matchable(); });
      // Drain every matchable set even while shutting down — the posts
      // already happened, and their ranks may be blocked in wait().
      if (!matchable()) {
        if (nb_shutdown_) return;
        continue;
      }
      ops.reserve(static_cast<std::size_t>(num_ranks_));
      for (auto& queue : nb_queues_) {
        ops.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    const std::string error = validate_matched(ops);
    if (!error.empty()) {
      comm_detail::finish(ops, error);
      continue;
    }
    // Every input is read into `result` before any output is written, so
    // an output may alias its own rank's input. Reductions sum in fixed
    // rank order, so a buffer's total never depends on how it was split
    // into calls.
    const CollectiveKind kind = ops.front().kind;
    std::vector<real> result;
    if (kind == CollectiveKind::kAllGather) {
      for (const auto& op : ops) {
        result.insert(result.end(), op.input.begin(), op.input.end());
      }
    } else {
      const bool all_reduce = kind == CollectiveKind::kAllReduce;
      result.assign(all_reduce ? ops.front().output.size()
                               : ops.front().input.size(),
                    real{0});
      for (const auto& op : ops) {
        const std::span<const real> src =
            all_reduce ? std::span<const real>(op.output) : op.input;
        for (std::size_t i = 0; i < result.size(); ++i) result[i] += src[i];
      }
    }
    std::size_t offset = 0;
    for (std::size_t r = 0; r < ops.size(); ++r) {
      if (kind == CollectiveKind::kReduceScatter) {
        const std::size_t n = ops.front().counts[r];
        std::copy_n(result.begin() + static_cast<std::ptrdiff_t>(offset), n,
                    ops[r].output.begin());
        offset += n;
      } else {
        std::copy(result.begin(), result.end(), ops[r].output.begin());
      }
    }
    count(kind, result.size() * sizeof(real));
    comm_detail::finish(ops, std::string());
  }
}

void Communicator::count(CollectiveKind kind, std::uint64_t bytes) {
  const char* metric = "comm.all_gather_bytes";
  {
    const std::lock_guard<std::mutex> lock(traffic_mutex_);
    switch (kind) {
      case CollectiveKind::kAllReduce:
        traffic_.all_reduce_bytes += bytes;
        ++traffic_.all_reduce_calls;
        metric = "comm.all_reduce_bytes";
        break;
      case CollectiveKind::kReduceScatter:
        traffic_.reduce_scatter_bytes += bytes;
        ++traffic_.reduce_scatter_calls;
        metric = "comm.reduce_scatter_bytes";
        break;
      case CollectiveKind::kAllGather:
        traffic_.all_gather_bytes += bytes;
        ++traffic_.all_gather_calls;
        break;
    }
    ++traffic_.collective_calls;
  }
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter(metric).add(static_cast<std::int64_t>(bytes));
  registry.counter("comm.collective_calls").add(1);
}

Communicator::Traffic Communicator::traffic() const {
  const std::lock_guard<std::mutex> lock(traffic_mutex_);
  return traffic_;
}

void Communicator::reset_traffic() {
  const std::lock_guard<std::mutex> lock(traffic_mutex_);
  traffic_ = Traffic{};
}

Communicator::Traffic Communicator::Traffic::since(
    const Traffic& earlier) const {
  SGNN_CHECK(earlier.all_reduce_bytes <= all_reduce_bytes &&
                 earlier.reduce_scatter_bytes <= reduce_scatter_bytes &&
                 earlier.all_gather_bytes <= all_gather_bytes &&
                 earlier.all_reduce_calls <= all_reduce_calls &&
                 earlier.reduce_scatter_calls <= reduce_scatter_calls &&
                 earlier.all_gather_calls <= all_gather_calls &&
                 earlier.collective_calls <= collective_calls,
             "Traffic::since called with a later snapshot as `earlier`; "
             "unsigned subtraction would wrap");
  Traffic delta;
  delta.all_reduce_bytes = all_reduce_bytes - earlier.all_reduce_bytes;
  delta.reduce_scatter_bytes =
      reduce_scatter_bytes - earlier.reduce_scatter_bytes;
  delta.all_gather_bytes = all_gather_bytes - earlier.all_gather_bytes;
  delta.all_reduce_calls = all_reduce_calls - earlier.all_reduce_calls;
  delta.reduce_scatter_calls =
      reduce_scatter_calls - earlier.reduce_scatter_calls;
  delta.all_gather_calls = all_gather_calls - earlier.all_gather_calls;
  delta.collective_calls = collective_calls - earlier.collective_calls;
  return delta;
}

double InterconnectModel::all_reduce_seconds(std::uint64_t bytes,
                                             int ranks) const {
  if (ranks <= 1) return 0.0;
  const double steps = 2.0 * (ranks - 1);
  return steps * (static_cast<double>(bytes) / ranks /
                  link_bandwidth_bytes_per_s);
}

double InterconnectModel::reduce_scatter_seconds(std::uint64_t bytes,
                                                 int ranks) const {
  if (ranks <= 1) return 0.0;
  const double steps = static_cast<double>(ranks - 1);
  return steps * (static_cast<double>(bytes) / ranks /
                  link_bandwidth_bytes_per_s);
}

double InterconnectModel::all_gather_seconds(std::uint64_t bytes,
                                             int ranks) const {
  return reduce_scatter_seconds(bytes, ranks);
}

double InterconnectModel::all_reduce_latency_seconds(int ranks) const {
  if (ranks <= 1) return 0.0;
  return 2.0 * (ranks - 1) * latency_seconds;
}

double InterconnectModel::reduce_scatter_latency_seconds(int ranks) const {
  if (ranks <= 1) return 0.0;
  return static_cast<double>(ranks - 1) * latency_seconds;
}

double InterconnectModel::all_gather_latency_seconds(int ranks) const {
  return reduce_scatter_latency_seconds(ranks);
}

double InterconnectModel::seconds(const Communicator::Traffic& traffic,
                                  int ranks) const {
  return all_reduce_seconds(traffic.all_reduce_bytes, ranks) +
         reduce_scatter_seconds(traffic.reduce_scatter_bytes, ranks) +
         all_gather_seconds(traffic.all_gather_bytes, ranks) +
         static_cast<double>(traffic.all_reduce_calls) *
             all_reduce_latency_seconds(ranks) +
         static_cast<double>(traffic.reduce_scatter_calls) *
             reduce_scatter_latency_seconds(ranks) +
         static_cast<double>(traffic.all_gather_calls) *
             all_gather_latency_seconds(ranks);
}

double InterconnectModel::call_seconds(CollectiveKind kind,
                                       std::uint64_t bytes, int ranks) const {
  switch (kind) {
    case CollectiveKind::kAllReduce:
      return all_reduce_seconds(bytes, ranks) +
             all_reduce_latency_seconds(ranks);
    case CollectiveKind::kReduceScatter:
      return reduce_scatter_seconds(bytes, ranks) +
             reduce_scatter_latency_seconds(ranks);
    case CollectiveKind::kAllGather:
      return all_gather_seconds(bytes, ranks) +
             all_gather_latency_seconds(ranks);
  }
  SGNN_CHECK(false, "unknown CollectiveKind");
  return 0.0;
}

InterconnectModel::OverlapCost InterconnectModel::overlap_cost(
    const std::vector<OverlapEvent>& events, int ranks) const {
  OverlapCost cost;
  // The fabric is serial: op i occupies it for its modeled duration
  // starting no earlier than its (stall-adjusted) post time and no earlier
  // than the previous op's finish. Whenever a wait() arrives before its
  // op's modeled finish, the shortfall is exposed stall, and it pushes
  // every later measured timestamp out by the same amount (the rank's
  // clock ran while the fabric's did not).
  double fabric_free = 0.0;  // when the modeled fabric next becomes idle
  double stall = 0.0;        // accumulated exposed time so far
  double prev_post = 0.0;
  for (const auto& event : events) {
    SGNN_CHECK(event.wait_seconds >= event.post_seconds,
               "overlap event waited before it was posted");
    SGNN_CHECK(event.post_seconds >= prev_post,
               "overlap events must be FIFO-ordered by post time");
    prev_post = event.post_seconds;
    const double duration = call_seconds(event.kind, event.bytes, ranks);
    const double start = std::max(event.post_seconds + stall, fabric_free);
    const double finish = start + duration;
    fabric_free = finish;
    const double now = event.wait_seconds + stall;
    const double exposed = std::max(0.0, finish - now);
    stall += exposed;
    cost.total_seconds += duration;
    cost.exposed_seconds += exposed;
    ++cost.ops;
  }
  cost.overlapped_seconds = cost.total_seconds - cost.exposed_seconds;
  return cost;
}

}  // namespace sgnn
