#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "sgnn/tensor/tensor.hpp"

namespace sgnn {

/// The three collective primitives, as an enum so cost accounting can be
/// parameterized over the kind (see InterconnectModel::overlap_cost).
enum class CollectiveKind {
  kAllReduce,
  kReduceScatter,
  kAllGather,
};

namespace comm_detail {
struct NbOpState;
struct PendingOp;
}  // namespace comm_detail

/// Request object of a non-blocking collective (the MPI_Request analogue).
/// The posting rank keeps computing while the communicator's progress
/// engine matches and executes the operation; the buffers handed to the
/// post call must stay alive and untouched until wait() (or a true test())
/// returns. Handles are cheap shared references; destroying an un-waited
/// handle does NOT cancel the operation.
class CollectiveHandle {
 public:
  CollectiveHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// Polls for completion without blocking. Throws the deferred Error when
  /// the progress engine rejected the operation (mismatched SPMD posts).
  bool test() const;
  /// Blocks until the operation completes; rethrows deferred errors.
  void wait() const;

 private:
  friend class Communicator;
  explicit CollectiveHandle(std::shared_ptr<comm_detail::NbOpState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<comm_detail::NbOpState> state_;
};

/// In-process multi-rank communicator: N simulated GPUs, one thread each,
/// exchanging data through shared memory with MPI/NCCL-style collective
/// semantics. Collective *results* are exact (tests pin them against
/// sequential reductions); collective *cost* is tracked as the byte volume
/// a ring implementation of each primitive would move, which the
/// InterconnectModel converts to time. This is the stand-in for the
/// NVLink-connected A100 quads of the paper's Perlmutter nodes.
///
/// All collectives are SPMD: every rank must call the same operation in the
/// same order. Every collective runs on one progress engine; the blocking
/// calls are a post plus a wait, so a mismatch fails the handles (wait()
/// throws) instead of deadlocking.
class Communicator {
 public:
  explicit Communicator(int num_ranks);
  /// Joins the progress engine; outstanding un-matched non-blocking posts
  /// are failed (their wait() throws) rather than left to deadlock.
  ~Communicator();
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int num_ranks() const { return num_ranks_; }

  /// Blocks until all ranks arrive.
  void barrier();

  /// In-place elementwise sum across ranks; every rank ends with the total.
  void all_reduce_sum(int rank, std::span<real> data);

  // -- Non-blocking collectives ---------------------------------------------
  //
  // MPI-style immediate variants: the call enqueues the operation with the
  // communicator's progress engine and returns a CollectiveHandle; the rank
  // keeps computing and synchronizes via wait()/test(). SPMD matching is by
  // per-rank post order: the i-th non-blocking post of every rank forms one
  // logical collective, so all ranks MUST post the same kinds/sizes in the
  // same order (a mismatch fails the handles instead of deadlocking).
  // Every reduction sums in fixed rank order, so results never depend on
  // how a buffer is split into calls. Buffers belong to the engine until
  // completion; an output may overlap its own rank's input (a gradient
  // bucket reduce-scatters into its own shard, ZeRO gathers parameters
  // into the buffer holding its piece), because the engine reads every
  // input before it writes any output.

  /// Non-blocking all_reduce_sum: `data` holds the elementwise total across
  /// ranks once the handle completes.
  CollectiveHandle iall_reduce_sum(int rank, std::span<real> data);

  /// Non-blocking reduce-scatter with an EXPLICIT partition: `counts[r]`
  /// elements go to rank r (counts must be identical on every rank and sum
  /// to input.size(); piece.size() must be counts[rank]). On completion
  /// `piece` holds the elementwise sum of this rank's partition slice. The
  /// shard_range partition is the special case counts[r] =
  /// |shard_range(n,r,R)|; explicit counts are what lets a gradient bucket
  /// scatter along GLOBAL shard boundaries rather than bucket-local ones.
  CollectiveHandle ireduce_scatter_counts(int rank,
                                          std::span<const real> input,
                                          const std::vector<std::size_t>& counts,
                                          std::span<real> piece);

  /// Non-blocking all-gather with explicit per-rank piece sizes (the inverse
  /// of ireduce_scatter_counts). `piece.size()` must equal counts[rank] and
  /// `gathered.size()` the sum of counts; on completion `gathered` holds the
  /// rank-order concatenation of all pieces.
  CollectiveHandle iall_gather_counts(int rank, std::span<const real> piece,
                                      const std::vector<std::size_t>& counts,
                                      std::span<real> gathered);

  /// Payload bytes and call counts per collective so far (counted once per
  /// call, not per rank). InterconnectModel turns payloads into ring-
  /// algorithm bandwidth time and call counts into launch-latency time.
  struct Traffic {
    std::uint64_t all_reduce_bytes = 0;
    std::uint64_t reduce_scatter_bytes = 0;
    std::uint64_t all_gather_bytes = 0;
    std::uint64_t all_reduce_calls = 0;
    std::uint64_t reduce_scatter_calls = 0;
    std::uint64_t all_gather_calls = 0;
    std::uint64_t collective_calls = 0;  ///< total across all three kinds

    std::uint64_t total_bytes() const {
      return all_reduce_bytes + reduce_scatter_bytes + all_gather_bytes;
    }

    /// Elementwise difference (this minus `earlier`); the per-step traffic
    /// attribution the trainers feed to InterconnectModel::seconds.
    /// SGNN_CHECKs that every field of `earlier` is <= this snapshot's —
    /// swapping the arguments would silently wrap the unsigned subtraction
    /// into astronomically large byte counts.
    Traffic since(const Traffic& earlier) const;
  };
  Traffic traffic() const;
  void reset_traffic();

  /// Shard [begin, end) of a buffer of length n for rank r — the partition
  /// of ZeRO's state shards and of the gradient buckets' global shards.
  static std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                         int rank,
                                                         int num_ranks);

 private:
  /// Checks `op`'s rank and shapes, enqueues it for its rank with the
  /// progress engine (starting the engine thread on first use) and returns
  /// the caller's handle.
  CollectiveHandle enqueue(comm_detail::PendingOp op);
  /// Progress-engine body: matches same-sequence posts across ranks,
  /// executes them, and completes (or fails) the handles.
  void progress_loop();
  /// Records one executed collective in the traffic counters and obs
  /// metrics — exactly once per logical op, at execution time.
  void count(CollectiveKind kind, std::uint64_t bytes);

  int num_ranks_;

  // Reusable sense-reversing barrier.
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;

  // Non-blocking progress engine: one FIFO of pending posts per rank, one
  // lazily-started worker thread that executes a logical collective once
  // every rank's next post has arrived.
  std::mutex nb_mutex_;
  std::condition_variable nb_cv_;
  std::vector<std::deque<comm_detail::PendingOp>> nb_queues_;
  bool nb_shutdown_ = false;
  bool nb_engine_started_ = false;
  std::thread nb_engine_;

  mutable std::mutex traffic_mutex_;
  Traffic traffic_;  ///< written by the progress engine
};

/// Analytic cost model of the intra-node fabric (NVLink-3-class numbers:
/// the paper's nodes pair four A100s over NVLink-3). Used to attribute a
/// wall-clock cost to collective traffic, since in-process exchange is
/// otherwise free.
///
/// The bandwidth term of each collective is PURE (a linear function of the
/// payload bytes, no latency folded in), and the launch latency is charged
/// separately per call via the *_latency_seconds accessors. That split
/// keeps the model additive: the time of an aggregate Traffic equals the
/// sum over any partition of it into per-step deltas — see seconds().
struct InterconnectModel {
  double link_bandwidth_bytes_per_s = 100.0e9;  ///< per direction, per pair
  double latency_seconds = 3.0e-6;              ///< per collective step

  /// Ring all-reduce: 2(R-1) steps, each moving n/R bytes per rank.
  /// Bandwidth term only; additive over payload bytes.
  double all_reduce_seconds(std::uint64_t bytes, int ranks) const;
  /// Ring reduce-scatter / all-gather: (R-1) steps of n/R bytes.
  double reduce_scatter_seconds(std::uint64_t bytes, int ranks) const;
  double all_gather_seconds(std::uint64_t bytes, int ranks) const;

  /// Launch latency of ONE call of each collective (steps x per-step
  /// latency). Multiply by the call count for the latency of many calls.
  double all_reduce_latency_seconds(int ranks) const;
  double reduce_scatter_latency_seconds(int ranks) const;
  double all_gather_latency_seconds(int ranks) const;

  /// Total modeled fabric time for a traffic record (aggregate or delta):
  /// per-kind bandwidth terms plus per-call latency from the call counts.
  /// Both trainers use this for per-step and aggregate accounting, so the
  /// two views stay consistent by construction.
  double seconds(const Communicator::Traffic& traffic, int ranks) const;

  /// Modeled time of ONE collective call: bandwidth term + launch latency.
  double call_seconds(CollectiveKind kind, std::uint64_t bytes,
                      int ranks) const;

  /// One posted non-blocking collective on a rank's compute timeline:
  /// post/wait stamps are wall-clock offsets (seconds since the step
  /// started) measured by the posting rank. FIFO contract: events must be
  /// ordered by post time AND waited in the same order (which is how the
  /// GradBucketer drains).
  struct OverlapEvent {
    CollectiveKind kind = CollectiveKind::kAllReduce;
    std::uint64_t bytes = 0;
    double post_seconds = 0;  ///< when the op was posted
    double wait_seconds = 0;  ///< when the drain started waiting on it
  };

  /// Split of a step's modeled comm time into the part hidden behind
  /// compute and the part the rank would stall on.
  struct OverlapCost {
    double total_seconds = 0;      ///< sum of per-op modeled durations
    double exposed_seconds = 0;    ///< stall time not hidden by compute
    double overlapped_seconds = 0; ///< total - exposed
    std::int64_t ops = 0;
  };

  /// Prices a FIFO sequence of non-blocking collectives honestly: each op
  /// occupies the (serial) fabric for its modeled duration starting at
  /// max(post time, fabric free); at its wait, whatever of that duration
  /// has not yet elapsed on the rank's stall-adjusted clock is EXPOSED and
  /// pushes every later stamp out by the same amount. With no compute
  /// between post and wait this degrades to the all-exposed accounting
  /// (exposed == total); with enough compute everything overlaps.
  OverlapCost overlap_cost(const std::vector<OverlapEvent>& events,
                           int ranks) const;
};

}  // namespace sgnn
