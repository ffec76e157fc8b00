#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sgnn/graph/structure.hpp"
#include "sgnn/nn/egnn.hpp"
#include "sgnn/serve/cache.hpp"
#include "sgnn/util/error.hpp"

// Batched inference serving on the forward-only path (the ROADMAP's
// production target). One Server owns:
//   - a bounded request queue with admission control (shed-on-full),
//   - worker threads that drain it with dynamic batching: variable-size
//     atomic graphs are packed into one disjoint-union GraphBatch up to a
//     graph-count and atom-count budget per batch,
//   - a replica pool: each worker holds its own immutable EGNNModel copy
//     (parameters frozen), refreshed from a versioned payload at batch
//     boundaries, so swap_weights() is zero-downtime and no request ever
//     observes a half-written model,
//   - a translation/permutation-invariant LRU result cache (cache.hpp).
// Energy-only requests run under autograd::NoGradGuard (no tape is
// allocated); force requests differentiate the energy w.r.t. positions with
// parameter gradients disabled and return F = -dE/dx.

namespace sgnn::serve {

/// Why the server refused a request.
enum class RejectReason : int {
  kQueueFull = 0,     ///< admission control shed the request
  kShuttingDown = 1,  ///< stop() was called (or the server is destructing)
};

/// Typed rejection thrown by Server::submit so callers can tell overload
/// (retry later, back off) from shutdown (give up) without string matching.
class RejectedError : public Error {
 public:
  RejectedError(RejectReason reason, const std::string& what)
      : Error(what), reason_(reason) {}
  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

struct InferenceRequest {
  AtomicStructure structure;
  /// When false only the energy is computed (cheaper: no backward pass).
  bool compute_forces = false;
};

struct InferenceResult {
  double energy = 0.0;              ///< model energy, eV
  std::vector<Vec3> forces;         ///< -dE/dx per atom; empty unless requested
  bool cache_hit = false;
  std::uint64_t weights_version = 0;  ///< version that produced this result
};

struct ServerOptions {
  int num_workers = 2;                  ///< replica count (one model each)
  std::size_t max_queue = 1024;         ///< pending-request admission bound
  std::int64_t max_batch_graphs = 16;   ///< dynamic-batch graph budget
  std::int64_t max_batch_atoms = 4096;  ///< dynamic-batch atom budget
  std::size_t cache_capacity = 4096;    ///< LRU entries; 0 disables caching
};

/// Batched inference server over one model architecture. Construction
/// spawns the worker replicas from a serialized model payload
/// (model_payload_bytes); the destructor drains the queue and joins them.
///
/// Thread safety: submit / swap_weights / stop and the observers may be
/// called concurrently from any thread.
class Server {
 public:
  Server(const ModelConfig& config, std::string model_payload,
         const ServerOptions& options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one request and returns the future result. Cache hits
  /// complete synchronously without touching the queue. Throws
  /// RejectedError when the queue is at max_queue (kQueueFull) or the
  /// server is stopping (kShuttingDown); throws Error on an invalid
  /// structure.
  std::future<InferenceResult> submit(InferenceRequest request);

  /// Publishes new weights (a model_payload_bytes payload for the same
  /// architecture). Validates the payload fully before publishing; in-
  /// flight batches complete on the weights they started with, subsequent
  /// batches use the new version. Throws Error on a mismatched or corrupt
  /// payload, leaving the served weights unchanged.
  void swap_weights(std::string model_payload);

  /// Stops accepting requests, drains the pending queue, joins workers.
  /// Every request admitted before stop() still completes. Idempotent.
  void stop();

  std::uint64_t weights_version() const {
    return version_.load(std::memory_order_acquire);
  }
  std::size_t queue_depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }
  StructureCache::Stats cache_stats() const { return cache_.stats(); }
  const ServerOptions& options() const { return options_; }
  const ModelConfig& config() const { return config_; }

 private:
  /// One admitted, not-yet-answered request. The canonical key is computed
  /// at admission (it doubles as request validation) so workers can insert
  /// into the cache without re-canonicalizing.
  struct Pending {
    InferenceRequest request;
    CanonicalKey key;
    std::promise<InferenceResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::int64_t trace_begin_us = 0;
  };

  void worker_loop(int worker_id);
  void process_batch(std::vector<Pending>& batch, EGNNModel& model,
                     std::uint64_t model_version);
  /// Runs one gradient-homogeneous sub-batch (all-energy or all-forces).
  void run_group(std::vector<Pending*>& group, EGNNModel& model,
                 std::uint64_t model_version, bool want_forces);
  /// Completes one request: promise, latency metric, per-request span.
  void finish(Pending& pending, InferenceResult result);
  /// Fails one request: promise, failed-latency metric.
  void fail(Pending& pending, std::exception_ptr error);

  ModelConfig config_;
  ServerOptions options_;
  StructureCache cache_;

  mutable std::mutex mutex_;            ///< guards queue_, payload_, stopping_
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::shared_ptr<const std::string> payload_;
  std::atomic<std::uint64_t> version_{1};
  bool stopping_ = false;

  // Long-lived worker replicas, one model copy each — a different shape of
  // concurrency than parallel_for's fork-join lanes, so serve is (with
  // comm) one of the two subsystems the thread lint admits.
  std::vector<std::thread> workers_;
};

}  // namespace sgnn::serve
