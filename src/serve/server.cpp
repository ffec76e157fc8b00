#include "sgnn/serve/server.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "sgnn/graph/batch.hpp"
#include "sgnn/graph/graph.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/ops.hpp"

namespace sgnn::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Counter& failed;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& batches;
  obs::Counter& batch_graphs;
  obs::Counter& weight_swaps;
  obs::Gauge& queue_depth;
  obs::Histogram& latency;
  obs::Histogram& failed_latency;

  static ServeMetrics& instance() {
    auto& registry = obs::MetricsRegistry::instance();
    static ServeMetrics metrics{
        registry.counter("serve.requests.submitted"),
        registry.counter("serve.requests.completed"),
        registry.counter("serve.requests.rejected"),
        registry.counter("serve.requests.failed"),
        registry.counter("serve.cache.hits"),
        registry.counter("serve.cache.misses"),
        registry.counter("serve.batches"),
        registry.counter("serve.batch.graphs"),
        registry.counter("serve.weights.swaps"),
        registry.gauge("serve.queue.depth"),
        registry.histogram("serve.latency_seconds"),
        registry.histogram("serve.failed_latency_seconds"),
    };
    return metrics;
  }
};

}  // namespace

void Server::finish(Pending& pending, InferenceResult result) {
  const obs::prof::ProfRegion prof("serve.finish");
  ServeMetrics& metrics = ServeMetrics::instance();
  metrics.latency.observe(seconds_since(pending.enqueued));
  metrics.completed.add();
  if (obs::tracing_enabled()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    obs::TraceEvent event;
    event.name = "serve.request";
    event.category = "serve";
    event.begin_us = pending.trace_begin_us;
    event.end_us = recorder.now_us();
    event.tid = obs::TraceRecorder::current_tid();
    event.rank = obs::TraceRecorder::current_rank();
    event.args.emplace_back("atoms",
                            std::to_string(pending.request.structure.num_atoms()));
    event.args.emplace_back("forces",
                            pending.request.compute_forces ? "1" : "0");
    event.args.emplace_back("cache_hit", result.cache_hit ? "1" : "0");
    recorder.record(std::move(event));
  }
  pending.promise.set_value(std::move(result));
}

void Server::fail(Pending& pending, std::exception_ptr error) {
  ServeMetrics& metrics = ServeMetrics::instance();
  metrics.failed_latency.observe(seconds_since(pending.enqueued));
  metrics.failed.add();
  pending.promise.set_exception(std::move(error));
}

Server::Server(const ModelConfig& config, std::string model_payload,
               const ServerOptions& options)
    : config_(config), options_(options), cache_(options.cache_capacity) {
  const obs::prof::ProfRegion prof("serve.start");
  SGNN_CHECK(options_.num_workers > 0, "server needs at least one worker");
  SGNN_CHECK(options_.max_batch_graphs > 0 && options_.max_batch_atoms > 0,
             "batch budgets must be positive");
  // Validate the payload up front: constructing the server with torn or
  // mismatched weights must fail loudly, not at the first request.
  EGNNModel probe(config_);
  load_model_payload(probe, model_payload);
  payload_ = std::make_shared<const std::string>(std::move(model_payload));
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

Server::~Server() { stop(); }

std::future<InferenceResult> Server::submit(InferenceRequest request) {
  const obs::prof::ProfRegion prof("serve.submit");
  ServeMetrics& metrics = ServeMetrics::instance();
  metrics.submitted.add();

  Pending pending;
  pending.enqueued = Clock::now();
  pending.trace_begin_us =
      obs::tracing_enabled() ? obs::TraceRecorder::instance().now_us() : 0;
  // canonicalize() validates the structure; additionally pin the species
  // range here so a bad request fails at admission, not inside a worker's
  // embedding lookup mid-batch.
  for (const int species : request.structure.species) {
    SGNN_CHECK(species >= 0 && species < config_.num_species,
               "request species " << species
                                  << " outside the model's vocabulary [0, "
                                  << config_.num_species << ")");
  }
  pending.key = canonicalize(request.structure);
  pending.request = std::move(request);

  // Degenerate but well-formed request: no atoms means zero energy and no
  // forces; answer directly instead of batching an empty graph.
  if (pending.request.structure.num_atoms() == 0) {
    InferenceResult result;
    result.weights_version = weights_version();
    std::future<InferenceResult> future = pending.promise.get_future();
    finish(pending, std::move(result));
    return future;
  }

  CachedResult cached;
  if (cache_.lookup(pending.key, pending.request.compute_forces,
                    weights_version(), cached)) {
    metrics.cache_hits.add();
    InferenceResult result;
    result.energy = cached.energy;
    result.cache_hit = true;
    result.weights_version = cached.weights_version;
    if (pending.request.compute_forces) {
      // Cached forces are in canonical atom order; map them back into this
      // request's order (exact for permuted/translated duplicates).
      result.forces.resize(pending.key.perm.size());
      for (std::size_t i = 0; i < pending.key.perm.size(); ++i) {
        result.forces[i] =
            cached.forces[static_cast<std::size_t>(pending.key.perm[i])];
      }
    }
    std::future<InferenceResult> future = pending.promise.get_future();
    finish(pending, std::move(result));
    return future;
  }
  metrics.cache_misses.add();

  std::future<InferenceResult> future = pending.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      metrics.rejected.add();
      throw RejectedError(RejectReason::kShuttingDown,
                          "serve: server is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      metrics.rejected.add();
      throw RejectedError(RejectReason::kQueueFull,
                          "serve: request queue full (" +
                              std::to_string(options_.max_queue) +
                              " pending); shed");
    }
    queue_.push_back(std::move(pending));
    metrics.queue_depth.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

void Server::swap_weights(std::string model_payload) {
  const obs::prof::ProfRegion prof("serve.swap_weights");
  // Full validation against a scratch replica BEFORE publishing: a corrupt
  // or mismatched payload throws here and the served weights are untouched.
  EGNNModel probe(config_);
  load_model_payload(probe, model_payload);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    payload_ = std::make_shared<const std::string>(std::move(model_payload));
    version_.fetch_add(1, std::memory_order_acq_rel);
  }
  ServeMetrics::instance().weight_swaps.add();
}

void Server::stop() {
  const obs::prof::ProfRegion prof("serve.stop");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void Server::worker_loop(int worker_id) {
  obs::ScopedTraceRank rank(worker_id);
  // The replica: an immutable model copy owned by this worker alone, so a
  // concurrent swap can never expose another thread to half-written
  // weights. Parameters are frozen once — force requests differentiate
  // w.r.t. positions only, and backward must not accumulate into weights.
  EGNNModel model(config_);
  for (auto& parameter : model.parameters()) {
    parameter.set_requires_grad(false);
  }
  std::uint64_t loaded_version = 0;

  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ and fully drained
      // Dynamic batching: take pending requests up to the graph budget and
      // the atom budget (the first request always fits, so an oversized
      // structure still gets served — alone).
      std::int64_t atoms = 0;
      while (!queue_.empty() &&
             static_cast<std::int64_t>(batch.size()) <
                 options_.max_batch_graphs) {
        const std::int64_t n = queue_.front().request.structure.num_atoms();
        if (!batch.empty() && atoms + n > options_.max_batch_atoms) break;
        atoms += n;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ServeMetrics::instance().queue_depth.set(
          static_cast<double>(queue_.size()));
    }
    if (batch.empty()) continue;

    // Weight-version check at the batch boundary: swaps are zero-downtime
    // because a replica reloads only between batches, never mid-request.
    std::shared_ptr<const std::string> payload;
    std::uint64_t version = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      version = version_.load(std::memory_order_acquire);
      payload = payload_;
    }
    if (version != loaded_version) {
      const obs::prof::ProfRegion reload("serve.weights_reload");
      load_model_payload(model, *payload);
      loaded_version = version;
    }
    process_batch(batch, model, loaded_version);
  }
}

void Server::process_batch(std::vector<Pending>& batch, EGNNModel& model,
                           std::uint64_t model_version) {
  const obs::prof::ProfRegion prof("serve.batch");
  const obs::TraceSpan span("serve.batch", "serve");
  ServeMetrics& metrics = ServeMetrics::instance();
  metrics.batches.add();
  metrics.batch_graphs.add(static_cast<std::int64_t>(batch.size()));

  // Split by gradient need so the energy-only sub-batch runs entirely under
  // NoGradGuard (zero tape nodes), while the force sub-batch records the
  // position-gradient graph once for all its requests.
  std::vector<Pending*> energy_only;
  std::vector<Pending*> with_forces;
  for (auto& pending : batch) {
    (pending.request.compute_forces ? with_forces : energy_only)
        .push_back(&pending);
  }
  run_group(energy_only, model, model_version, /*want_forces=*/false);
  run_group(with_forces, model, model_version, /*want_forces=*/true);
}

void Server::run_group(std::vector<Pending*>& group, EGNNModel& model,
                       std::uint64_t model_version, bool want_forces) {
  const obs::prof::ProfRegion prof(want_forces ? "serve.forward_backward"
                                               : "serve.forward");
  // Each request's graph is built on its own, so a structure the
  // neighbor search rejects fails only its own request.
  std::vector<Pending*> built;
  std::vector<MolecularGraph> graphs;
  graphs.reserve(group.size());
  {
    const obs::prof::ProfRegion build("serve.graph_build");
    for (Pending* pending : group) {
      try {
        graphs.push_back(MolecularGraph::from_structure(
            pending->request.structure, config_.cutoff));
        built.push_back(pending);
      } catch (...) {
        fail(*pending, std::current_exception());
      }
    }
  }
  if (built.empty()) return;
  try {
    GraphBatch packed = GraphBatch::from_graphs(graphs);

    Tensor energies;
    Tensor position_grad;
    if (want_forces) {
      // Position-gradient forces with frozen parameters: the tape follows
      // positions only, and backward accumulates nothing into weights.
      packed.positions.set_requires_grad(true);
      const EGNNModel::Output out = model.forward(packed);
      energies = out.energy;
      Tensor total = sum(out.energy);
      total.backward();
      position_grad = packed.positions.grad();
      SGNN_CHECK(position_grad.defined(),
                 "force inference produced no position gradient");
    } else {
      const autograd::NoGradGuard guard;
      const EGNNModel::Output out = model.forward(packed);
      energies = out.energy;
    }

    const real* energy = energies.data();
    const real* grad = want_forces ? position_grad.data() : nullptr;
    std::int64_t node_offset = 0;
    for (std::size_t gi = 0; gi < built.size(); ++gi) {
      Pending& pending = *built[gi];
      const std::int64_t n = graphs[gi].num_nodes();
      // A non-finite answer fails its own request and is never cached.
      bool finite = std::isfinite(energy[gi]);
      for (std::int64_t k = 0; want_forces && k < 3 * n; ++k) {
        finite = finite && std::isfinite(grad[node_offset * 3 + k]);
      }
      if (!finite) {
        fail(pending, std::make_exception_ptr(Error(
                          "inference produced a non-finite energy or force")));
        node_offset += n;
        continue;
      }
      InferenceResult result;
      result.energy = energy[gi];
      result.weights_version = model_version;
      CachedResult to_cache;
      to_cache.energy = result.energy;
      to_cache.weights_version = model_version;
      if (want_forces) {
        result.forces.resize(static_cast<std::size_t>(n));
        to_cache.has_forces = true;
        to_cache.forces.resize(static_cast<std::size_t>(n));
        for (std::int64_t a = 0; a < n; ++a) {
          const std::size_t row = static_cast<std::size_t>(node_offset + a);
          // Conservative forces: F = -dE/dx.
          const Vec3 force{-grad[row * 3 + 0], -grad[row * 3 + 1],
                           -grad[row * 3 + 2]};
          result.forces[static_cast<std::size_t>(a)] = force;
          // The cache stores forces in canonical atom order so permuted
          // duplicates can be answered from it.
          to_cache.forces[static_cast<std::size_t>(
              pending.key.perm[static_cast<std::size_t>(a)])] = force;
        }
      }
      cache_.insert(pending.key, std::move(to_cache));
      finish(pending, std::move(result));
      node_offset += n;
    }
  } catch (...) {
    for (Pending* pending : built) fail(*pending, std::current_exception());
  }
}

}  // namespace sgnn::serve
