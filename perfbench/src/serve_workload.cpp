// serve_mixed: sgnn::serve::Server (h=32, depth 3, two workers with one
// compute lane each) under a closed loop from two client threads. The
// seeded request list mixes fresh structures from all five sources (cache
// misses, 20% asking for forces) with repeats of a small resident set that
// setup warms into the cache (hits). It is a closed loop because each
// client waits for its answer before sending the next request; open-loop
// latency did not repeat on a shared 4-vCPU VM.

#include <cmath>
#include <memory>
#include <thread>

#include "inputs.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/serve/server.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSetups = 5;
/// Request rounds (each 100 fresh + 30 repeated requests, about 0.6 s of
/// wall time) per second of --seconds.
constexpr double kRoundsPerSecond = 1.6;
constexpr std::int64_t kMinRounds = 8;
/// Requests whose served answer is compared with a direct forward.
constexpr std::size_t kCheckedMisses = 24;
constexpr std::size_t kCheckedHits = 8;
/// Misses replayed layer by layer in the traced run.
constexpr std::size_t kReplayedMisses = 200;

sgnn::ModelConfig model_config(const ServeInputs& inputs) {
  sgnn::ModelConfig config;
  config.hidden_dim = 32;
  config.num_layers = 3;
  config.seed = inputs.model_seed;
  return config;
}

struct Outcome {
  bool ok = false;
  bool rejected = false;
  bool hit = false;
  double seconds = 0;  ///< submit to ready
  sgnn::serve::InferenceResult result;
};

struct ServeSetup {
  ServeInputs inputs;
  std::string payload;
  std::unique_ptr<sgnn::serve::Server> server;
};

ServeSetup set_up(const RunOptions& options, const ServeSizing& sizing,
                  SpanRecorder& spans) {
  ServeSetup s;
  {
    const Span span(spans, "data.generate");
    s.inputs = make_serve_inputs(options.seed, sizing);
  }
  {
    const Span span(spans, "nn.model_init");
    s.payload =
        sgnn::model_payload_bytes(sgnn::EGNNModel(model_config(s.inputs)));
  }
  {
    const Span span(spans, "serve.start");
    sgnn::serve::ServerOptions server_options;
    server_options.num_workers = kWorkers;
    server_options.cache_capacity =
        s.inputs.structures.size() + 64;  // no evictions in a run
    s.server = std::make_unique<sgnn::serve::Server>(
        model_config(s.inputs), s.payload, server_options);
  }
  {
    // Warm the cache with the resident set (forces included, so repeats of
    // either kind hit) — this also warms both worker replicas.
    const Span span(spans, "serve.warm");
    std::vector<std::future<sgnn::serve::InferenceResult>> pending;
    for (std::size_t i = 0; i < s.inputs.resident; ++i) {
      pending.push_back(s.server->submit({s.inputs.structures[i], true}));
    }
    for (auto& f : pending) f.get();
  }
  return s;
}

/// Direct reference answer: EGNNModel::forward of the same weights, and
/// F = -dE/dx by a position backward.
sgnn::serve::InferenceResult direct_answer(const sgnn::EGNNModel& model,
                                           const sgnn::AtomicStructure& s,
                                           bool forces) {
  const sgnn::MolecularGraph graph =
      sgnn::MolecularGraph::from_structure(s, model.config().cutoff);
  sgnn::GraphBatch batch = sgnn::GraphBatch::from_graphs(
      std::vector<const sgnn::MolecularGraph*>{&graph});
  sgnn::serve::InferenceResult r;
  if (!forces) {
    const sgnn::autograd::NoGradGuard guard;
    r.energy = model.forward(batch).energy.data()[0];
    return r;
  }
  batch.positions.set_requires_grad(true);
  const sgnn::EGNNModel::Output out = model.forward(batch);
  r.energy = out.energy.data()[0];
  sgnn::sum(out.energy).backward();
  const sgnn::real* g = batch.positions.grad().data();
  for (std::int64_t a = 0; a < batch.num_nodes; ++a) {
    const auto i = static_cast<std::size_t>(a) * 3;
    r.forces.push_back({-g[i], -g[i + 1], -g[i + 2]});
  }
  return r;
}

bool answers_match(const sgnn::serve::InferenceResult& served,
                   const sgnn::serve::InferenceResult& direct) {
  constexpr double kTol = 1e-9;
  if (std::abs(served.energy - direct.energy) >
      kTol * std::max(std::abs(direct.energy), 1e-12)) {
    return false;
  }
  if (served.forces.size() != direct.forces.size()) return false;
  double scale = 1e-12;
  for (const auto& f : direct.forces) scale = std::max(scale, f.norm());
  for (std::size_t i = 0; i < direct.forces.size(); ++i) {
    if ((served.forces[i] - direct.forces[i]).norm() > kTol * scale) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  // Two workers with one lane each: the shared pool runs every kernel
  // inline on the worker thread.
  sgnn::ThreadPool::instance().resize(1);
  SpanRecorder spans(options.trace);
  RunResult result;

  ServeSizing sizing;
  sizing.rounds = static_cast<std::size_t>(
      work_units(options, kRoundsPerSecond, kMinRounds));

  std::vector<double> setup_seconds;
  std::vector<double> setup_wall_seconds;
  std::vector<std::uint64_t> setup_hashes;
  ServeSetup s;
  for (int rep = 0; rep < kSetups; ++rep) {
    s = ServeSetup{};
    const Stopwatch watch;
    {
      const Span span(spans, "setup");
      s = set_up(options, sizing, spans);
    }
    setup_seconds.push_back(watch.cpu_seconds());
    setup_wall_seconds.push_back(watch.wall_seconds());
    setup_hashes.push_back(request_list_hash(s.inputs));
  }
  result.metrics["setup_s"] = median(setup_seconds);
  result.info["setup_wall_s"] = std::to_string(median(setup_wall_seconds));

  // ---- closed loop, in rounds: contiguous slices of the request list -----
  auto& registry = sgnn::obs::MetricsRegistry::instance();
  const sgnn::obs::MetricsSnapshot before_metrics = registry.snapshot();
  const auto cache_before = s.server->cache_stats();
  const Counters before = read_counters();
  sgnn::MemoryTracker::instance().reset_peak();
  const std::vector<ServeRequestSpec>& requests = s.inputs.requests;
  std::vector<Outcome> outcomes(requests.size());
  std::vector<double> round_rates;       // atoms per CPU second
  std::vector<double> round_wall_rates;  // atoms per wall second
  const std::size_t per_round = s.inputs.per_round;
  for (std::size_t first = 0; first < requests.size(); first += per_round) {
    const std::size_t last = first + per_round;
    const Stopwatch watch;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = first + static_cast<std::size_t>(c); i < last;
             i += kClients) {
          Outcome& o = outcomes[i];
          const auto& spec = requests[i];
          const auto t0 = Clock::now();
          try {
            std::future<sgnn::serve::InferenceResult> future;
            {
              const Span span(spans, "serve.submit",
                              static_cast<std::int64_t>(i));
              future = s.server->submit(
                  {s.inputs.structures[spec.structure], spec.forces});
            }
            const Span span(spans, "serve.wait", static_cast<std::int64_t>(i));
            o.result = future.get();
            o.ok = true;
            o.hit = o.result.cache_hit;
          } catch (const sgnn::serve::RejectedError&) {
            o.rejected = true;
          } catch (const std::exception&) {
            o.ok = false;
          }
          o.seconds = seconds_since(t0);
        }
      });
    }
    for (auto& t : clients) t.join();
    const double seconds = watch.cpu_seconds();
    const double wall_seconds = watch.wall_seconds();
    std::int64_t atoms = 0;
    for (std::size_t i = first; i < last; ++i) {
      if (outcomes[i].ok) {
        atoms += s.inputs.structures[requests[i].structure].num_atoms();
      }
    }
    round_rates.push_back(static_cast<double>(atoms) / seconds);
    round_wall_rates.push_back(static_cast<double>(atoms) / wall_seconds);
  }
  result.noise = diagnostics_between(before, read_counters());
  const double peak_bytes =
      static_cast<double>(sgnn::MemoryTracker::instance().peak_total());

  std::vector<double> miss_seconds;
  std::vector<double> hit_seconds;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  std::int64_t misrouted = 0;  // a repeat not served from cache, or the reverse
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.rejected) {
      ++rejected;
      continue;
    }
    if (!o.ok) {
      ++failed;
      continue;
    }
    (o.hit ? hit_seconds : miss_seconds).push_back(o.seconds);
    if (o.hit != requests[i].repeat) ++misrouted;
  }
  result.attempted = static_cast<std::int64_t>(requests.size());
  result.failed = failed + rejected;
  result.check(result.failed == 0,
               std::to_string(failed) + " requests failed, " +
                   std::to_string(rejected) + " refused");
  result.check(misrouted == 0, std::to_string(misrouted) +
                                   " requests were not served as the cache "
                                   "should (repeats hit, fresh miss)");
  result.metrics["atoms_per_cpu_s"] = median(round_rates);
  const double miss_p50 = median(miss_seconds);
  const double miss_p90 = tail_quantile(miss_seconds, 0.9);
  result.info["miss_p50_s"] = std::to_string(miss_p50);
  result.info["miss_p90_s"] = std::to_string(miss_p90);
  result.info["wall_atoms_per_s"] = std::to_string(median(round_wall_rates));
  result.metrics["peak_mem_bytes"] = peak_bytes;

  // ---- output checks: served answers against a direct forward ------------
  sgnn::EGNNModel reference(model_config(s.inputs));
  sgnn::load_model_payload(reference, s.payload);
  std::vector<std::size_t> misses;
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (outcomes[i].ok) (requests[i].repeat ? hits : misses).push_back(i);
  }
  const auto checked = [&](const std::vector<std::size_t>& pool,
                           std::size_t count) {
    std::vector<std::size_t> picked;
    for (std::size_t k = 0; k < count && !pool.empty(); ++k) {
      picked.push_back(pool[(k * pool.size()) / count]);
    }
    return picked;
  };
  std::size_t mismatches = 0;
  std::vector<std::size_t> sample = checked(misses, kCheckedMisses);
  for (const std::size_t i : checked(hits, kCheckedHits)) sample.push_back(i);
  for (const std::size_t i : sample) {
    const auto& spec = requests[i];
    if (!answers_match(outcomes[i].result,
                       direct_answer(reference,
                                     s.inputs.structures[spec.structure],
                                     spec.forces))) {
      ++mismatches;
    }
  }
  result.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                    std::to_string(sample.size()) +
                                    " sampled answers differ from a direct "
                                    "forward");

  check_seed(result, setup_hashes,
             request_list_hash(make_serve_inputs(options.seed + 1, sizing)),
             "request list");
  result.info["misses"] = std::to_string(miss_seconds.size());
  result.info["hits"] = std::to_string(hit_seconds.size());

  if (!options.trace) return result;

  // ---- traced run: per-layer numbers ------------------------------------
  auto& m = result.metrics;
  const sgnn::obs::MetricsSnapshot after_metrics = registry.snapshot();
  const auto cache_after = s.server->cache_stats();
  const auto lookups = static_cast<double>(
      cache_after.hits + cache_after.misses - cache_before.hits -
      cache_before.misses);
  m["trace.atoms_per_cpu_s"] = median(round_rates);
  m["wall.atoms_per_s"] = median(round_wall_rates);
  m["serve.hit_share"] =
      lookups > 0
          ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups
          : 0.0;
  m["serve.hit_p50_s"] = hit_seconds.empty() ? 0.0 : median(hit_seconds);
  m["serve.miss_p50_s"] = miss_p50;
  m["serve.miss_p90_s"] = miss_p90;
  m["serve.miss_p99_s"] =
      samples_beyond(miss_seconds.size(), 0.99) >= kMinSamplesBeyond
          ? quantile(miss_seconds, 0.99)
          : 0.0;
  const double batches =
      counter_delta(before_metrics, after_metrics, "serve.batches");
  m["serve.batch_graphs_mean"] =
      batches > 0
          ? counter_delta(before_metrics, after_metrics, "serve.batch.graphs") /
                batches
          : 0.0;
  m["serve.rejected"] = static_cast<double>(rejected);
  m["serve.failed"] = static_cast<double>(failed);
  m["tensor.sys_share"] = result.noise.sys_share;

  // Replay a fixed sample of the run's misses, one layer call at a time.
  SpanRecorder replay(true);
  const std::size_t stride =
      std::max<std::size_t>(1, misses.size() / kReplayedMisses);
  std::size_t replayed = 0;
  for (std::size_t k = 0; k < misses.size() && replayed < kReplayedMisses;
       k += stride, ++replayed) {
    const auto& spec = requests[misses[k]];
    const auto id = static_cast<std::int64_t>(misses[k]);
    const Span miss(replay, "serve.miss", id);
    sgnn::MolecularGraph graph;
    {
      const Span span(replay, "graph.build", id);
      graph = sgnn::MolecularGraph::from_structure(
          s.inputs.structures[spec.structure], reference.config().cutoff);
    }
    sgnn::GraphBatch batch;
    {
      const Span span(replay, "graph.batch", id);
      batch = sgnn::GraphBatch::from_graphs(
          std::vector<const sgnn::MolecularGraph*>{&graph});
    }
    if (!spec.forces) {
      const Span span(replay, "nn.forward_nograd", id);
      const sgnn::autograd::NoGradGuard guard;
      reference.forward(batch);
      continue;
    }
    batch.positions.set_requires_grad(true);
    sgnn::EGNNModel::Output out;
    {
      const Span span(replay, "nn.forward_grad", id);
      out = reference.forward(batch);
    }
    const Span span(replay, "tensor.force_backward", id);
    sgnn::sum(out.energy).backward();
  }
  const auto replay_totals = totals_by_name(replay.spans());
  const auto per_miss = [&](const char* name) {
    const auto it = replay_totals.find(name);
    return it == replay_totals.end()
               ? 0.0
               : it->second.total_seconds / static_cast<double>(replayed);
  };
  m["graph.build_s_per_miss"] = per_miss("graph.build");
  m["graph.batch_s_per_miss"] = per_miss("graph.batch");
  m["nn.forward_nograd_s_per_miss"] = per_miss("nn.forward_nograd");
  m["tensor.force_backward_s_per_miss"] = per_miss("tensor.force_backward");

  const std::vector<SpanRecord> all = spans.spans();
  const auto totals = totals_by_name(all);
  m["data.generate_s"] = median_seconds(all, "data.generate");
  m["nn.model_init_s"] = median_seconds(all, "nn.model_init");
  m["serve.start_s"] =
      median_seconds(all, "serve.start") + median_seconds(all, "serve.warm");
  m["serve.submit_s"] = median_seconds(all, "serve.submit");
  spans.write_chrome_json(options.work_dir + "/" + options.workload +
                          ".trace.json");
  return result;
}

}  // namespace perfbench
