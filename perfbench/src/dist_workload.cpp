// train_dist: DistributedTrainer::train with two rank threads (one compute
// lane each) over one DDStore. Every round runs three fixed-length phases
// in a fixed order, each a fresh trainer doing one epoch over all 40 graphs
// and checkpointing every few steps:
//
//   ddp    replicated Adam, bucketed all-reduce
//   zero1  ZeRO-1 sharded Adam with activation checkpointing (the paper's
//          Tab. II setup), bucketed reduce-scatter/all-gather
//   gpar   graph parallelism: one shared batch per step, halo exchange
//
// Interleaving the phases inside every round means they see the same
// machine, so their per-phase numbers can be compared within a run.

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/train/distributed.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 2;
constexpr std::int64_t kHidden = 32;
constexpr std::int64_t kDepth = 3;
constexpr std::int64_t kBatchPerRank = 4;
constexpr std::int64_t kCheckpointEvery = 4;
/// Small enough that the ~60k-parameter gradient spans several buckets,
/// so bucket collectives overlap backward.
constexpr std::size_t kBucketBytes = 64 << 10;
/// Each setup repetition warms all three phases up (about half a second).
constexpr int kSetups = 3;
/// Rounds (one epoch of each phase, two to three seconds) per --seconds.
constexpr double kRoundsPerSecond = 0.4;

struct Phase {
  const char* name;
  sgnn::DistStrategy strategy;
  bool activation_checkpointing;
  bool graph_parallel;
};

constexpr std::array<Phase, 3> kPhases = {{
    {"ddp", sgnn::DistStrategy::kDDP, false, false},
    {"zero1", sgnn::DistStrategy::kZeRO1, true, false},
    {"gpar", sgnn::DistStrategy::kDDP, false, true},
}};

TrainSizing sizing() {
  TrainSizing s;
  // 40 graphs: a multiple of the global batch (2 ranks x 4), so every
  // epoch trains every graph once.
  s.per_source = {8, 8, 10, 10, 4};
  return s;
}

sgnn::ModelConfig model_config(const TrainInputs& inputs) {
  sgnn::ModelConfig config;
  config.hidden_dim = kHidden;
  config.num_layers = kDepth;
  config.seed = inputs.model_seed;
  return config;
}

sgnn::DistTrainOptions train_options(const Phase& phase,
                                     const TrainInputs& inputs) {
  sgnn::DistTrainOptions o;
  o.num_ranks = kRanks;
  o.strategy = phase.strategy;
  o.activation_checkpointing = phase.activation_checkpointing;
  o.graph_parallel = phase.graph_parallel;
  o.epochs = 1;
  // Graph-parallel ranks share one global batch of the same size as the
  // replicated strategies' global batch.
  o.per_rank_batch_size =
      phase.graph_parallel ? kRanks * kBatchPerRank : kBatchPerRank;
  o.sampler_seed = inputs.loader_seed;
  o.bucket_bytes = kBucketBytes;
  return o;
}

struct DistSetup {
  TrainInputs inputs;
  std::unique_ptr<sgnn::DDStore> store;
  /// Peak tracked bytes of the warm-ups, whose batches are the largest
  /// graphs of the training set.
  double warmup_peak_bytes = 0;
};

/// Everything before the first timed round: data generation, the DDStore
/// fill, trainer (replica) construction and a warm-up epoch per phase.
DistSetup set_up(const RunOptions& options, SpanRecorder& spans) {
  DistSetup s;
  {
    const Span span(spans, "data.generate");
    s.inputs = make_train_inputs(options.seed, sizing());
  }
  {
    const Span span(spans, "store.insert");
    s.store = std::make_unique<sgnn::DDStore>(kRanks);
    s.store->insert(s.inputs.graph_copies());
  }
  // The warm-up epochs run over a store of the largest graphs: they touch
  // every code path once, and the allocator has seen the run's biggest
  // tensors before anything is timed (see train_workloads.cpp).
  sgnn::DDStore warm_store(kRanks);
  std::vector<sgnn::MolecularGraph> graphs = s.inputs.graph_copies();
  std::stable_sort(graphs.begin(), graphs.end(),
                   [](const auto& a, const auto& b) {
                     return a.num_edges() > b.num_edges();
                   });
  graphs.resize(static_cast<std::size_t>(kRanks * kBatchPerRank));
  warm_store.insert(std::move(graphs));
  const Span warmup(spans, "train.warmup");
  for (const Phase& phase : kPhases) {
    std::unique_ptr<sgnn::DistributedTrainer> trainer;
    {
      const Span span(spans, "nn.model_init");
      trainer = std::make_unique<sgnn::DistributedTrainer>(
          model_config(s.inputs), train_options(phase, s.inputs));
    }
    s.warmup_peak_bytes = std::max(
        s.warmup_peak_bytes,
        static_cast<double>(trainer->train(warm_store).peak_memory.total()));
  }
  return s;
}

/// Per-step slowest-rank time and max/min rank time, from telemetry.
void rank_step_stats(const std::vector<sgnn::obs::StepTelemetry>& steps,
                     std::vector<double>& step_s, std::vector<double>& skew) {
  std::map<std::int64_t, std::pair<double, double>> by_step;  // min, max
  for (const auto& t : steps) {
    auto [it, fresh] =
        by_step.try_emplace(t.step, t.step_seconds, t.step_seconds);
    if (!fresh) {
      it->second.first = std::min(it->second.first, t.step_seconds);
      it->second.second = std::max(it->second.second, t.step_seconds);
    }
  }
  for (const auto& [step, range] : by_step) {
    step_s.push_back(range.second);
    if (range.first > 0) skew.push_back(range.second / range.first);
  }
}

/// What the timed rounds record per phase.
struct PhaseRecord {
  std::vector<double> rates;
  std::vector<double> step_s;
  std::vector<double> skew;
  double loss = 0;
  sgnn::DistTrainReport report;  ///< of the last round
};

}  // namespace

RunResult run_dist(const RunOptions& options) {
  // Two rank threads with one compute lane each: the pool runs inline.
  sgnn::ThreadPool::instance().resize(1);
  SpanRecorder spans(options.trace);
  RunResult result;

  // Checkpoints go to the work dir, inside the checkout, the only place the
  // benchmark writes. The library fsyncs every snapshot; blocking on the
  // disk is not CPU time, so the gated throughput counts the serialising
  // and the write calls but not the disk's latency (ckpt.write_s, a wall
  // time, does include it).
  sgnn::ckpt::CheckpointOptions checkpoint;
  checkpoint.every_steps = kCheckpointEvery;
  checkpoint.directory = options.work_dir + "/ckpt-" + options.workload;
  std::filesystem::remove_all(checkpoint.directory);

  std::vector<double> setup_seconds;
  std::vector<double> setup_wall_seconds;
  std::vector<std::uint64_t> setup_hashes;
  const std::int64_t global_batch = kRanks * kBatchPerRank;
  DistSetup s;
  for (int rep = 0; rep < kSetups; ++rep) {
    s = DistSetup{};
    const Stopwatch watch;
    {
      const Span span(spans, "setup");
      s = set_up(options, spans);
    }
    setup_seconds.push_back(watch.cpu_seconds());
    setup_wall_seconds.push_back(watch.wall_seconds());
    setup_hashes.push_back(batch_sequence_hash(s.inputs, global_batch, 1));
  }
  result.metrics["setup_s"] = median(setup_seconds);
  result.info["setup_wall_s"] = std::to_string(median(setup_wall_seconds));

  const std::int64_t rounds = work_units(options, kRoundsPerSecond, 3);
  const std::int64_t atoms_per_phase = s.inputs.atoms();
  auto& registry = sgnn::obs::MetricsRegistry::instance();
  const sgnn::obs::MetricsSnapshot metrics_before = registry.snapshot();
  const Counters before = read_counters();
  std::array<PhaseRecord, kPhases.size()> phases;
  std::vector<double> rates;       // atoms per CPU second, all phases
  std::vector<double> wall_rates;  // atoms per wall second, all phases
  double peak_bytes = s.warmup_peak_bytes;
  for (std::int64_t round = 0; round < rounds; ++round) {
    double round_seconds = 0;
    double round_wall_seconds = 0;
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      const Phase& phase = kPhases[p];
      PhaseRecord& record = phases[p];
      const std::string where =
          std::string(phase.name) + " round " + std::to_string(round);
      // A fresh trainer per phase, built outside the timed window.
      sgnn::obs::RecordingTelemetrySink sink;
      sgnn::DistTrainOptions o = train_options(phase, s.inputs);
      o.checkpoint = checkpoint;
      o.telemetry = &sink;
      sgnn::DistributedTrainer trainer(model_config(s.inputs), o);
      const Stopwatch watch;
      sgnn::DistTrainReport report;
      {
        const Span span(spans, "dist.train", round);
        report = trainer.train(*s.store);
      }
      const double seconds = watch.cpu_seconds();
      round_seconds += seconds;
      round_wall_seconds += watch.wall_seconds();
      record.rates.push_back(static_cast<double>(atoms_per_phase) / seconds);
      rank_step_stats(sink.steps(), record.step_s, record.skew);
      for (const auto& t : sink.steps()) {
        ++result.attempted;
        if (!std::isfinite(t.loss)) ++result.failed;
      }
      const double divergence = trainer.replica_divergence();
      result.check(divergence == 0.0, "replicas diverged by " +
                                          std::to_string(divergence) +
                                          " in " + where);
      result.check(std::isfinite(report.final_train_loss),
                   "non-finite final loss in " + where);
      result.check(round == 0 || report.final_train_loss == record.loss,
                   where + " did not repeat the first round's loss");
      record.loss = report.final_train_loss;
      peak_bytes = std::max(peak_bytes,
                            static_cast<double>(report.peak_memory.total()));
      record.report = report;
    }
    const double round_atoms = static_cast<double>(kPhases.size()) *
                               static_cast<double>(atoms_per_phase);
    rates.push_back(round_atoms / round_seconds);
    wall_rates.push_back(round_atoms / round_wall_seconds);
  }
  result.noise = diagnostics_between(before, read_counters());
  result.check(result.failed == 0, "non-finite training loss");
  // ZeRO-1 with activation checkpointing must train exactly like DDP.
  const double ddp_loss = phases[0].loss;
  const double zero1_loss = phases[1].loss;
  result.check(std::abs(zero1_loss - ddp_loss) <= 1e-12 * std::abs(ddp_loss),
               "zero1 final loss " + std::to_string(zero1_loss) +
                   " differs from ddp " + std::to_string(ddp_loss));
  check_seed(result, setup_hashes,
             batch_sequence_hash(make_train_inputs(options.seed + 1, sizing()),
                                 global_batch, 1),
             "batch sequence");
  std::filesystem::remove_all(checkpoint.directory);

  result.metrics["atoms_per_cpu_s"] = median(rates);
  result.metrics["peak_mem_bytes"] = peak_bytes;
  result.info["rounds"] = std::to_string(rounds);
  result.info["atoms_per_phase"] = std::to_string(atoms_per_phase);
  result.info["wall_atoms_per_s"] = std::to_string(median(wall_rates));
  for (std::size_t p = 0; p < kPhases.size(); ++p) {
    const std::string name = kPhases[p].name;
    result.info[name + "_loss_final"] = std::to_string(phases[p].loss);
    result.info[name + "_atoms_per_cpu_s"] =
        std::to_string(median(phases[p].rates));
  }
  if (!options.trace) return result;

  // ---- traced run: per-layer numbers ------------------------------------
  auto& m = result.metrics;
  const sgnn::obs::MetricsSnapshot metrics_after = registry.snapshot();
  m["trace.atoms_per_cpu_s"] = median(rates);
  m["wall.atoms_per_s"] = median(wall_rates);
  double skew = 0;
  for (std::size_t p = 0; p < kPhases.size(); ++p) {
    const std::string name = kPhases[p].name;
    const PhaseRecord& record = phases[p];
    const sgnn::DistTrainReport& report = record.report;
    const auto steps =
        static_cast<double>(std::max<std::int64_t>(report.steps, 1));
    m["dist." + name + ".atoms_per_cpu_s"] = median(record.rates);
    m["dist." + name + ".step_s"] = median(record.step_s);
    skew = std::max(skew, median(record.skew));
    if (kPhases[p].graph_parallel) {
      m["halo.bytes_per_step"] = static_cast<double>(report.halo_bytes) / steps;
      m["halo.exchanges_per_step"] =
          static_cast<double>(report.halo_exchanges) / steps;
      m["halo.exposed_s_per_step"] = report.halo_exposed_seconds / steps;
      m["halo.overlapped_s_per_step"] = report.halo_overlapped_seconds / steps;
      continue;
    }
    const std::string comm = "comm." + name;
    m[comm + ".bytes_per_step"] =
        static_cast<double>(report.collective_traffic.total_bytes()) / steps;
    m[comm + ".calls_per_step"] =
        static_cast<double>(report.collective_traffic.collective_calls) /
        steps;
    m[comm + ".buckets_per_step"] =
        static_cast<double>(report.comm_buckets) / steps;
    m[comm + ".exposed_s_per_step"] = report.comm_exposed_seconds / steps;
    m[comm + ".overlapped_s_per_step"] =
        report.comm_overlapped_seconds / steps;
  }
  m["dist.rank_skew"] = skew;
  // Both replicated strategies draw the same samples per rank.
  const auto& traffic = phases[0].report.data_traffic;
  const double fetches =
      static_cast<double>(traffic.local_hits + traffic.remote_fetches);
  m["store.remote_fetch_share"] =
      fetches > 0 ? static_cast<double>(traffic.remote_fetches) / fetches : 0;
  m["train.loss_final"] = zero1_loss;
  const double writes =
      counter_delta(metrics_before, metrics_after, "ckpt.writes");
  const auto hist_after = metrics_after.histograms.find("ckpt.write_seconds");
  const auto hist_before = metrics_before.histograms.find("ckpt.write_seconds");
  if (writes > 0 && hist_after != metrics_after.histograms.end()) {
    const double before_sum = hist_before == metrics_before.histograms.end()
                                  ? 0.0
                                  : hist_before->second.sum;
    m["ckpt.write_s"] = (hist_after->second.sum - before_sum) / writes;
    m["ckpt.bytes_per_write"] =
        counter_delta(metrics_before, metrics_after, "ckpt.bytes") / writes;
  }
  // The memory split of the phase the paper's Tab. II measures.
  const sgnn::MemBreakdown& peak = phases[1].report.peak_memory;
  m["tensor.peak_weight_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kWeight));
  m["tensor.peak_grad_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kGradient));
  m["tensor.peak_activation_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kActivation));
  m["tensor.peak_optimizer_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kOptimizerState));
  m["tensor.sys_share"] = result.noise.sys_share;
  m["tensor.minor_faults_per_step"] =
      static_cast<double>(result.noise.minor_faults) /
      static_cast<double>(std::max<std::int64_t>(result.attempted, 1));

  const std::vector<SpanRecord> all = spans.spans();
  m["data.generate_s"] = median_seconds(all, "data.generate");
  m["store.insert_s"] = median_seconds(all, "store.insert");
  m["nn.model_init_s"] = median_seconds(all, "nn.model_init");
  m["train.warmup_s"] = median_seconds(all, "train.warmup");
  spans.write_chrome_json(options.work_dir + "/" + options.workload +
                          ".trace.json");
  return result;
}

}  // namespace perfbench
