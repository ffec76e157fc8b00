// train_narrow and train_wide: Trainer::train_epoch on a fixed, stratified
// five-source training set, repeated for a fixed number of rounds.
//
// End-to-end numbers come from the public Trainer::train_epoch call with
// tracing off. The traced run adds the kernel profiler (FLOPs, bytes,
// kernel share), a per-category memory split, and a step loop written
// from the same public calls train_epoch makes (DataLoader::next,
// EGNNModel::forward, multitask_loss, Tensor::backward, Adam), each under
// a benchmark span.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "inputs.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/tensor/memory_tracker.hpp"
#include "sgnn/train/trainer.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

struct TrainShape {
  std::int64_t hidden = 16;
  std::int64_t batch = 8;
  int lanes = 1;
  /// Lanes the traced run compares with one lane for util.pool_speedup
  /// (0: not measured).
  int pool_lanes = 0;
  TrainSizing sizing;
  double rounds_per_second = 1;
  int setups = 5;  ///< setup repetitions; setup_s is their median
};

TrainShape shape_for(const std::string& workload) {
  TrainShape shape;
  if (workload == "train_narrow") {
    shape.hidden = 16;
    shape.batch = 8;
    shape.lanes = 1;
    shape.sizing.per_source = {8, 8, 10, 10, 4};
    shape.rounds_per_second = 2.0;
  } else if (workload == "train_wide") {
    shape.hidden = 128;
    shape.batch = 4;
    // One lane: at two, host steal on either vCPU stalls the step, which
    // made the throughput unsteady. Pool fan-out is left to the traced
    // run's util.pool_speedup.
    shape.lanes = 1;
    shape.pool_lanes = 2;
    shape.sizing.per_source = {2, 1, 2, 2, 1};
    shape.rounds_per_second = 0.6;
    shape.setups = 3;  // its warm-up step alone takes about a second
  } else {
    throw std::invalid_argument("not a training workload: " + workload);
  }
  return shape;
}

constexpr std::int64_t kDepth = 3;
constexpr std::int64_t kWarmupSteps = 1;
/// Steps of the traced per-call split, and of each lane count when the
/// traced run measures the pool speedup.
constexpr std::int64_t kSplitSteps = 10;
constexpr std::int64_t kPoolSteps = 6;

/// Counts steps and non-finite losses as the trainer reports them.
class StepCounter final : public sgnn::obs::TelemetrySink {
 public:
  void on_step(const sgnn::obs::StepTelemetry& step) override {
    ++steps;
    if (!std::isfinite(step.loss)) ++nonfinite;
  }
  std::int64_t steps = 0;
  std::int64_t nonfinite = 0;
};

struct TrainSetup {
  TrainInputs inputs;
  std::unique_ptr<sgnn::EGNNModel> model;
  std::unique_ptr<sgnn::Trainer> trainer;
  std::unique_ptr<sgnn::DataLoader> loader;
};

sgnn::ModelConfig model_config(const TrainShape& shape,
                               const TrainInputs& inputs) {
  sgnn::ModelConfig config;
  config.hidden_dim = shape.hidden;
  config.num_layers = kDepth;
  config.seed = inputs.model_seed;
  return config;
}

/// Everything before the first timed round: data generation, model and
/// trainer construction, warm-up steps.
TrainSetup set_up(const RunOptions& options, const TrainShape& shape,
                  SpanRecorder& spans, StepCounter& counter) {
  TrainSetup s;
  {
    const Span span(spans, "data.generate");
    s.inputs = make_train_inputs(options.seed, shape.sizing);
  }
  {
    const Span span(spans, "nn.model_init");
    s.model = std::make_unique<sgnn::EGNNModel>(model_config(shape, s.inputs));
  }
  sgnn::TrainOptions train_options;
  train_options.batch_size = shape.batch;
  s.trainer = std::make_unique<sgnn::Trainer>(*s.model, train_options);
  s.trainer->set_telemetry(&counter);
  s.loader = std::make_unique<sgnn::DataLoader>(
      s.inputs.graphs(), shape.batch, s.inputs.loader_seed);
  {
    // Warm up on the largest graphs: once the biggest tensors of the run
    // have been allocated and freed, the allocator serves every later step
    // from its heap instead of fresh pages, which a warm-up on average
    // batches would leave to the first timed rounds.
    const Span span(spans, "train.warmup");
    std::vector<const sgnn::MolecularGraph*> warm = s.inputs.graphs();
    std::stable_sort(warm.begin(), warm.end(),
                     [](const auto* a, const auto* b) {
                       return a->num_edges() > b->num_edges();
                     });
    warm.resize(static_cast<std::size_t>(kWarmupSteps * shape.batch));
    sgnn::DataLoader warm_loader(warm, shape.batch, s.inputs.loader_seed,
                                 /*shuffle=*/false);
    s.trainer->train_epoch(warm_loader);
  }
  return s;
}

/// `steps` traced training steps over the training set, built from the
/// public calls Trainer::train_epoch makes. The batch sequence depends only
/// on the inputs, so two calls with the same `steps` do the same work.
void traced_steps(TrainSetup& s, const TrainShape& shape, SpanRecorder& spans,
                  std::int64_t steps) {
  sgnn::Adam optimizer(s.model->parameters(), sgnn::Adam::Options{});
  sgnn::DataLoader loader(s.inputs.graphs(), shape.batch,
                          s.inputs.loader_seed);
  for (std::int64_t step = 0; step < steps; ++step) {
    if (!loader.has_next()) loader.begin_epoch();
    const std::int64_t id = step;
    const Span step_span(spans, "train.step", id);
    sgnn::GraphBatch batch;
    {
      const Span span(spans, "data.next", id);
      batch = loader.next();
    }
    {
      const Span span(spans, "train.zero_grad", id);
      optimizer.zero_grad();
    }
    sgnn::EGNNModel::Output out;
    {
      const Span span(spans, "nn.forward", id);
      out = s.model->forward(batch);
    }
    sgnn::LossTerms terms;
    {
      const Span span(spans, "train.loss", id);
      terms = sgnn::multitask_loss(out, batch, sgnn::LossWeights{});
    }
    {
      const Span span(spans, "tensor.backward", id);
      terms.total.backward();
    }
    {
      const Span span(spans, "train.optimizer_step", id);
      optimizer.step();
    }
  }
}

}  // namespace

RunResult run_train(const RunOptions& options) {
  const TrainShape shape = shape_for(options.workload);
  sgnn::ThreadPool::instance().resize(shape.lanes);
  SpanRecorder spans(options.trace);
  RunResult result;

  StepCounter counter;
  std::vector<double> setup_seconds;
  std::vector<double> setup_wall_seconds;
  std::vector<std::uint64_t> setup_hashes;
  TrainSetup s;
  for (int rep = 0; rep < shape.setups; ++rep) {
    counter = StepCounter{};
    s = TrainSetup{};  // release the previous repetition before timing
    // The peak covers the warm-up, whose first batch holds the largest
    // graphs of the training set, and every timed round.
    sgnn::MemoryTracker::instance().reset_peak();
    const Stopwatch watch;
    {
      const Span span(spans, "setup");
      s = set_up(options, shape, spans, counter);
    }
    setup_seconds.push_back(watch.cpu_seconds());
    setup_wall_seconds.push_back(watch.wall_seconds());
    setup_hashes.push_back(batch_sequence_hash(s.inputs, shape.batch, 2));
  }
  result.metrics["setup_s"] = median(setup_seconds);
  result.info["setup_wall_s"] = std::to_string(median(setup_wall_seconds));
  result.check(counter.nonfinite == 0, "non-finite loss during warm-up");

  // Timed rounds: one Trainer::train_epoch over the whole training set each.
  const std::int64_t rounds = work_units(options, shape.rounds_per_second, 3);
  const std::int64_t atoms_per_round = s.inputs.atoms();
  const std::int64_t warm_steps = counter.steps;
  const Counters before = read_counters();
  const sgnn::obs::prof::Totals prof_before = sgnn::obs::prof::totals();
  std::vector<double> round_rates;       // atoms per CPU second
  std::vector<double> round_wall_rates;  // atoms per wall second
  std::vector<double> traced_rates;
  double profiled_seconds = 0;
  double loss_final = 0;
  for (std::int64_t round = 0; round < rounds; ++round) {
    // The traced run profiles every other round; the unprofiled ones give
    // its own throughput without kernel hooks, so their ratio is the
    // profiler's overhead.
    const bool profiled = options.trace && round % 2 == 1;
    if (profiled) sgnn::obs::prof::enable();
    const Stopwatch watch;
    sgnn::Trainer::EpochResult epoch;
    {
      const Span span(spans, "train.train_epoch", round);
      epoch = s.trainer->train_epoch(*s.loader);
    }
    const double seconds = watch.cpu_seconds();
    const double wall_seconds = watch.wall_seconds();
    if (profiled) sgnn::obs::prof::disable();
    const auto atoms = static_cast<double>(atoms_per_round);
    if (profiled) {
      profiled_seconds += wall_seconds;
      traced_rates.push_back(atoms / seconds);
    } else {
      round_rates.push_back(atoms / seconds);
      round_wall_rates.push_back(atoms / wall_seconds);
    }
    loss_final = epoch.mean_train_loss;
    result.check(std::isfinite(epoch.mean_train_loss),
                 "non-finite epoch loss in round " + std::to_string(round));
  }
  const NoiseDiagnostics noise = diagnostics_between(before, read_counters());
  result.noise = noise;
  const std::int64_t timed_steps = counter.steps - warm_steps;
  result.attempted = timed_steps;
  result.failed = counter.nonfinite;
  result.check(counter.nonfinite == 0, "non-finite training loss");

  const auto& memory = sgnn::MemoryTracker::instance();
  result.metrics["atoms_per_cpu_s"] = median(round_rates);
  result.metrics["peak_mem_bytes"] =
      static_cast<double>(memory.peak_total());
  result.info["loss_final"] = std::to_string(loss_final);
  result.info["wall_atoms_per_s"] = std::to_string(median(round_wall_rates));

  check_seed(result, setup_hashes,
             batch_sequence_hash(make_train_inputs(options.seed + 1,
                                                   shape.sizing),
                                 shape.batch, 2),
             "batch sequence");
  result.info["rounds"] = std::to_string(rounds);
  result.info["atoms_per_round"] = std::to_string(atoms_per_round);

  if (!options.trace) return result;

  // ---- traced run: per-layer numbers ------------------------------------
  const sgnn::obs::prof::Totals prof_after = sgnn::obs::prof::totals();
  const auto profiled_atoms =
      static_cast<double>(traced_rates.size()) *
      static_cast<double>(atoms_per_round);
  auto& m = result.metrics;
  m["trace.atoms_per_cpu_s"] = median(traced_rates);
  m["trace.overhead_share"] =
      1.0 - m["trace.atoms_per_cpu_s"] / median(round_rates);
  m["wall.atoms_per_s"] = median(round_wall_rates);
  m["tensor.kernel_share"] =
      (prof_after.kernel_seconds - prof_before.kernel_seconds) /
      profiled_seconds;
  m["tensor.flops_per_atom"] =
      static_cast<double>(prof_after.flops - prof_before.flops) /
      profiled_atoms;
  m["tensor.bytes_per_atom"] =
      static_cast<double>(prof_after.bytes - prof_before.bytes) /
      profiled_atoms;
  m["tensor.minor_faults_per_step"] =
      static_cast<double>(noise.minor_faults) /
      static_cast<double>(std::max<std::int64_t>(timed_steps, 1));
  m["tensor.sys_share"] = noise.sys_share;
  const sgnn::MemBreakdown peak = memory.peak();
  m["tensor.peak_weight_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kWeight));
  m["tensor.peak_grad_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kGradient));
  m["tensor.peak_activation_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kActivation));
  m["tensor.peak_optimizer_bytes"] =
      static_cast<double>(peak.of(sgnn::MemCategory::kOptimizerState));

  // Per-call split of a step, from the same public calls train_epoch makes.
  traced_steps(s, shape, spans, kSplitSteps);
  // Pool fan-out: the same fixed steps at 1 lane and at the workload's lanes.
  if (shape.pool_lanes > 0) {
    const auto steps_seconds = [&](int lanes) {
      sgnn::ThreadPool::instance().resize(lanes);
      SpanRecorder pool_spans(true);
      traced_steps(s, shape, pool_spans, kPoolSteps);
      return totals_by_name(pool_spans.spans()).at("train.step").total_seconds;
    };
    const double one_lane = steps_seconds(1);
    m["util.pool_speedup"] = one_lane / steps_seconds(shape.pool_lanes);
  }

  const std::vector<SpanRecord> all = spans.spans();
  const auto totals = totals_by_name(all);
  const auto per_step = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : it->second.total_seconds /
                                    static_cast<double>(kSplitSteps);
  };
  m["data.generate_s"] = median_seconds(all, "data.generate");
  m["nn.model_init_s"] = median_seconds(all, "nn.model_init");
  m["train.warmup_s"] = median_seconds(all, "train.warmup");
  m["data.next_s"] = per_step("data.next");
  m["nn.forward_s"] = per_step("nn.forward");
  m["train.loss_s"] = per_step("train.loss");
  m["tensor.backward_s"] = per_step("tensor.backward");
  m["train.optimizer_s"] = per_step("train.zero_grad") +
                           per_step("train.optimizer_step");
  m["train.step_self_s"] = totals.at("train.step").self_seconds /
                           static_cast<double>(kSplitSteps);
  m["train.loss_final"] = loss_final;
  spans.write_chrome_json(options.work_dir + "/" + options.workload +
                          ".trace.json");
  return result;
}

}  // namespace perfbench
