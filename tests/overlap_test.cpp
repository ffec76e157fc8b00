// The bit-identity wall around the overlapped communication path: bucketed
// DDP and ZeRO-1 (in-place collectives on the parameter arena, posted
// during backward via the autograd leaf-grad hook) must produce
// BYTE-identical parameters to one whole-model bucket (bucket_bytes 0,
// posted once backward is done), for any bucket size, any rank count, with
// and without activation checkpointing. EXPECT_EQ on the raw vectors — not
// EXPECT_NEAR — is the point: overlap is a scheduling change, never a
// numerics change. Runs with SGNN_NUM_THREADS=4 (see tests/CMakeLists.txt)
// so the intra-op pool races against the progress engine under TSan.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "sgnn/data/dataset.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/bucketer.hpp"
#include "sgnn/train/distributed.hpp"

namespace sgnn {
namespace {

const AggregatedDataset& tiny_dataset() {
  static const AggregatedDataset dataset = [] {
    DatasetOptions options;
    options.target_bytes = 700 << 10;
    options.seed = 31;
    static const ReferencePotential potential;
    return AggregatedDataset::generate(options, potential);
  }();
  return dataset;
}

std::unique_ptr<DDStore> make_store(int ranks) {
  auto store = std::make_unique<DDStore>(ranks);
  store->insert(tiny_dataset().graphs());
  return store;
}

/// The parameters' values, flat in registration order: their arena's value
/// buffer (a list an optimizer already packed is adopted, not copied).
std::vector<real> flat_values(const std::vector<Tensor>& parameters) {
  const std::span<real> values = ParamArena(parameters).values();
  return {values.begin(), values.end()};
}

template <typename Body>
void run_ranks(int num_ranks, Body body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < num_ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
}

// -- optimizer-level parity ---------------------------------------------------

/// The gradient collective of ZeRO-1 (`use_zero`) or of DDP.
CollectiveKind collective_of(bool use_zero) {
  return use_zero ? CollectiveKind::kReduceScatter
                  : CollectiveKind::kAllReduce;
}

/// Three steps of DDP or ZeRO-1 Adam over two 16-element parameters with
/// formulaic per-rank gradients, the bucketer armed around backward exactly
/// the way DistributedTrainer arms it. Returns rank 0's final parameters
/// (all ranks are checked identical first).
std::vector<real> optimizer_run(bool use_zero, int R,
                                std::size_t bucket_bytes) {
  Rng rng(11);
  const Tensor init_a = Tensor::randn(Shape{16}, rng);
  const Tensor init_b = Tensor::randn(Shape{4, 4}, rng);

  const auto coeff_for = [](int rank, const Shape& shape, int salt) {
    Tensor g = Tensor::zeros(shape);
    real* p = g.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      p[i] = static_cast<real>(0.01) * static_cast<real>(rank + 1) *
             static_cast<real>(i + salt);
    }
    return g;
  };

  Communicator comm(R);
  Adam::Options options;
  options.learning_rate = 0.05;
  std::vector<std::vector<Tensor>> params(static_cast<std::size_t>(R));
  std::vector<std::unique_ptr<Adam>> optimizers(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    params[ri] = {init_a.clone().set_requires_grad(true),
                  init_b.clone().set_requires_grad(true)};
    optimizers[ri] = std::make_unique<Adam>(params[ri], options, &comm,
                                            collective_of(use_zero),
                                            bucket_bytes);
  }

  run_ranks(R, [&](int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    GradBucketer* const bucketer = optimizers[ri]->bucketer();
    for (int step = 1; step <= 3; ++step) {
      for (Tensor& p : params[ri]) p.zero_grad();
      // One joint objective so a single backward produces both leaf
      // gradients, exactly like a model loss.
      Tensor total =
          sum(params[ri][0] * coeff_for(rank, Shape{16}, step).detach()) +
          sum(params[ri][1] * coeff_for(rank, Shape{4, 4}, step + 1).detach());
      bucketer->begin_step(rank);
      {
        const autograd::ScopedLeafGradHook hook(
            [bucketer](const void* leaf) { bucketer->on_leaf_grad(leaf); });
        total.backward();
      }
      optimizers[ri]->step(rank);
    }
  });

  const std::vector<real> flat0 = flat_values(params[0]);
  for (int r = 1; r < R; ++r) {
    EXPECT_EQ(flat_values(params[static_cast<std::size_t>(r)]), flat0)
        << "replica " << r << " diverged";
  }
  return flat0;
}

class OptimizerOverlapParity : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerOverlapParity, BucketedUpdatesAreByteIdenticalToSequential) {
  const int R = GetParam();
  // Against one whole-model bucket (cap 0): param-aligned buckets (both
  // tensors hold 16 elements), an odd cap that splits mid-tensor, and a cap
  // larger than the whole model.
  const std::size_t caps[] = {16 * sizeof(real), 5 * sizeof(real),
                              std::size_t{1} << 30};
  for (const bool use_zero : {false, true}) {
    const std::vector<real> sequential = optimizer_run(use_zero, R, 0);
    for (const std::size_t cap : caps) {
      EXPECT_EQ(optimizer_run(use_zero, R, cap), sequential)
          << (use_zero ? "zero" : "ddp") << " ranks=" << R
          << " bucket_bytes=" << cap;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, OptimizerOverlapParity, ::testing::Values(1, 4));

// -- traffic pin --------------------------------------------------------------

/// Per-step collective traffic of DDP / ZeRO-1 Adam over a real model's
/// parameter list, measured on rank 0 between two barriers after each step.
std::vector<Communicator::Traffic> traffic_per_step(bool use_zero, int R,
                                                    std::size_t bucket_bytes,
                                                    bool clip, int steps) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  Communicator comm(R);
  std::vector<std::unique_ptr<EGNNModel>> models;
  std::vector<std::unique_ptr<Adam>> optimizers;
  for (int r = 0; r < R; ++r) {
    models.push_back(std::make_unique<EGNNModel>(config));
    optimizers.push_back(std::make_unique<Adam>(
        models.back()->parameters(), Adam::Options{}, &comm,
        collective_of(use_zero), bucket_bytes));
    optimizers.back()->set_max_grad_norm(clip ? 1.0 : 0.0);
  }
  std::vector<Communicator::Traffic> deltas;
  run_ranks(R, [&](int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    const std::vector<Tensor> params = models[ri]->parameters();
    Communicator::Traffic before;
    for (int step = 0; step < steps; ++step) {
      optimizers[ri]->zero_grad();
      Tensor total = Tensor::scalar(0);
      for (const Tensor& p : params) {
        total = total + sum(p * Tensor::full(p.shape(), real(rank + step + 1)));
      }
      optimizers[ri]->backward(total, rank);
      optimizers[ri]->step(rank);
      comm.barrier();
      if (rank == 0) {
        const Communicator::Traffic now = comm.traffic();
        deltas.push_back(now.since(before));
        before = now;
      }
      comm.barrier();
    }
  });
  return deltas;
}

TEST(OverlapTrafficTest, PerStepTrafficFollowsTheBucketPlan) {
  // Bytes and calls per collective kind, per step, derived from the
  // parameter count and GradBucketer::plan: the gradient moves once per
  // bucket, bucket_bytes 0 being one whole-model bucket. ZeRO adds one
  // all-gather per bucket and, when the norm is needed (clipping on), one
  // scalar all-reduce of the per-shard partial sums.
  const int R = 2;
  const int steps = 3;
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  const EGNNModel reference(config);
  const auto n = static_cast<std::uint64_t>(reference.num_parameters());
  const std::uint64_t grad_bytes = n * sizeof(real);
  for (const bool use_zero : {false, true}) {
    for (const std::size_t bucket_bytes :
         {std::size_t{0}, std::size_t{1000},
          GradBucketer::kDefaultBucketBytes}) {
      for (const bool clip : {false, true}) {
        const std::uint64_t buckets =
            GradBucketer::plan(n, bucket_bytes == 0 ? grad_bytes : bucket_bytes)
                .size();
        const std::uint64_t norm_calls = use_zero && clip ? 1 : 0;
        const auto deltas =
            traffic_per_step(use_zero, R, bucket_bytes, clip, steps);
        ASSERT_EQ(deltas.size(), static_cast<std::size_t>(steps));
        for (int s = 0; s < steps; ++s) {
          const Communicator::Traffic& t = deltas[static_cast<std::size_t>(s)];
          const std::string where =
              std::string(use_zero ? "zero1" : "ddp") +
              " bucket_bytes=" + std::to_string(bucket_bytes) +
              " clip=" + std::to_string(clip) + " step=" + std::to_string(s);
          if (use_zero) {
            EXPECT_EQ(t.reduce_scatter_bytes, grad_bytes) << where;
            EXPECT_EQ(t.reduce_scatter_calls, buckets) << where;
            EXPECT_EQ(t.all_gather_bytes, grad_bytes) << where;
            EXPECT_EQ(t.all_gather_calls, buckets) << where;
            EXPECT_EQ(t.all_reduce_bytes, norm_calls * sizeof(real)) << where;
            EXPECT_EQ(t.all_reduce_calls, norm_calls) << where;
            EXPECT_EQ(t.collective_calls, 2 * buckets + norm_calls) << where;
          } else {
            EXPECT_EQ(t.all_reduce_bytes, grad_bytes) << where;
            EXPECT_EQ(t.all_reduce_calls, buckets) << where;
            EXPECT_EQ(t.reduce_scatter_bytes, 0u) << where;
            EXPECT_EQ(t.reduce_scatter_calls, 0u) << where;
            EXPECT_EQ(t.all_gather_bytes, 0u) << where;
            EXPECT_EQ(t.all_gather_calls, 0u) << where;
            EXPECT_EQ(t.collective_calls, buckets) << where;
          }
          EXPECT_EQ(t.total_bytes(),
                    (use_zero ? 2 * grad_bytes : grad_bytes) +
                        norm_calls * sizeof(real))
              << where;
        }
      }
    }
  }
}

// -- trainer-level parity -----------------------------------------------------

std::vector<real> trainer_run(DistStrategy strategy, std::size_t bucket_bytes,
                              bool activation_checkpointing, int ranks,
                              obs::TelemetrySink* sink = nullptr) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = ranks;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.strategy = strategy;
  options.activation_checkpointing = activation_checkpointing;
  options.max_grad_norm = 1.0;  // mixes a blocking clip collective in
  options.bucket_bytes = bucket_bytes;
  options.telemetry = sink;
  DistributedTrainer trainer(config, options);
  const auto store = make_store(ranks);
  trainer.train(*store);
  EXPECT_EQ(trainer.replica_divergence(), 0.0);
  return flat_values(trainer.model().parameters());
}

class TrainerOverlapParity : public ::testing::TestWithParam<DistStrategy> {};

TEST_P(TrainerOverlapParity, BucketedTrainingMatchesSequentialByteForByte) {
  const DistStrategy strategy = GetParam();
  const std::vector<real> sequential = trainer_run(strategy, 0, false, 4);
  // A small cap (many buckets, mid-tensor splits) and the 25 MB default
  // (one bucket for this model) must both reproduce the bytes of
  // bucket_bytes 0 (one whole-model bucket posted after backward).
  EXPECT_EQ(trainer_run(strategy, 1000, false, 4), sequential);
  EXPECT_EQ(
      trainer_run(strategy, GradBucketer::kDefaultBucketBytes, false, 4),
      sequential);
}

TEST_P(TrainerOverlapParity, BucketedTrainingMatchesUnderActivationCheckpointing) {
  // Checkpointed segments re-derive leaves in a nested backward, so their
  // parameters reach the bucketer only through the post_remaining sweep —
  // the overlap shrinks but the bytes must not move.
  const DistStrategy strategy = GetParam();
  EXPECT_EQ(trainer_run(strategy, 1000, true, 4),
            trainer_run(strategy, 0, true, 4));
}

INSTANTIATE_TEST_SUITE_P(Strategies, TrainerOverlapParity,
                         ::testing::Values(DistStrategy::kDDP,
                                           DistStrategy::kZeRO1));

TEST(TrainerOverlapParityTest, SingleRankBucketedMatchesSequential) {
  EXPECT_EQ(trainer_run(DistStrategy::kDDP, 1000, false, 1),
            trainer_run(DistStrategy::kDDP, 0, false, 1));
}

// -- overlap telemetry invariants ---------------------------------------------

TEST(OverlapTelemetryTest, ExposedPlusOverlappedEqualsModeledCommTime) {
  obs::RecordingTelemetrySink sink;
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 4;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.strategy = DistStrategy::kZeRO1;
  options.bucket_bytes = 1000;  // several buckets per step
  options.telemetry = &sink;
  DistributedTrainer trainer(config, options);
  const auto store = make_store(4);
  const DistTrainReport report = trainer.train(*store);

  std::int64_t buckets = 0;
  for (const obs::StepTelemetry& step : sink.steps()) {
    if (step.rank != 0) continue;  // only rank 0 attributes comm time
    EXPECT_DOUBLE_EQ(step.comm_exposed_seconds + step.comm_overlapped_seconds,
                     step.comm_seconds_modeled);
    EXPECT_GE(step.comm_exposed_seconds, 0.0);
    EXPECT_GE(step.comm_overlapped_seconds, 0.0);
    EXPECT_GT(step.comm_buckets, 0);
    buckets += step.comm_buckets;
  }
  EXPECT_EQ(report.comm_buckets, buckets);
  EXPECT_GT(report.comm_buckets, report.steps);  // more than one bucket/step
  EXPECT_NEAR(report.comm_exposed_seconds + report.comm_overlapped_seconds,
              report.comm_seconds, report.comm_seconds * 1e-9);
  // Overlap-honest accounting can only improve on all-exposed accounting.
  EXPECT_LE(report.overlapped_total_seconds(), report.total_seconds());
}

TEST(OverlapTelemetryTest, ZeroBucketBytesPostsOneWholeModelBucketPerStep) {
  obs::RecordingTelemetrySink sink;
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.bucket_bytes = 0;  // one whole-model bucket
  options.telemetry = &sink;
  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  const DistTrainReport report = trainer.train(*store);

  std::int64_t rank0_steps = 0;
  for (const obs::StepTelemetry& step : sink.steps()) {
    if (step.rank != 0) continue;
    ++rank0_steps;
    EXPECT_EQ(step.comm_buckets, 1);
    EXPECT_DOUBLE_EQ(step.comm_exposed_seconds + step.comm_overlapped_seconds,
                     step.comm_seconds_modeled);
  }
  EXPECT_GT(report.steps, 0);
  EXPECT_EQ(rank0_steps, report.steps);
  EXPECT_EQ(report.comm_buckets, report.steps);
}

}  // namespace
}  // namespace sgnn
