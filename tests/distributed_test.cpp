#include "sgnn/train/distributed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "sgnn/data/dataset.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/ops.hpp"

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

template <typename Body>
void run_ranks(int num_ranks, Body body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < num_ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
}

/// The gradient collective of ZeRO-1 (`use_zero`) or of DDP.
CollectiveKind collective_of(bool use_zero) {
  return use_zero ? CollectiveKind::kReduceScatter
                  : CollectiveKind::kAllReduce;
}

/// Property: R-rank DDP and ZeRO updates must equal a single-process Adam
/// step on the rank-averaged gradient.
class StrategyEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(StrategyEquivalence, DistributedUpdatesMatchSingleProcessAdam) {
  const int R = GetParam();
  Rng rng(42);
  const Tensor init_a = Tensor::randn(Shape{13}, rng);
  const Tensor init_b = Tensor::randn(Shape{3, 5}, rng);

  // Per-rank gradients, fixed by formula.
  const auto grad_for = [&](int rank, const Shape& shape, int salt) {
    Tensor g = Tensor::zeros(shape);
    real* p = g.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      p[i] = static_cast<real>(0.01) * static_cast<real>(rank + 1) *
             static_cast<real>(i + salt);
    }
    return g;
  };

  // Reference: single Adam on the averaged gradients for 3 steps.
  std::vector<Tensor> ref = {init_a.clone().set_requires_grad(true),
                             init_b.clone().set_requires_grad(true)};
  Adam::Options options;
  options.learning_rate = 0.05;
  {
    Tensor m_a = Tensor::zeros(Shape{13});
    Tensor v_a = Tensor::zeros(Shape{13});
    Tensor m_b = Tensor::zeros(Shape{3, 5});
    Tensor v_b = Tensor::zeros(Shape{3, 5});
    for (int step = 1; step <= 3; ++step) {
      for (int which = 0; which < 2; ++which) {
        const Shape shape = which == 0 ? Shape{13} : Shape{3, 5};
        Tensor avg = Tensor::zeros(shape);
        for (int r = 0; r < R; ++r) {
          const Tensor g = grad_for(r, shape, step + which);
          const real* pg = g.data();
          real* pa = avg.data();
          for (std::int64_t i = 0; i < avg.numel(); ++i) pa[i] += pg[i];
        }
        real* pa = avg.data();
        for (std::int64_t i = 0; i < avg.numel(); ++i) {
          pa[i] /= static_cast<real>(R);
        }
        Adam::update_flat(ref[static_cast<std::size_t>(which)].data(),
                          avg.data(),
                          which == 0 ? m_a.data() : m_b.data(),
                          which == 0 ? v_a.data() : v_b.data(),
                          static_cast<std::size_t>(avg.numel()), step,
                          options);
      }
    }
  }

  for (const bool use_zero : {false, true}) {
    Communicator comm(R);
    // Per-rank replicas of the two parameters.
    std::vector<std::vector<Tensor>> params(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      params[static_cast<std::size_t>(r)] = {
          init_a.clone().set_requires_grad(true),
          init_b.clone().set_requires_grad(true)};
    }
    std::vector<std::unique_ptr<Adam>> optimizers(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      optimizers[static_cast<std::size_t>(r)] = std::make_unique<Adam>(
          params[static_cast<std::size_t>(r)], options, &comm,
          collective_of(use_zero));
    }
    run_ranks(R, [&](int rank) {
      const auto ri = static_cast<std::size_t>(rank);
      for (int step = 1; step <= 3; ++step) {
        // Install gradients by differentiating a synthetic objective whose
        // gradient is exactly grad_for(...).
        for (int which = 0; which < 2; ++which) {
          Tensor& p = params[ri][static_cast<std::size_t>(which)];
          p.zero_grad();
          const Shape shape = which == 0 ? Shape{13} : Shape{3, 5};
          const Tensor coeff = grad_for(rank, shape, step + which);
          sum(p * coeff.detach()).backward();
        }
        optimizers[ri]->step(rank);
      }
    });

    for (int r = 0; r < R; ++r) {
      for (int which = 0; which < 2; ++which) {
        const auto got =
            params[static_cast<std::size_t>(r)][static_cast<std::size_t>(which)]
                .to_vector();
        const auto want = ref[static_cast<std::size_t>(which)].to_vector();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_NEAR(got[i], want[i], 1e-12)
              << (use_zero ? "zero" : "ddp") << " rank " << r << " param "
              << which << " element " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, StrategyEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(ZeroAdamTest, OptimizerStateIsShardedAcrossRanks) {
  const int R = 4;
  Communicator comm(R);
  Rng rng(7);
  const auto state_bytes = [&] {
    return MemoryTracker::instance().live().of(MemCategory::kOptimizerState);
  };

  std::vector<Tensor> params = {
      Tensor::randn(Shape{1000}, rng).set_requires_grad(true)};
  const auto before = state_bytes();
  const Adam sharded(params, {}, &comm, CollectiveKind::kReduceScatter);
  const auto shard_cost = state_bytes() - before;
  // 2 moments x 1000/4 elements (x sizeof real).
  EXPECT_EQ(shard_cost, static_cast<std::int64_t>(2 * 250 * sizeof(real)));
  EXPECT_EQ(sharded.shard_elements(), 250u);

  Communicator solo(1);
  const auto before_full = state_bytes();
  const Adam full(params, {}, &solo, CollectiveKind::kAllReduce);
  const auto full_cost = state_bytes() - before_full;
  EXPECT_EQ(full_cost, static_cast<std::int64_t>(2 * 1000 * sizeof(real)));
}

TEST(DistributedTrainerTest, DDPTrainsAndReplicasStayInSync) {
  ModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.strategy = DistStrategy::kDDP;

  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  const DistTrainReport report = trainer.train(*store);

  EXPECT_GT(report.steps, 0);
  EXPECT_GT(report.final_train_loss, 0);
  EXPECT_EQ(trainer.replica_divergence(), 0.0);
  EXPECT_GT(report.collective_traffic.all_reduce_bytes, 0u);
  EXPECT_EQ(report.collective_traffic.reduce_scatter_bytes, 0u);
  EXPECT_GT(report.comm_seconds, 0.0);
}

TEST(DistributedTrainerTest, ZeroUsesScatterGatherInsteadOfAllReduce) {
  ModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.strategy = DistStrategy::kZeRO1;

  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  const DistTrainReport report = trainer.train(*store);

  EXPECT_EQ(trainer.replica_divergence(), 0.0);
  EXPECT_EQ(report.collective_traffic.all_reduce_bytes, 0u);
  EXPECT_GT(report.collective_traffic.reduce_scatter_bytes, 0u);
  EXPECT_GT(report.collective_traffic.all_gather_bytes, 0u);
  // The in-place update allocates nothing, yet its stage peak must still
  // hold at least the live weights.
  EXPECT_GE(report.peak_optimizer,
            report.peak_memory.of(MemCategory::kWeight));
}

TEST(DistributedTrainerTest, DDPAndZeroLearnTheSameModel) {
  // Same seeds, same data, same schedule: the two strategies must produce
  // numerically equivalent models (ZeRO is an exact refactoring of Adam).
  const auto run = [&](DistStrategy strategy) {
    ModelConfig config;
    config.hidden_dim = 10;
    config.num_layers = 2;
    DistTrainOptions options;
    options.num_ranks = 2;
    options.epochs = 1;
    options.per_rank_batch_size = 4;
    options.strategy = strategy;
    DistributedTrainer trainer(config, options);
    const auto store = make_store(2);
    trainer.train(*store);
    const std::span<real> values =
        ParamArena(trainer.model().parameters()).values();
    return std::vector<real>(values.begin(), values.end());
  };
  const auto ddp = run(DistStrategy::kDDP);
  const auto zero = run(DistStrategy::kZeRO1);
  ASSERT_EQ(ddp.size(), zero.size());
  for (std::size_t i = 0; i < ddp.size(); ++i) {
    EXPECT_NEAR(ddp[i], zero[i], 1e-10) << "element " << i;
  }
}

TEST(DistributedTrainerTest, GradNormTelemetryIsTheAveragedGradientNorm) {
  // Every replica applies the same rank-averaged gradient, so every rank
  // must report that gradient's norm — identical across ranks, and the
  // same for DDP and ZeRO-1 (up to the ZeRO partial-sum association).
  const auto norms_by_step = [](DistStrategy strategy) {
    ModelConfig config;
    config.hidden_dim = 12;
    config.num_layers = 2;
    DistTrainOptions options;
    options.num_ranks = 2;
    options.epochs = 1;
    options.per_rank_batch_size = 4;
    options.strategy = strategy;
    obs::RecordingTelemetrySink sink;
    options.telemetry = &sink;
    DistributedTrainer trainer(config, options);
    const auto store = make_store(2);
    trainer.train(*store);
    std::map<std::int64_t, std::vector<double>> norms;
    for (const obs::StepTelemetry& step : sink.steps()) {
      norms[step.step].push_back(step.grad_norm);
    }
    return norms;
  };
  const auto ddp = norms_by_step(DistStrategy::kDDP);
  const auto zero = norms_by_step(DistStrategy::kZeRO1);
  ASSERT_FALSE(ddp.empty());
  ASSERT_EQ(ddp.size(), zero.size());
  for (const auto& [step, ddp_norms] : ddp) {
    const std::vector<double>& zero_norms = zero.at(step);
    ASSERT_EQ(ddp_norms.size(), 2u);
    ASSERT_EQ(zero_norms.size(), 2u);
    EXPECT_GT(ddp_norms[0], 0.0) << "step " << step;
    EXPECT_EQ(ddp_norms[0], ddp_norms[1]) << "ddp step " << step;
    EXPECT_EQ(zero_norms[0], zero_norms[1]) << "zero1 step " << step;
    EXPECT_NEAR(zero_norms[0], ddp_norms[0], 1e-12 * ddp_norms[0])
        << "step " << step;
  }
}

TEST(DistributedTrainerTest, TracingRecordsPerRankCollectiveSpans) {
  obs::TraceRecorder::instance().disable();
  obs::TraceRecorder::instance().clear();
  obs::TraceRecorder::instance().enable();

  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.strategy = DistStrategy::kDDP;
  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  trainer.train(*store);

  obs::TraceRecorder::instance().disable();
  const auto events = obs::TraceRecorder::instance().events();
  obs::TraceRecorder::instance().clear();

  // Every rank thread must have produced collective spans and the three
  // training-phase spans, each tagged with its own rank.
  std::set<int> collective_ranks;
  std::set<std::string> phase_names;
  for (const auto& event : events) {
    if (std::string(event.category) == "collective") {
      collective_ranks.insert(event.rank);
      EXPECT_GE(event.end_us, event.begin_us);
    } else if (std::string(event.category) == "train") {
      phase_names.insert(event.name);
    }
  }
  EXPECT_EQ(collective_ranks, (std::set<int>{0, 1}));
  EXPECT_TRUE(phase_names.count("forward"));
  EXPECT_TRUE(phase_names.count("backward"));
  EXPECT_TRUE(phase_names.count("optimizer"));
}

TEST(DistributedTrainerTest, DataTrafficReflectsShardLocality) {
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 1;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 2;
  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  const DistTrainReport report = trainer.train(*store);
  // With random sampling over 2 shards, roughly half the fetches are
  // remote; require a sane nonzero split rather than an exact ratio.
  EXPECT_GT(report.data_traffic.local_hits, 0u);
  EXPECT_GT(report.data_traffic.remote_fetches, 0u);
  EXPECT_GT(report.data_traffic.remote_bytes, 0u);
}

/// Clipping property: distributed updates with max_grad_norm must equal a
/// single-process Adam step on the CLIPPED rank-averaged gradient, where
/// the clip norm is joint over all parameters (the same contract the
/// unsynchronized Adam of the single Trainer implements).
TEST_P(StrategyEquivalence, ClippedUpdatesMatchClippedSingleProcessAdam) {
  const int R = GetParam();
  const double max_norm = 0.05;  // small enough that every step clips
  Rng rng(43);
  const Tensor init_a = Tensor::randn(Shape{13}, rng);
  const Tensor init_b = Tensor::randn(Shape{3, 5}, rng);

  const auto grad_for = [&](int rank, const Shape& shape, int salt) {
    Tensor g = Tensor::zeros(shape);
    real* p = g.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      p[i] = static_cast<real>(0.01) * static_cast<real>(rank + 1) *
             static_cast<real>(i + salt);
    }
    return g;
  };

  // Reference: average per-rank gradients, clip jointly, then Adam.
  std::vector<Tensor> ref = {init_a.clone().set_requires_grad(true),
                             init_b.clone().set_requires_grad(true)};
  Adam::Options options;
  options.learning_rate = 0.05;
  {
    Tensor m_a = Tensor::zeros(Shape{13});
    Tensor v_a = Tensor::zeros(Shape{13});
    Tensor m_b = Tensor::zeros(Shape{3, 5});
    Tensor v_b = Tensor::zeros(Shape{3, 5});
    for (int step = 1; step <= 3; ++step) {
      std::vector<Tensor> avg;
      for (int which = 0; which < 2; ++which) {
        const Shape shape = which == 0 ? Shape{13} : Shape{3, 5};
        Tensor sum_grad = Tensor::zeros(shape);
        for (int r = 0; r < R; ++r) {
          const Tensor g = grad_for(r, shape, step + which);
          const real* pg = g.data();
          real* pa = sum_grad.data();
          for (std::int64_t i = 0; i < sum_grad.numel(); ++i) pa[i] += pg[i];
        }
        real* pa = sum_grad.data();
        for (std::int64_t i = 0; i < sum_grad.numel(); ++i) {
          pa[i] /= static_cast<real>(R);
        }
        avg.push_back(sum_grad);
      }
      double sum_sq = 0;
      for (const Tensor& g : avg) {
        const real* pg = g.data();
        for (std::int64_t i = 0; i < g.numel(); ++i) {
          sum_sq += static_cast<double>(pg[i]) * static_cast<double>(pg[i]);
        }
      }
      const double norm = std::sqrt(sum_sq);
      ASSERT_GT(norm, max_norm);  // the scenario must actually clip
      for (Tensor& g : avg) {
        real* pg = g.data();
        for (std::int64_t i = 0; i < g.numel(); ++i) {
          pg[i] *= static_cast<real>(max_norm / norm);
        }
      }
      for (int which = 0; which < 2; ++which) {
        Adam::update_flat(
            ref[static_cast<std::size_t>(which)].data(),
            avg[static_cast<std::size_t>(which)].data(),
            which == 0 ? m_a.data() : m_b.data(),
            which == 0 ? v_a.data() : v_b.data(),
            static_cast<std::size_t>(
                avg[static_cast<std::size_t>(which)].numel()),
            step, options);
      }
    }
  }

  for (const bool use_zero : {false, true}) {
    Communicator comm(R);
    std::vector<std::vector<Tensor>> params(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      params[static_cast<std::size_t>(r)] = {
          init_a.clone().set_requires_grad(true),
          init_b.clone().set_requires_grad(true)};
    }
    std::vector<std::unique_ptr<Adam>> optimizers(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      optimizers[static_cast<std::size_t>(r)] = std::make_unique<Adam>(
          params[static_cast<std::size_t>(r)], options, &comm,
          collective_of(use_zero));
      optimizers[static_cast<std::size_t>(r)]->set_max_grad_norm(max_norm);
    }
    run_ranks(R, [&](int rank) {
      const auto ri = static_cast<std::size_t>(rank);
      for (int step = 1; step <= 3; ++step) {
        for (int which = 0; which < 2; ++which) {
          Tensor& p = params[ri][static_cast<std::size_t>(which)];
          p.zero_grad();
          const Shape shape = which == 0 ? Shape{13} : Shape{3, 5};
          const Tensor coeff = grad_for(rank, shape, step + which);
          sum(p * coeff.detach()).backward();
        }
        optimizers[ri]->step(rank);
      }
    });

    for (int r = 0; r < R; ++r) {
      for (int which = 0; which < 2; ++which) {
        const auto got =
            params[static_cast<std::size_t>(r)][static_cast<std::size_t>(which)]
                .to_vector();
        const auto want = ref[static_cast<std::size_t>(which)].to_vector();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_NEAR(got[i], want[i], 1e-12)
              << (use_zero ? "zero" : "ddp") << " rank " << r << " param "
              << which << " element " << i;
        }
      }
    }
  }
}

/// A parameter that has a gradient on step 1 and none on step 2 takes a
/// zero gradient on step 2 in every setting: its moments decay and it keeps
/// moving, identically for unsynchronized, DDP and ZeRO-1 Adam. The local
/// reference consumes the rank average formed the way the collectives form
/// it (a rank-order sum, then the 1/R scale), so all three agree bit for
/// bit at any rank count.
TEST_P(StrategyEquivalence, IntermittentGradientUpdatesIdentically) {
  const int R = GetParam();
  Rng rng(44);
  const Tensor init_a = Tensor::randn(Shape{13}, rng);
  const Tensor init_b = Tensor::randn(Shape{3, 5}, rng);
  const auto coeff_for = [](int rank, const Shape& shape, int salt) {
    Tensor g = Tensor::zeros(shape);
    real* p = g.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      p[i] = static_cast<real>(0.01) * static_cast<real>(rank + 1) *
             static_cast<real>(i + salt);
    }
    return g;
  };
  const auto average_for = [&](const Shape& shape, int salt) {
    Tensor avg = Tensor::zeros(shape);
    real* pa = avg.data();
    for (int r = 0; r < R; ++r) {
      const Tensor g = coeff_for(r, shape, salt);
      for (std::int64_t i = 0; i < avg.numel(); ++i) pa[i] += g.data()[i];
    }
    const auto scale = real{1} / static_cast<real>(R);
    for (std::int64_t i = 0; i < avg.numel(); ++i) pa[i] *= scale;
    return avg;
  };
  // Parameter b (index 1) takes part in the loss on step 1 only.
  const auto backward = [](std::vector<Tensor>& p, const Tensor& coeff_a,
                           const Tensor& coeff_b, int step) {
    Tensor total = sum(p[0] * coeff_a.detach());
    if (step == 1) total = total + sum(p[1] * coeff_b.detach());
    total.backward();
  };
  Adam::Options options;
  options.learning_rate = 0.05;

  std::vector<Tensor> ref = {init_a.clone().set_requires_grad(true),
                             init_b.clone().set_requires_grad(true)};
  Adam local(ref, options);
  for (int step = 1; step <= 2; ++step) {
    local.zero_grad();
    backward(ref, average_for(Shape{13}, step),
             average_for(Shape{3, 5}, step + 1), step);
    local.step();
  }
  EXPECT_NE(ref[1].to_vector(), init_b.to_vector());

  for (const bool use_zero : {false, true}) {
    Communicator comm(R);
    std::vector<std::vector<Tensor>> params(static_cast<std::size_t>(R));
    std::vector<std::unique_ptr<Adam>> optimizers(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      params[ri] = {init_a.clone().set_requires_grad(true),
                    init_b.clone().set_requires_grad(true)};
      optimizers[ri] = std::make_unique<Adam>(params[ri], options, &comm,
                                              collective_of(use_zero));
    }
    run_ranks(R, [&](int rank) {
      const auto ri = static_cast<std::size_t>(rank);
      for (int step = 1; step <= 2; ++step) {
        optimizers[ri]->zero_grad();
        backward(params[ri], coeff_for(rank, Shape{13}, step),
                 coeff_for(rank, Shape{3, 5}, step + 1), step);
        optimizers[ri]->step(rank);
      }
    });
    for (int r = 0; r < R; ++r) {
      for (int which = 0; which < 2; ++which) {
        EXPECT_EQ(params[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(which)]
                            .to_vector(),
                  ref[static_cast<std::size_t>(which)].to_vector())
            << (use_zero ? "zero" : "ddp") << " rank " << r << " param "
            << which;
      }
    }
  }
}

TEST(DistributedTrainerTest, AggregateCommSecondsMatchesSumOfPerStepModel) {
  // Regression for the comm-time double count: the report's aggregate used
  // to re-add per-call latency that the bandwidth terms already contained.
  // Now one formula prices both views, so the per-step modeled times must
  // sum to the aggregate (up to fp summation order).
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 2;
  options.per_rank_batch_size = 4;
  options.strategy = DistStrategy::kZeRO1;
  options.max_grad_norm = 1.0;  // adds the clip all-reduce to the traffic
  obs::RecordingTelemetrySink sink;
  options.telemetry = &sink;

  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  const DistTrainReport report = trainer.train(*store);

  double per_step_sum = 0;
  std::int64_t rank0_steps = 0;
  for (const obs::StepTelemetry& step : sink.steps()) {
    if (step.rank != 0) {
      // Only the collective-counting rank attributes comm time.
      EXPECT_EQ(step.comm_seconds_modeled, 0.0);
      continue;
    }
    per_step_sum += step.comm_seconds_modeled;
    ++rank0_steps;
  }
  EXPECT_EQ(rank0_steps, report.steps);
  EXPECT_GT(report.comm_seconds, 0.0);
  EXPECT_NEAR(report.comm_seconds, per_step_sum,
              report.comm_seconds * 1e-9);
}

TEST(DistributedTrainerTest, TelemetryReportsTheConfiguredLearningRate) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 2;
  options.per_rank_batch_size = 4;
  options.adam.learning_rate = 2e-3;
  obs::RecordingTelemetrySink sink;
  options.telemetry = &sink;

  DistributedTrainer trainer(config, options);
  const auto store = make_store(2);
  trainer.train(*store);

  // Ranks apply no per-epoch decay: every step of every rank, in both
  // epochs, runs at adam.learning_rate.
  ASSERT_FALSE(sink.steps().empty());
  for (const obs::StepTelemetry& step : sink.steps()) {
    EXPECT_EQ(step.learning_rate, options.adam.learning_rate)
        << "step " << step.step << " rank " << step.rank;
  }
}

}  // namespace
}  // namespace sgnn
