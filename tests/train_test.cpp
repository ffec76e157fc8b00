#include "sgnn/train/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sgnn/data/dataset.hpp"
#include "sgnn/store/snapshot.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/optim.hpp"

namespace sgnn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const ReferencePotential& shared_potential() {
  static const ReferencePotential potential;
  return potential;
}

const AggregatedDataset& tiny_dataset() {
  static const AggregatedDataset dataset = [] {
    DatasetOptions options;
    options.target_bytes = 600 << 10;
    options.seed = 23;
    return AggregatedDataset::generate(options, shared_potential());
  }();
  return dataset;
}

TEST(OptimTest, AdamMatchesReferenceImplementation) {
  // One Adam step on a known gradient, checked against hand-computed
  // values: m = 0.1 g, v = 0.001 g^2, update = lr * g/|g| (bias-corrected).
  Tensor w = Tensor::from_vector({1.0, -1.0}, Shape{2});
  w.set_requires_grad(true);
  Adam::Options options;
  options.learning_rate = 0.1;
  Adam adam({w}, options);
  // d/dw sum(2 w) = 2.
  sum(w * 2.0).backward();
  adam.step();
  // m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps) = lr * sign(g).
  EXPECT_NEAR(w.to_vector()[0], 1.0 - 0.1, 1e-7);
  EXPECT_NEAR(w.to_vector()[1], -1.0 - 0.1, 1e-7);
}

TEST(OptimTest, AdamStatesAreOptimizerStateMemory) {
  const auto before =
      MemoryTracker::instance().live().of(MemCategory::kOptimizerState);
  Rng rng(2);
  Tensor w = Tensor::randn(Shape{128}, rng).set_requires_grad(true);
  Adam adam({w}, {});
  const auto after =
      MemoryTracker::instance().live().of(MemCategory::kOptimizerState);
  // Two moments, each the size of the parameters: the paper's "twice the
  // size of the model weights".
  EXPECT_EQ(after - before,
            static_cast<std::int64_t>(2 * 128 * sizeof(real)));
}

TEST(OptimTest, UndefinedGradientsAreSkipped) {
  Tensor used = Tensor::scalar(1.0).set_requires_grad(true);
  Tensor untouched = Tensor::scalar(5.0).set_requires_grad(true);
  Adam adam({used, untouched}, {});
  square(used).backward();
  adam.step();
  EXPECT_NE(used.item(), 1.0);
  EXPECT_EQ(untouched.item(), 5.0);
}

TEST(OptimTest, ParameterWithoutGradientKeepsItsMomentsUntouched) {
  // The used parameter must follow an Adam that owns it alone, bit for
  // bit; the idle one keeps its values and zero moments.
  Rng rng(5);
  const Tensor init_used = Tensor::randn(Shape{6}, rng);
  const Tensor init_idle = Tensor::randn(Shape{2, 2}, rng);
  Tensor alone = init_used.clone().set_requires_grad(true);
  Tensor used = init_used.clone().set_requires_grad(true);
  Tensor idle = init_idle.clone().set_requires_grad(true);
  Adam reference({alone}, {});
  Adam adam({used, idle}, {});
  for (int step = 0; step < 3; ++step) {
    reference.zero_grad();
    adam.zero_grad();
    sum(square(alone)).backward();
    sum(square(used)).backward();
    reference.step();
    adam.step();
  }
  EXPECT_EQ(used.to_vector(), alone.to_vector());
  EXPECT_EQ(idle.to_vector(), init_idle.to_vector());
  SnapshotBuilder saved_reference;
  SnapshotBuilder saved;
  reference.save(saved_reference, 0);
  adam.save(saved, 0);
  const SnapshotView reference_view(saved_reference.payload());
  const SnapshotView view(saved.payload());
  for (const char* moment : {"optim.m", "optim.v"}) {
    std::vector<real> expected = reference_view.reals(moment);
    expected.resize(expected.size() + 4, real{0});
    EXPECT_EQ(view.reals(moment), expected) << moment;
  }
}

TEST(OptimTest, SecondSyncAdoptsTheArenaAndSeesTheSameModel) {
  // The perfbench pattern: more Adams beside the Trainer's over the same
  // model adopt its arena instead of repacking the weights, so a step
  // through any of them moves the one model all of them see.
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 1;
  EGNNModel model(config);
  Trainer trainer(model, TrainOptions{});
  const std::vector<Tensor> params = model.parameters();
  const real* packed = params.front().data();
  const auto weights_before =
      MemoryTracker::instance().live().of(MemCategory::kWeight);
  Adam second(params, {});
  Adam third(params, {});
  EXPECT_EQ(MemoryTracker::instance().live().of(MemCategory::kWeight),
            weights_before);
  EXPECT_EQ(params.front().data(), packed);

  const auto model_values = [&model] {
    std::vector<real> values;
    for (const Tensor& p : model.parameters()) {
      const std::vector<real> v = p.to_vector();
      values.insert(values.end(), v.begin(), v.end());
    }
    return values;
  };
  const auto step_through = [&](Adam& adam) {
    adam.zero_grad();
    Tensor total = Tensor::scalar(0);
    for (const Tensor& p : params) total = total + sum(square(p));
    total.backward();
    adam.step();
  };
  const std::vector<real> before = model_values();
  step_through(second);
  const std::vector<real> after_second = model_values();
  EXPECT_NE(after_second, before);
  step_through(third);
  EXPECT_NE(model_values(), after_second);
}

TEST(OptimTest, RejectsNonLeafParameters) {
  Tensor w = Tensor::scalar(1.0).set_requires_grad(true);
  Tensor derived = w * 2.0;
  Communicator comm(1);
  EXPECT_THROW(Adam({derived}, {}), Error);
  EXPECT_THROW(Adam({derived}, {}, &comm, CollectiveKind::kAllReduce), Error);
  EXPECT_THROW(Adam({derived}, {}, &comm, CollectiveKind::kReduceScatter),
               Error);
}

TEST(OptimTest, RejectsInvalidOptions) {
  const std::vector<std::pair<double Adam::Options::*, double>> invalid = {
      {&Adam::Options::learning_rate, 0.0},
      {&Adam::Options::learning_rate, -1e-3},
      {&Adam::Options::learning_rate, kNaN},
      {&Adam::Options::learning_rate, kInf},
      {&Adam::Options::beta1, -0.1},
      {&Adam::Options::beta1, 1.0},
      {&Adam::Options::beta2, 1.0},
      {&Adam::Options::beta2, kNaN},
      {&Adam::Options::epsilon, 0.0},
      {&Adam::Options::epsilon, -1e-8},
  };
  Tensor w = Tensor::scalar(1.0).set_requires_grad(true);
  Communicator comm(1);
  for (const auto& [field, value] : invalid) {
    Adam::Options options;
    options.*field = value;
    EXPECT_THROW(Adam({w}, options), Error) << value;
    EXPECT_THROW(Adam({w}, options, &comm, CollectiveKind::kReduceScatter),
                 Error)
        << value;
  }
  Adam::Options edge;
  edge.beta1 = 0.0;
  EXPECT_NO_THROW(Adam({w}, edge));
}

TEST(TrainerTest, RejectsInvalidLrDecay) {
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 1;
  EGNNModel model(config);
  for (const double decay : {0.0, -0.5, 1.5, kNaN, kInf}) {
    TrainOptions options;
    options.lr_decay = decay;
    EXPECT_THROW(Trainer(model, options), Error) << "lr_decay " << decay;
  }
  TrainOptions constant;
  constant.lr_decay = 1.0;
  EXPECT_NO_THROW(Trainer(model, constant));
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);

  ModelConfig config;
  config.hidden_dim = 24;
  config.num_layers = 2;
  EGNNModel model(config);

  TrainOptions options;
  options.epochs = 12;
  options.batch_size = 4;
  options.adam.learning_rate = 3e-3;
  options.lr_decay = 1.0;  // constant LR: this run is about raw progress
  Trainer trainer(model, options);
  trainer.set_energy_baseline(EnergyBaseline::fit(dataset.view(split.train)));

  DataLoader loader(dataset.view(split.train), options.batch_size, 77);
  const EvalMetrics before =
      trainer.evaluate(dataset.view(split.test), 8);
  const auto history = trainer.fit(loader);
  const EvalMetrics after = trainer.evaluate(dataset.view(split.test), 8);

  ASSERT_EQ(history.size(), 12u);
  EXPECT_LT(history.back().mean_train_loss, history.front().mean_train_loss);
  EXPECT_LT(after.loss, before.loss);
  EXPECT_LT(after.loss, 0.6 * before.loss) << "training barely improved";
}

TEST(TrainerTest, CheckpointedTrainingMatchesPlainLossTrajectory) {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);

  const auto run = [&](bool ckpt) {
    ModelConfig config;
    config.hidden_dim = 12;
    config.num_layers = 2;
    EGNNModel model(config);
    TrainOptions options;
    options.epochs = 2;
    options.batch_size = 4;
    options.activation_checkpointing = ckpt;
    Trainer trainer(model, options);
    DataLoader loader(dataset.view(split.train), options.batch_size, 11);
    const auto history = trainer.fit(loader);
    return history.back().mean_train_loss;
  };

  // Same arithmetic, same order: identical loss trajectories.
  EXPECT_DOUBLE_EQ(run(false), run(true));
}

TEST(TrainerTest, EvaluateIsIndependentOfBatchSize) {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);
  ModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 2;
  EGNNModel model(config);
  const Trainer trainer(model, TrainOptions{});
  const auto view = dataset.view(split.test);
  const EvalMetrics a = trainer.evaluate(view, 1);
  const EvalMetrics b = trainer.evaluate(view, 16);
  EXPECT_NEAR(a.energy_mae_per_atom, b.energy_mae_per_atom, 1e-9);
  EXPECT_NEAR(a.force_mae, b.force_mae, 1e-9);
}

TEST(TrainerTest, EvaluateRejectsNonPositiveBatchSize) {
  const auto& dataset = tiny_dataset();
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 1;
  EGNNModel model(config);
  const Trainer trainer(model, TrainOptions{});
  const auto view = dataset.view({0, 1});
  for (const std::int64_t batch_size : {0, -1}) {
    try {
      trainer.evaluate(view, batch_size);
      ADD_FAILURE() << "batch_size " << batch_size << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("batch_size"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TrainerTest, GradClippingKeepsTrainingFiniteAtHighLr) {
  // An aggressively high learning rate with clipping must not blow up to
  // NaN within a few epochs (it may not learn much — the point is
  // stability).
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);
  ModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 2;
  EGNNModel model(config);
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.adam.learning_rate = 5e-2;
  options.max_grad_norm = 1.0;
  Trainer trainer(model, options);
  trainer.set_energy_baseline(EnergyBaseline::fit(dataset.view(split.train)));
  DataLoader loader(dataset.view(split.train), options.batch_size, 11);
  const auto history = trainer.fit(loader);
  EXPECT_TRUE(std::isfinite(history.back().mean_train_loss));
  for (const auto& p : model.parameters()) {
    for (const auto v : p.to_vector()) {
      ASSERT_TRUE(std::isfinite(v));
    }
  }
}

TEST(LossTest, PerfectPredictionGivesZeroLoss) {
  const auto& dataset = tiny_dataset();
  const GraphBatch batch =
      GraphBatch::from_graphs(dataset.view({0, 1, 2}));
  EGNNModel::Output perfect;
  perfect.energy = batch.energy.clone();
  perfect.forces = batch.forces.clone();
  const LossTerms terms = multitask_loss(perfect, batch, LossWeights{});
  EXPECT_NEAR(terms.total.item(), 0.0, 1e-12);
  EXPECT_NEAR(terms.energy_mse, 0.0, 1e-12);
  EXPECT_NEAR(terms.force_mse, 0.0, 1e-12);
}

TEST(LossTest, WeightsScaleTheTasks) {
  const auto& dataset = tiny_dataset();
  const GraphBatch batch = GraphBatch::from_graphs(dataset.view({0, 1}));
  EGNNModel::Output off;
  off.energy = batch.energy + 1.0;  // constant energy error
  off.forces = batch.forces.clone();
  LossWeights weights;
  weights.energy = 2.0;
  weights.force = 100.0;
  const LossTerms terms = multitask_loss(off, batch, weights);
  // Force error is zero, so the total is exactly 2 x energy MSE.
  EXPECT_NEAR(terms.total.item(), 2.0 * terms.energy_mse, 1e-12);
}

TEST(LossTest, EnergyNormalizationUsesAtomCounts) {
  const auto& dataset = tiny_dataset();
  const GraphBatch batch = GraphBatch::from_graphs(dataset.view({0}));
  EGNNModel::Output off;
  const auto n = static_cast<double>(batch.num_nodes);
  off.energy = batch.energy + n;  // error of exactly 1 eV/atom
  off.forces = batch.forces.clone();
  const LossTerms terms = multitask_loss(off, batch, LossWeights{});
  EXPECT_NEAR(terms.energy_mse, 1.0, 1e-9);
}

TEST(LossTest, GradientFlowsThroughLoss) {
  const auto& dataset = tiny_dataset();
  const GraphBatch batch = GraphBatch::from_graphs(dataset.view({0, 1}));
  ModelConfig config;
  config.hidden_dim = 8;
  config.num_layers = 1;
  EGNNModel model(config);
  const auto out = model.forward(batch);
  LossTerms terms = multitask_loss(out, batch, LossWeights{});
  terms.total.backward();
  bool any = false;
  for (const auto& p : model.parameters()) {
    if (p.grad().defined()) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(MetricsTest, AccumulatorWeightsBySize) {
  MetricAccumulator acc;
  EvalMetrics a;
  a.loss = 1.0;
  a.energy_mae_per_atom = 1.0;
  a.force_mae = 2.0;
  a.num_graphs = 1;
  a.num_nodes = 10;
  EvalMetrics b;
  b.loss = 3.0;
  b.energy_mae_per_atom = 3.0;
  b.force_mae = 4.0;
  b.num_graphs = 3;
  b.num_nodes = 30;
  acc.add(a);
  acc.add(b);
  const EvalMetrics mean = acc.mean();
  EXPECT_DOUBLE_EQ(mean.loss, 2.0);                       // per batch
  EXPECT_DOUBLE_EQ(mean.energy_mae_per_atom, 2.5);        // per graph
  EXPECT_DOUBLE_EQ(mean.force_mae, 3.5);                  // per node
}

}  // namespace
}  // namespace sgnn
