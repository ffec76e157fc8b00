// End-to-end integration: data generation -> bp persistence -> reload ->
// training (single-process and distributed) -> evaluation, asserting the
// cross-module contracts the pipeline relies on.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "sgnn/sgnn.hpp"

namespace sgnn {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static const AggregatedDataset& dataset() {
    static const AggregatedDataset d = [] {
      const ReferencePotential potential;
      DatasetOptions options;
      options.target_bytes = 800 << 10;
      options.seed = 99;
      return AggregatedDataset::generate(options, potential);
    }();
    return d;
  }
};

TEST_F(IntegrationTest, PersistReloadTrainEvaluate) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sgnn_integration.bp")
          .string();

  // Persist the full dataset.
  {
    BpWriter writer(path);
    for (const auto& g : dataset().graphs()) writer.append(g);
    writer.finalize();
  }

  // Reload and verify it matches.
  const BpReader reader(path);
  ASSERT_EQ(reader.size(), dataset().graphs().size());
  std::vector<MolecularGraph> reloaded;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    reloaded.push_back(reader.read(i));
    EXPECT_DOUBLE_EQ(reloaded.back().energy, dataset().graphs()[i].energy);
  }
  std::remove(path.c_str());

  // Train a small model on the reloaded data.
  std::vector<const MolecularGraph*> view;
  for (const auto& g : reloaded) view.push_back(&g);
  ModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 2;
  EGNNModel model(config);
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 8;
  Trainer trainer(model, options);
  trainer.set_energy_baseline(EnergyBaseline::fit(view));
  DataLoader loader(view, options.batch_size, 5);
  const auto history = trainer.fit(loader);
  EXPECT_EQ(history.size(), 3u);

  // Evaluation on the same data must be finite and consistent.
  const EvalMetrics metrics = trainer.evaluate(view, 16);
  EXPECT_TRUE(std::isfinite(metrics.loss));
  EXPECT_GT(metrics.loss, 0);
}

TEST_F(IntegrationTest, SingleRankDistributedMatchesTrainerSemantics) {
  // A 1-rank DistributedTrainer is plain Adam training; it must produce a
  // model that actually learned (loss finite, replicas trivially in sync)
  // and zero collective traffic cost.
  ModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 1;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  DistributedTrainer trainer(config, options);

  DDStore store(1);
  store.insert(dataset().graphs());
  const DistTrainReport report = trainer.train(store);
  EXPECT_TRUE(std::isfinite(report.final_train_loss));
  EXPECT_EQ(report.comm_seconds, 0.0);
  EXPECT_EQ(report.data_traffic.remote_fetches, 0u);
  EXPECT_EQ(trainer.replica_divergence(), 0.0);

  // Trainer and every 1-rank strategy run the same loop, so they train to
  // the same bytes. One graph: with more, the trainers' epoch-0 orders
  // differ and the in-batch sum order moves the last bit.
  ModelConfig small;
  small.hidden_dim = 10;
  small.num_layers = 2;
  const MolecularGraph& graph = dataset().graphs().front();
  EGNNModel reference(small);
  TrainOptions train_options;
  train_options.epochs = 3;
  train_options.batch_size = 1;
  train_options.lr_decay = 1.0;
  Trainer single(reference, train_options);
  DataLoader loader({&graph}, train_options.batch_size, 11);
  single.fit(loader);
  const std::vector<Tensor> expected = reference.parameters();

  DDStore one_graph(1);
  one_graph.insert({graph});
  for (const DistStrategy strategy :
       {DistStrategy::kDDP, DistStrategy::kZeRO1}) {
    DistTrainOptions dist_options;
    dist_options.num_ranks = 1;
    dist_options.epochs = 3;
    dist_options.per_rank_batch_size = 1;
    dist_options.strategy = strategy;
    DistributedTrainer one_rank(small, dist_options);
    one_rank.train(one_graph);
    const std::vector<Tensor> actual = one_rank.model().parameters();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const real* a = actual[i].data();
      const real* e = expected[i].data();
      for (std::int64_t k = 0; k < expected[i].numel(); ++k) {
        EXPECT_EQ(a[k], e[k]) << "strategy " << static_cast<int>(strategy)
                              << " parameter " << i << " element " << k;
      }
    }
  }

  // Clipped at a width whose gradient has enough elements for the norm's
  // summation order to show: every setting runs the one Adam step, so the
  // clip norm each step reports, and the clipped update, agree bit for bit.
  ModelConfig wide;
  wide.hidden_dim = 64;
  wide.num_layers = 2;
  const double max_norm = 1.0;
  EGNNModel clipped_reference(wide);
  train_options.max_grad_norm = max_norm;
  Trainer clipped_single(clipped_reference, train_options);
  obs::RecordingTelemetrySink single_sink;
  clipped_single.set_telemetry(&single_sink);
  DataLoader clipped_loader({&graph}, train_options.batch_size, 11);
  clipped_single.fit(clipped_loader);
  const std::vector<Tensor> clipped_expected = clipped_reference.parameters();
  const std::vector<obs::StepTelemetry> expected_steps = single_sink.steps();
  ASSERT_EQ(expected_steps.size(), 3u);
  EXPECT_GT(expected_steps.front().grad_norm, max_norm) << "must clip";

  for (const DistStrategy strategy :
       {DistStrategy::kDDP, DistStrategy::kZeRO1}) {
    DistTrainOptions dist_options;
    dist_options.num_ranks = 1;
    dist_options.epochs = 3;
    dist_options.per_rank_batch_size = 1;
    dist_options.strategy = strategy;
    dist_options.max_grad_norm = max_norm;
    obs::RecordingTelemetrySink sink;
    dist_options.telemetry = &sink;
    DistributedTrainer one_rank(wide, dist_options);
    one_rank.train(one_graph);
    const std::vector<obs::StepTelemetry> steps = sink.steps();
    ASSERT_EQ(steps.size(), expected_steps.size());
    for (std::size_t s = 0; s < steps.size(); ++s) {
      EXPECT_EQ(steps[s].grad_norm, expected_steps[s].grad_norm)
          << "strategy " << static_cast<int>(strategy) << " step " << s;
    }
    const std::vector<Tensor> actual = one_rank.model().parameters();
    ASSERT_EQ(actual.size(), clipped_expected.size());
    for (std::size_t i = 0; i < clipped_expected.size(); ++i) {
      EXPECT_EQ(actual[i].to_vector(), clipped_expected[i].to_vector())
          << "clipped, strategy " << static_cast<int>(strategy)
          << " parameter " << i;
    }
  }
}

TEST_F(IntegrationTest, SweepPointsRespondToDataSize) {
  // The core premise of the scaling study: a model trained on more data
  // must not test WORSE (up to noise) than the same model on much less
  // data, using the same fixed test set.
  const auto split = dataset().split(0.25, 7);
  SweepProtocol protocol;
  protocol.train.epochs = 4;
  protocol.train.batch_size = 8;

  ModelConfig config;
  config.hidden_dim = 24;
  config.num_layers = 2;

  const auto small = dataset().subsample(
      split.train, dataset().total_bytes() / 8, true, 3);
  const SweepPoint tiny = run_scaling_point(dataset(), small, split.test,
                                            config, protocol);
  const SweepPoint full = run_scaling_point(dataset(), split.train,
                                            split.test, config, protocol);
  EXPECT_LT(full.test_loss, tiny.test_loss * 1.15)
      << "more data should not substantially hurt";
  EXPECT_GT(tiny.train_graphs, 0);
  EXPECT_GT(full.train_graphs, tiny.train_graphs);
}

TEST_F(IntegrationTest, MemoryTrackerBalancesAfterFullPipeline) {
  // Leak check at the accounting level: after a scoped train run, live
  // activation/gradient bytes must return to their pre-run level.
  const auto before = MemoryTracker::instance().live();
  {
    std::vector<const MolecularGraph*> view;
    for (const auto& g : dataset().graphs()) view.push_back(&g);
    ModelConfig config;
    config.hidden_dim = 12;
    config.num_layers = 2;
    EGNNModel model(config);
    TrainOptions options;
    options.epochs = 1;
    options.batch_size = 8;
    Trainer trainer(model, options);
    DataLoader loader(view, options.batch_size, 5);
    trainer.fit(loader);
  }
  const auto after = MemoryTracker::instance().live();
  EXPECT_EQ(after.of(MemCategory::kActivation),
            before.of(MemCategory::kActivation));
  EXPECT_EQ(after.of(MemCategory::kGradient),
            before.of(MemCategory::kGradient));
  EXPECT_EQ(after.of(MemCategory::kWeight), before.of(MemCategory::kWeight));
  EXPECT_EQ(after.of(MemCategory::kOptimizerState),
            before.of(MemCategory::kOptimizerState));
}

}  // namespace
}  // namespace sgnn
