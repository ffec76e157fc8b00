#include "sgnn/ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>
#include <span>

#include "sgnn/data/dataset.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/serve/server.hpp"
#include "sgnn/train/distributed.hpp"
#include "sgnn/train/trainer.hpp"
#include "sgnn/train/zero.hpp"

namespace sgnn {
namespace {

/// The parameters' values, flat in registration order: their arena's value
/// buffer (a list an optimizer already packed is adopted, not copied).
std::vector<real> flat_values(const std::vector<Tensor>& parameters) {
  const std::span<real> values = ParamArena(parameters).values();
  return {values.begin(), values.end()};
}


/// Unique scratch directory, removed (recursively) on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

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

// -- container --------------------------------------------------------------

TEST(SnapshotContainerTest, PayloadRoundTripPreservesEverySectionType) {
  SnapshotBuilder builder;
  builder.add_bytes("raw", std::string("\x00\x01payload", 9));
  builder.add_u64("unsigned", 0xDEADBEEFCAFEBABEULL);
  builder.add_i64("signed", -42);
  builder.add_f64("float", 2.5);
  const std::vector<real> values = {1.0, -2.0, 3.5};
  builder.add_reals("reals", values.data(), values.size());
  builder.add_u64s("indices", {7, 8, 9});

  const SnapshotView view(builder.payload());
  EXPECT_EQ(view.bytes("raw"), std::string("\x00\x01payload", 9));
  EXPECT_EQ(view.u64("unsigned"), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(view.i64("signed"), -42);
  EXPECT_DOUBLE_EQ(view.f64("float"), 2.5);
  EXPECT_EQ(view.reals("reals"), values);
  EXPECT_EQ(view.u64s("indices"), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_TRUE(view.has("raw"));
  EXPECT_FALSE(view.has("absent"));
}

TEST(SnapshotContainerTest, PayloadBytesAreInsertionOrderIndependent) {
  SnapshotBuilder forward;
  forward.add_u64("a", 1);
  forward.add_u64("b", 2);
  SnapshotBuilder reversed;
  reversed.add_u64("b", 2);
  reversed.add_u64("a", 1);
  EXPECT_EQ(forward.payload(), reversed.payload());
}

TEST(SnapshotContainerTest, MissingSectionAndTypeMismatchThrow) {
  SnapshotBuilder builder;
  builder.add_u64("counter", 3);
  builder.add_bytes("blob", "xyz");
  const SnapshotView view(builder.payload());
  EXPECT_THROW(view.u64("absent"), Error);
  EXPECT_THROW(view.u64("blob"), Error);    // 3 bytes, not 8
  EXPECT_THROW(view.reals("blob"), Error);  // not a multiple of sizeof(real)
  EXPECT_THROW(SnapshotBuilder(builder).add_u64("counter", 4), Error);
}

TEST(SnapshotContainerTest, FileRoundTripLeavesNoTemporary) {
  TempDir dir("sgnn_ckpt_file_test");
  std::filesystem::create_directories(dir.path());
  const std::string path =
      (std::filesystem::path(dir.path()) / "snap.sgck").string();
  SnapshotBuilder builder;
  builder.add_i64("step", 12);
  const std::string payload = builder.payload();

  write_snapshot_file(path, payload);
  EXPECT_EQ(read_snapshot_file(path), payload);
  // The atomic-rename protocol must not leave the staging file behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Overwriting an existing snapshot is equally atomic.
  SnapshotBuilder next;
  next.add_i64("step", 13);
  write_snapshot_file(path, next.payload());
  EXPECT_EQ(read_snapshot_file(path), next.payload());
}

// -- manager ----------------------------------------------------------------

std::string step_payload(std::int64_t step) {
  SnapshotBuilder builder;
  builder.add_i64("meta.step", step);
  return builder.payload();
}

TEST(CheckpointManagerTest, RetentionKeepsOnlyTheNewestSnapshots) {
  TempDir dir("sgnn_ckpt_retention_test");
  ckpt::CheckpointManager manager(dir.path(), /*keep_last=*/2);
  for (std::uint64_t step = 1; step <= 5; ++step) {
    manager.save(step, step_payload(static_cast<std::int64_t>(step)));
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  const auto loaded = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 5u);
}

TEST(CheckpointManagerTest, RejectsRetentionWithoutAFallback) {
  EXPECT_THROW(ckpt::CheckpointManager("somewhere", /*keep_last=*/1), Error);
  EXPECT_THROW(ckpt::CheckpointManager("", /*keep_last=*/2), Error);
}

TEST(CheckpointManagerTest, LoadLatestFallsBackAcrossTruncatedSnapshot) {
  TempDir dir("sgnn_ckpt_truncate_test");
  ckpt::CheckpointManager manager(dir.path(), 2);
  manager.save(1, step_payload(1));
  const std::string newest = manager.save(2, step_payload(2));

  auto& skipped = obs::MetricsRegistry::instance().counter(
      "ckpt.corrupt_skipped");
  const std::int64_t skipped_before = skipped.value();
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) / 2);

  const auto loaded = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 1u);
  EXPECT_EQ(SnapshotView(loaded->payload).i64("meta.step"), 1);
  EXPECT_EQ(skipped.value(), skipped_before + 1);
}

TEST(CheckpointManagerTest, LoadLatestFallsBackAcrossBitFlippedSnapshot) {
  TempDir dir("sgnn_ckpt_bitflip_test");
  ckpt::CheckpointManager manager(dir.path(), 2);
  manager.save(3, step_payload(3));
  const std::string newest = manager.save(4, step_payload(4));

  std::string bytes = slurp(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  spew(newest, bytes);

  const auto loaded = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 3u);
}

TEST(CheckpointManagerTest, LoadLatestReturnsNulloptWhenNothingReadable) {
  TempDir dir("sgnn_ckpt_empty_test");
  EXPECT_FALSE(ckpt::CheckpointManager::load_latest(dir.path()).has_value());
  // A directory of only corrupt snapshots also yields nullopt, not a throw.
  ckpt::CheckpointManager manager(dir.path(), 2);
  const std::string only = manager.save(1, step_payload(1));
  spew(only, "not a snapshot at all");
  EXPECT_FALSE(ckpt::CheckpointManager::load_latest(dir.path()).has_value());
}

TEST(CheckpointManagerTest, SaveAndRestoreRecordMetrics) {
  auto& registry = obs::MetricsRegistry::instance();
  const std::int64_t writes_before = registry.counter("ckpt.writes").value();
  const std::int64_t bytes_before = registry.counter("ckpt.bytes").value();
  const std::int64_t restores_before =
      registry.counter("ckpt.restores").value();

  TempDir dir("sgnn_ckpt_metrics_test");
  ckpt::CheckpointManager manager(dir.path(), 2);
  manager.save(1, step_payload(1));
  ASSERT_TRUE(ckpt::CheckpointManager::load_latest(dir.path()).has_value());

  EXPECT_EQ(registry.counter("ckpt.writes").value(), writes_before + 1);
  EXPECT_GT(registry.counter("ckpt.bytes").value(), bytes_before);
  EXPECT_EQ(registry.counter("ckpt.restores").value(), restores_before + 1);
}

// -- fault injection --------------------------------------------------------

TEST(SimulatedCrashTest, MaybeCrashHonorsThreshold) {
  ckpt::CheckpointOptions options;
  EXPECT_NO_THROW(ckpt::maybe_crash(options, 1000));  // disabled by default
  options.crash_after_step = 5;
  EXPECT_NO_THROW(ckpt::maybe_crash(options, 4));
  EXPECT_THROW(ckpt::maybe_crash(options, 5), ckpt::SimulatedCrash);
  try {
    ckpt::maybe_crash(options, 7);
    FAIL() << "expected SimulatedCrash";
  } catch (const ckpt::SimulatedCrash& crash) {
    EXPECT_EQ(crash.step(), 7);
  }
}

// -- single-process trainer resume ------------------------------------------

std::vector<real> trainer_run(const std::string& ckpt_dir,
                              std::int64_t every_steps,
                              std::int64_t crash_after,
                              const std::string& resume_from,
                              bool expect_crash) {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);

  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  EGNNModel model(config);

  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.adam.learning_rate = 2e-3;
  options.max_grad_norm = 1.0;
  options.checkpoint.every_steps = every_steps;
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.crash_after_step = crash_after;
  options.checkpoint.resume_from = resume_from;

  Trainer trainer(model, options);
  DataLoader loader(dataset.view(split.train), options.batch_size, 11);
  if (expect_crash) {
    EXPECT_THROW(trainer.fit(loader), ckpt::SimulatedCrash);
  } else {
    trainer.fit(loader);
  }
  return flat_values(model.parameters());
}

TEST(TrainerResumeTest, CrashAndResumeIsBitIdenticalToUninterruptedRun) {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);
  const std::int64_t steps_per_epoch =
      DataLoader(dataset.view(split.train), 4, 11).num_batches();
  ASSERT_GT(steps_per_epoch, 2);  // the crash step below must be reachable

  TempDir dir("sgnn_trainer_resume_test");
  // Reference: the same run with checkpointing but no crash.
  const std::vector<real> reference =
      trainer_run("", /*every_steps=*/0, /*crash_after=*/-1, "", false);

  // Crash mid-epoch-1 with snapshots every 2 steps: the newest good
  // snapshot precedes the crash, so the resume replays at least one step.
  trainer_run(dir.path(), 2, steps_per_epoch + 2, "", true);
  ASSERT_TRUE(ckpt::CheckpointManager::load_latest(dir.path()).has_value());

  // Resume and finish; parameters must match the reference byte for byte.
  const std::vector<real> resumed =
      trainer_run("", 0, -1, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

TEST(TrainerResumeTest, ResumeFromEpochBoundaryCheckpointIsBitIdentical) {
  const auto& dataset = tiny_dataset();
  const auto split = dataset.split(0.25, 5);
  const std::int64_t steps_per_epoch =
      DataLoader(dataset.view(split.train), 4, 11).num_batches();
  ASSERT_GT(steps_per_epoch, 1);

  TempDir dir("sgnn_trainer_boundary_test");
  const std::vector<real> reference = trainer_run("", 0, -1, "", false);
  // Snapshot lands exactly on the last step of epoch 0, then crash.
  trainer_run(dir.path(), steps_per_epoch, steps_per_epoch, "", true);
  const std::vector<real> resumed = trainer_run("", 0, -1, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

TEST(TrainerResumeTest, CorruptNewestCheckpointFallsBackToPreviousGood) {
  TempDir dir("sgnn_trainer_corrupt_test");
  const std::vector<real> reference = trainer_run("", 0, -1, "", false);

  // Snapshots every 2 steps, crash after 6: on-disk 4 and 6 (keep_last=2).
  trainer_run(dir.path(), 2, 6, "", true);
  const auto newest = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(newest.has_value());
  ASSERT_EQ(newest->step, 6u);
  std::string bytes = slurp(newest->path);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x01);
  spew(newest->path, bytes);

  // Resume silently falls back to snapshot 4 and still converges to the
  // reference bit-for-bit (it just replays two more steps).
  const auto fallback = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->step, 4u);
  const std::vector<real> resumed = trainer_run("", 0, -1, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

/// A 3-epoch run over 6 graphs at batch 4 (2 steps per epoch): the
/// per-epoch mean losses and the final parameters.
std::pair<std::vector<double>, std::vector<real>> small_fit(
    const std::string& ckpt_dir, std::int64_t every_steps,
    std::int64_t crash_after, const std::string& resume_from) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  EGNNModel model(config);
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.checkpoint.every_steps = every_steps;
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.crash_after_step = crash_after;
  options.checkpoint.resume_from = resume_from;
  Trainer trainer(model, options);
  DataLoader loader(tiny_dataset().view({0, 1, 2, 3, 4, 5}),
                    options.batch_size, 11);
  std::vector<double> history;
  for (const auto& epoch : trainer.fit(loader)) {
    history.push_back(epoch.mean_train_loss);
  }
  return std::make_pair(history, flat_values(model.parameters()));
}

TEST(TrainerResumeTest, EpochBoundaryResumeReportsNoPhantomEpoch) {
  // The snapshot at step 4 is taken on the last step of epoch 1, so the
  // resume must start at epoch 2 and report exactly the uninterrupted
  // run's last epoch.
  TempDir dir("sgnn_trainer_phantom_epoch_test");
  const auto [reference_history, reference_params] = small_fit("", 0, -1, "");
  ASSERT_EQ(reference_history.size(), 3u);
  EXPECT_THROW(small_fit(dir.path(), 2, 4, ""), ckpt::SimulatedCrash);
  const auto [resumed_history, resumed_params] =
      small_fit("", 0, -1, dir.path());
  EXPECT_EQ(resumed_history, std::vector<double>(reference_history.begin() + 2,
                                                 reference_history.end()));
  EXPECT_EQ(resumed_params, reference_params);
}

TEST(TrainerResumeTest, MidEpochResumeReportsTheWholeEpochLoss) {
  // The snapshot at step 3 is taken after the first step of epoch 1, so
  // the resumed epoch-1 mean must still cover that step: the restored loss
  // tally continues the sum the crashed run had.
  TempDir dir("sgnn_trainer_mid_epoch_loss_test");
  const auto [reference_history, reference_params] = small_fit("", 0, -1, "");
  ASSERT_EQ(reference_history.size(), 3u);
  EXPECT_THROW(small_fit(dir.path(), 1, 3, ""), ckpt::SimulatedCrash);
  const auto [resumed_history, resumed_params] =
      small_fit("", 0, -1, dir.path());
  EXPECT_EQ(resumed_history, std::vector<double>(reference_history.begin() + 1,
                                                 reference_history.end()));
  EXPECT_EQ(resumed_params, reference_params);
}

// -- distributed trainer resume ---------------------------------------------

class DistributedResume : public ::testing::TestWithParam<DistStrategy> {};

std::vector<real> dist_run(DistStrategy strategy, const DDStore& store,
                           const std::string& ckpt_dir,
                           std::int64_t every_steps, std::int64_t crash_after,
                           const std::string& resume_from, bool expect_crash,
                           std::int64_t crash_in_overlap = -1,
                           DistTrainReport* report = nullptr) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 2;
  options.per_rank_batch_size = 4;
  options.strategy = strategy;
  options.max_grad_norm = 1.0;
  options.schedule = LrSchedule::warmup_cosine(2e-3, 3, 40);
  options.checkpoint.every_steps = every_steps;
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.crash_after_step = crash_after;
  options.checkpoint.crash_in_overlap_step = crash_in_overlap;
  options.checkpoint.resume_from = resume_from;

  DistributedTrainer trainer(config, options);
  if (expect_crash) {
    EXPECT_THROW(trainer.train(store), ckpt::SimulatedCrash);
  } else {
    const DistTrainReport result = trainer.train(store);
    if (report != nullptr) *report = result;
    EXPECT_EQ(trainer.replica_divergence(), 0.0);
  }
  return flat_values(trainer.model().parameters());
}

TEST_P(DistributedResume, MidEpochResumeReportsTheUninterruptedFinalLoss) {
  // final_train_loss is the mean over the whole run; every rank's loss
  // tally rides in the snapshot, so the resumed report matches bit for bit.
  const DistStrategy strategy = GetParam();
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  const std::int64_t steps_per_epoch = store.size() / (2 * 4);
  ASSERT_GT(steps_per_epoch, 1);
  DistTrainReport reference;
  dist_run(strategy, store, "", 0, -1, "", false, -1, &reference);
  TempDir dir("sgnn_dist_final_loss_test");
  dist_run(strategy, store, dir.path(), 1, steps_per_epoch + 1, "", true);
  DistTrainReport resumed;
  dist_run(strategy, store, "", 0, -1, dir.path(), false, -1, &resumed);
  EXPECT_EQ(resumed.final_train_loss, reference.final_train_loss);
  EXPECT_LT(resumed.steps, reference.steps);
}

TEST_P(DistributedResume, CrashAndResumeIsBitIdenticalToUninterruptedRun) {
  const DistStrategy strategy = GetParam();
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  const std::int64_t steps_per_epoch =
      store.size() / (2 * 4);
  ASSERT_GT(steps_per_epoch, 1);

  const std::vector<real> reference =
      dist_run(strategy, store, "", 0, -1, "", false);

  // Crash mid-epoch-1 (one step past the epoch boundary), snapshots every
  // step — the resume restores a mid-epoch position and replays from there.
  TempDir dir("sgnn_dist_resume_test");
  dist_run(strategy, store, dir.path(), 1, steps_per_epoch + 1, "", true);
  ASSERT_TRUE(ckpt::CheckpointManager::load_latest(dir.path()).has_value());

  const std::vector<real> resumed =
      dist_run(strategy, store, "", 0, -1, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

TEST_P(DistributedResume, EpochBoundaryCheckpointResumesBitIdentically) {
  const DistStrategy strategy = GetParam();
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  const std::int64_t steps_per_epoch = store.size() / (2 * 4);
  ASSERT_GT(steps_per_epoch, 1);

  const std::vector<real> reference =
      dist_run(strategy, store, "", 0, -1, "", false);
  TempDir dir("sgnn_dist_boundary_test");
  dist_run(strategy, store, dir.path(), steps_per_epoch, steps_per_epoch, "",
           true);
  const std::vector<real> resumed =
      dist_run(strategy, store, "", 0, -1, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

TEST_P(DistributedResume, CrashInsideOverlapWindowResumesBitIdentically) {
  // The hardest crash point the overlapped path introduces: every gradient
  // bucket of step N has been POSTED (the progress engine may already be
  // summing them) but nothing has been drained — no parameter or moment has
  // been touched. The crash must land symmetrically on all ranks (no rank
  // stranded in a collective), the bucketer teardown must retire the
  // in-flight posts, and resuming from step N-1's snapshot must replay to
  // the exact bytes of an uninterrupted run. Bucketing is on by default in
  // DistTrainOptions, so dist_run exercises the overlapped path as-is.
  const DistStrategy strategy = GetParam();
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  const std::int64_t steps_per_epoch = store.size() / (2 * 4);
  ASSERT_GT(steps_per_epoch, 1);

  const std::vector<real> reference =
      dist_run(strategy, store, "", 0, -1, "", false);

  TempDir dir("sgnn_dist_overlap_crash_test");
  dist_run(strategy, store, dir.path(), 1, -1, "", true,
           /*crash_in_overlap=*/steps_per_epoch + 1);
  const auto latest = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(latest.has_value());
  // The interrupted step never completed, so the newest snapshot is the
  // previous step's.
  EXPECT_EQ(latest->step,
            static_cast<std::uint64_t>(steps_per_epoch));

  const std::vector<real> resumed =
      dist_run(strategy, store, "", 0, -1, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

INSTANTIATE_TEST_SUITE_P(Strategies, DistributedResume,
                         ::testing::Values(DistStrategy::kDDP,
                                           DistStrategy::kZeRO1));

TEST(DistributedResumeTest, MismatchedTopologyIsRejected) {
  DDStore store2(2);
  store2.insert(tiny_dataset().graphs());
  TempDir dir("sgnn_dist_mismatch_test");
  dist_run(DistStrategy::kDDP, store2, dir.path(), 2, 3, "", true);

  // Wrong strategy for the stored optimizer state.
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.strategy = DistStrategy::kZeRO1;
  options.checkpoint.resume_from = dir.path();
  DistributedTrainer wrong_strategy(config, options);
  EXPECT_THROW(wrong_strategy.train(store2), Error);

  // Wrong rank count.
  DDStore store4(4);
  store4.insert(tiny_dataset().graphs());
  options.strategy = DistStrategy::kDDP;
  options.num_ranks = 4;
  DistributedTrainer wrong_ranks(config, options);
  EXPECT_THROW(wrong_ranks.train(store4), Error);
}

TEST(DistributedResumeTest, StoreOfAnotherSizeIsRejected) {
  // The snapshot holds the sampler's order over the store it was written
  // for; resuming against a store of another size is a typed error, not a
  // silently re-derived permutation.
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  TempDir dir("sgnn_dist_store_size_test");
  dist_run(DistStrategy::kDDP, store, dir.path(), 2, 3, "", true);

  const auto& graphs = tiny_dataset().graphs();
  DDStore smaller(2);
  smaller.insert(std::vector<MolecularGraph>(graphs.begin(), graphs.end() - 1));
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 2;
  options.per_rank_batch_size = 4;
  options.checkpoint.resume_from = dir.path();
  DistributedTrainer trainer(config, options);
  EXPECT_THROW(trainer.train(smaller), Error);
}

TEST(DistributedResumeTest, ReportCountsOnlyTheStepsThisCallRan) {
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  const std::int64_t total_steps = 2 * (store.size() / (2 * 4));
  ASSERT_GT(total_steps, 2);  // the resume below must still run steps
  TempDir dir("sgnn_dist_report_steps_test");
  dist_run(DistStrategy::kDDP, store, dir.path(), 1, 2, "", true);

  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 2;
  options.per_rank_batch_size = 4;
  options.checkpoint.resume_from = dir.path();
  obs::RecordingTelemetrySink sink;
  options.telemetry = &sink;
  DistributedTrainer trainer(config, options);
  const DistTrainReport report = trainer.train(store);

  std::int64_t rank0_steps = 0;
  for (const obs::StepTelemetry& step : sink.steps()) {
    if (step.rank == 0) ++rank0_steps;
  }
  EXPECT_EQ(rank0_steps, total_steps - 2);
  EXPECT_EQ(report.steps, rank0_steps);
}

// -- graph-parallel resume ----------------------------------------------------

std::vector<real> gpar_run(const DDStore& store, const std::string& ckpt_dir,
                           std::int64_t every_steps,
                           const std::string& resume_from, bool expect_crash,
                           std::int64_t crash_in_overlap = -1) {
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 2;
  options.per_rank_batch_size = 4;  // the GLOBAL batch under graph_parallel
  options.strategy = DistStrategy::kDDP;
  options.graph_parallel = true;
  options.max_grad_norm = 0.0;  // required by the bit-identity contract
  options.schedule = LrSchedule::warmup_cosine(2e-3, 3, 40);
  options.checkpoint.every_steps = every_steps;
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.crash_in_overlap_step = crash_in_overlap;
  options.checkpoint.resume_from = resume_from;

  DistributedTrainer trainer(config, options);
  if (expect_crash) {
    EXPECT_THROW(trainer.train(store), ckpt::SimulatedCrash);
  } else {
    trainer.train(store);
    EXPECT_EQ(trainer.replica_divergence(), 0.0);
  }
  return flat_values(trainer.model().parameters());
}

TEST(GraphParallelResumeTest, CrashInHaloExchangeWindowResumesBitIdentically) {
  // Graph-parallel twist on the overlap-crash test: the crash fires INSIDE
  // the halo-exchange window — boundary gathers for x and h are posted on
  // every rank, nothing has been waited on. All ranks throw together at the
  // same step, the exchanger destructors drain the symmetric in-flight
  // collectives, and resuming from the previous step's snapshot replays to
  // the exact bytes of an uninterrupted graph-parallel run.
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  // Under graph_parallel the ranks cooperate on ONE global batch per step.
  const std::int64_t steps_per_epoch = store.size() / 4;
  ASSERT_GT(steps_per_epoch, 1);

  const std::vector<real> reference = gpar_run(store, "", 0, "", false);

  TempDir dir("sgnn_gpar_halo_crash_test");
  gpar_run(store, dir.path(), 1, "", true,
           /*crash_in_overlap=*/steps_per_epoch + 1);
  const auto latest = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(latest.has_value());
  // The interrupted step never completed; the newest snapshot is mid-epoch.
  EXPECT_EQ(latest->step, static_cast<std::uint64_t>(steps_per_epoch));

  const std::vector<real> resumed = gpar_run(store, "", 0, dir.path(), false);
  EXPECT_EQ(resumed, reference);
}

TEST(GraphParallelResumeTest, SnapshotKindsAreMutuallyExclusive) {
  // Graph-parallel snapshots carry plain per-rank Adam state under
  // meta.kind "dist.gpar"; replicated runs write "dist" with DDP/ZeRO
  // layouts. Cross-mode resume must fail loudly in BOTH directions rather
  // than silently reinterpret moment buffers.
  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;

  // A graph-parallel snapshot is rejected by a replicated resume.
  TempDir gpar_dir("sgnn_gpar_kind_test");
  gpar_run(store, gpar_dir.path(), 2, "", true, /*crash_in_overlap=*/3);
  ASSERT_TRUE(
      ckpt::CheckpointManager::load_latest(gpar_dir.path()).has_value());
  DistTrainOptions ddp_options;
  ddp_options.num_ranks = 2;
  ddp_options.epochs = 1;
  ddp_options.per_rank_batch_size = 4;
  ddp_options.strategy = DistStrategy::kDDP;
  ddp_options.checkpoint.resume_from = gpar_dir.path();
  DistributedTrainer ddp_trainer(config, ddp_options);
  EXPECT_THROW(ddp_trainer.train(store), Error);

  // And a replicated snapshot is rejected by a graph-parallel resume.
  TempDir ddp_dir("sgnn_dist_kind_for_gpar_test");
  dist_run(DistStrategy::kDDP, store, ddp_dir.path(), 2, 3, "", true);
  DistTrainOptions gpar_options;
  gpar_options.num_ranks = 2;
  gpar_options.epochs = 1;
  gpar_options.per_rank_batch_size = 4;
  gpar_options.strategy = DistStrategy::kDDP;
  gpar_options.graph_parallel = true;
  gpar_options.max_grad_norm = 0.0;
  gpar_options.checkpoint.resume_from = ddp_dir.path();
  DistributedTrainer gpar_trainer(config, gpar_options);
  EXPECT_THROW(gpar_trainer.train(store), Error);
}

TEST(DistributedResumeTest, TrainerSnapshotIsRejectedByDistributedTrainer) {
  TempDir dir("sgnn_dist_kind_test");
  trainer_run(dir.path(), 2, 4, "", true);  // writes "trainer" snapshots

  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  DistTrainOptions options;
  options.num_ranks = 2;
  options.epochs = 1;
  options.per_rank_batch_size = 4;
  options.checkpoint.resume_from = dir.path();
  DistributedTrainer trainer(config, options);
  EXPECT_THROW(trainer.train(store), Error);
}

// -- snapshot layout ----------------------------------------------------------

SnapshotView newest_snapshot(const std::string& dir) {
  const auto loaded = ckpt::CheckpointManager::load_latest(dir);
  if (!loaded) throw std::runtime_error("no snapshot under " + dir);
  return SnapshotView(loaded->payload);
}

void expect_sections(const SnapshotView& view,
                     const std::vector<std::string>& present,
                     const std::vector<std::string>& absent,
                     const std::string& what) {
  for (const std::string& name : present) {
    EXPECT_TRUE(view.has(name)) << what << " lacks " << name;
  }
  for (const std::string& name : absent) {
    EXPECT_FALSE(view.has(name)) << what << " has " << name;
  }
}

TEST(SnapshotLayoutTest, SectionNamesAndKindsArePinned) {
  // Resume reads sections by name, so a renamed section breaks every
  // checkpoint already on disk while fresh round trips still pass. Pin the
  // names and meta.kind each trainer writes.
  const std::vector<std::string> common = {
      "meta.kind",         "meta.step",     "meta.epoch",
      "model.config.hidden_dim", "model.param_count",
      "model.shape.0",     "model.param.0", "optim.timestep",
      "optim.lr",          "sampler.rng",   "sampler.order",
      "sampler.cursor",    "loss.sum",      "loss.steps"};
  const std::vector<std::string> dist_meta = {"meta.ranks", "meta.strategy"};
  // Names no snapshot kind writes any more.
  const std::vector<std::string> retired = {
      "model", "loader.rng", "loader.order", "loader.cursor",
      "meta.epoch_step"};
  const std::vector<std::string> replicated = {"optim.m", "optim.v"};
  const std::vector<std::string> sharded = {"optim.m.0", "optim.v.0",
                                            "optim.m.1", "optim.v.1"};
  const auto concat = [](std::vector<std::string> a,
                         const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };

  TempDir trainer_dir("sgnn_layout_trainer_test");
  trainer_run(trainer_dir.path(), 2, 4, "", true);
  const SnapshotView trainer = newest_snapshot(trainer_dir.path());
  EXPECT_EQ(trainer.bytes("meta.kind"), "trainer");
  expect_sections(trainer, concat(common, replicated),
                  concat(concat(dist_meta, sharded), retired), "trainer");

  DDStore store(2);
  store.insert(tiny_dataset().graphs());
  TempDir ddp_dir("sgnn_layout_ddp_test");
  dist_run(DistStrategy::kDDP, store, ddp_dir.path(), 2, 3, "", true);
  const SnapshotView ddp = newest_snapshot(ddp_dir.path());
  EXPECT_EQ(ddp.bytes("meta.kind"), "dist");
  expect_sections(ddp, concat(concat(common, replicated), dist_meta),
                  concat(sharded, retired), "ddp");

  TempDir zero_dir("sgnn_layout_zero_test");
  dist_run(DistStrategy::kZeRO1, store, zero_dir.path(), 2, 3, "", true);
  const SnapshotView zero = newest_snapshot(zero_dir.path());
  EXPECT_EQ(zero.bytes("meta.kind"), "dist");
  expect_sections(zero, concat(concat(common, sharded), dist_meta),
                  concat(concat(replicated, retired), {"optim.m.2"}),
                  "zero1");

  TempDir gpar_dir("sgnn_layout_gpar_test");
  gpar_run(store, gpar_dir.path(), 2, "", true, /*crash_in_overlap=*/3);
  const SnapshotView gpar = newest_snapshot(gpar_dir.path());
  EXPECT_EQ(gpar.bytes("meta.kind"), "dist.gpar");
  expect_sections(gpar, concat(concat(common, replicated), dist_meta),
                  concat(sharded, retired), "graph-parallel");
}

TEST(CheckpointIsModelFileTest, NewestSnapshotLoadsAndServesAsAModel) {
  // A checkpoint holds the same model.* sections as a model file, so
  // load_model and serve::Server read it with no checkpoint-specific API.
  TempDir dir("sgnn_ckpt_as_model_test");
  const auto graphs =
      tiny_dataset().view({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  ModelConfig config;
  config.hidden_dim = 10;
  config.num_layers = 2;
  EGNNModel model(config);
  TrainOptions options;
  options.batch_size = 4;
  options.checkpoint.every_steps = 1;
  options.checkpoint.directory = dir.path();
  Trainer trainer(model, options);
  DataLoader loader(graphs, options.batch_size, 11);
  trainer.train_epoch(loader);  // 12 graphs / batch 4 = 3 steps
  const auto newest = ckpt::CheckpointManager::load_latest(dir.path());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->step, 3u);

  const GraphBatch batch = GraphBatch::from_graphs(graphs);
  const auto restored = load_model(newest->path);
  EXPECT_EQ(restored->forward(batch).energy.to_vector(),
            model.forward(batch).energy.to_vector());

  const AtomicStructure& structure = graphs.front()->structure;
  const MolecularGraph graph =
      MolecularGraph::from_structure(structure, config.cutoff);
  const GraphBatch single =
      GraphBatch::from_graphs(std::vector<const MolecularGraph*>{&graph});
  double direct = 0.0;
  {
    const autograd::NoGradGuard guard;
    direct = model.forward(single).energy.at(0, 0);
  }
  serve::ServerOptions serve_options;
  serve_options.num_workers = 1;
  serve::Server server(config, read_snapshot_file(newest->path),
                       serve_options);
  EXPECT_EQ(server.submit({structure, /*compute_forces=*/false}).get().energy,
            direct);
}

}  // namespace
}  // namespace sgnn
