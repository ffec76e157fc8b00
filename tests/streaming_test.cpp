#include "sgnn/data/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "sgnn/data/dataset.hpp"
#include "sgnn/data/loader.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {
namespace {

class StreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ReferencePotential potential;
    DatasetOptions options;
    options.target_bytes = 400 << 10;
    options.seed = 61;
    dataset_ = std::make_unique<AggregatedDataset>(
        AggregatedDataset::generate(options, potential));
    path_ = (std::filesystem::temp_directory_path() / "sgnn_streaming.bp")
                .string();
    BpWriter writer(path_);
    for (const auto& g : dataset_->graphs()) writer.append(g);
    writer.finalize();
  }

  static void TearDownTestSuite() {
    std::remove(path_.c_str());
    dataset_.reset();
  }

  static std::unique_ptr<AggregatedDataset> dataset_;
  static std::string path_;
};

std::unique_ptr<AggregatedDataset> StreamingTest::dataset_;
std::string StreamingTest::path_;

TEST_F(StreamingTest, MatchesInMemoryLoaderBatchForBatch) {
  const BpReader reader(path_);
  std::vector<const MolecularGraph*> view;
  for (const auto& g : dataset_->graphs()) view.push_back(&g);

  DataLoader in_memory(view, 4, /*seed=*/9);
  StreamingLoader streaming(reader, 4, /*seed=*/9, /*cache_capacity=*/16);
  ASSERT_EQ(in_memory.num_batches(), streaming.num_batches());

  // Two epochs, so the reshuffle at begin_epoch is compared too.
  for (int epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) {
      in_memory.begin_epoch();
      streaming.begin_epoch();
    }
    while (in_memory.has_next()) {
      ASSERT_TRUE(streaming.has_next());
      const GraphBatch a = in_memory.next();
      const GraphBatch b = streaming.next();
      EXPECT_EQ(a.num_graphs, b.num_graphs);
      EXPECT_EQ(a.species, b.species);
      EXPECT_EQ(a.energy.to_vector(), b.energy.to_vector());
      EXPECT_EQ(a.positions.to_vector(), b.positions.to_vector());
    }
    EXPECT_FALSE(streaming.has_next());
  }
}

TEST_F(StreamingTest, RejectsImplausibleBatchSize) {
  const BpReader reader(path_);
  EXPECT_THROW(StreamingLoader(reader, 0, 5), Error);
  EXPECT_THROW(StreamingLoader(reader, INT64_MAX, 5), Error);
}

TEST_F(StreamingTest, CoversEveryRecordPerEpoch) {
  const BpReader reader(path_);
  StreamingLoader loader(reader, 3, 5, 8);
  std::int64_t seen = 0;
  while (loader.has_next()) seen += loader.next().num_graphs;
  EXPECT_EQ(seen, static_cast<std::int64_t>(reader.size()));
}

TEST_F(StreamingTest, CacheReducesRereads) {
  const BpReader reader(path_);
  // Cache big enough for the whole file: epoch 2 must be all hits.
  StreamingLoader loader(reader, 4, 5, /*cache_capacity=*/4096);
  while (loader.has_next()) loader.next();
  const auto first_epoch = loader.cache_stats();
  EXPECT_EQ(first_epoch.misses, reader.size());
  loader.begin_epoch();
  while (loader.has_next()) loader.next();
  const auto second_epoch = loader.cache_stats();
  EXPECT_EQ(second_epoch.misses, first_epoch.misses);  // no new misses
  EXPECT_GT(second_epoch.hits, first_epoch.hits);
}

TEST_F(StreamingTest, TinyCacheStillCorrect) {
  const BpReader reader(path_);
  StreamingLoader loader(reader, 6, 5, /*cache_capacity=*/1);
  double checksum = 0;
  std::int64_t graphs = 0;
  while (loader.has_next()) {
    const GraphBatch batch = loader.next();
    graphs += batch.num_graphs;
    for (const auto e : batch.energy.to_vector()) checksum += e;
  }
  EXPECT_EQ(graphs, static_cast<std::int64_t>(reader.size()));
  double expected = 0;
  for (const auto& g : dataset_->graphs()) expected += g.energy;
  EXPECT_NEAR(checksum, expected, 1e-9);
  // Everything had to be re-read: hit rate near zero.
  EXPECT_LT(loader.cache_stats().hit_rate(), 0.05);
}

TEST_F(StreamingTest, ZeroCapacityDisablesCaching) {
  const BpReader reader(path_);
  StreamingLoader loader(reader, 4, 5, /*cache_capacity=*/0);
  while (loader.has_next()) loader.next();
  loader.begin_epoch();
  while (loader.has_next()) loader.next();
  EXPECT_EQ(loader.cache_stats().hits, 0u);
  EXPECT_EQ(loader.cache_stats().misses, 2 * reader.size());
}

TEST_F(StreamingTest, UnshuffledOrderIsFileOrder) {
  const BpReader reader(path_);
  StreamingLoader loader(reader, 1, 5, 8, /*shuffle=*/false);
  std::size_t record = 0;
  while (loader.has_next()) {
    const GraphBatch batch = loader.next();
    EXPECT_DOUBLE_EQ(batch.energy.item(), dataset_->graphs()[record].energy);
    ++record;
  }
}

}  // namespace
}  // namespace sgnn
