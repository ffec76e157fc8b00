#include "sgnn/nn/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sgnn/data/sources.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GraphBatch test_batch() {
  const ReferencePotential potential;
  Rng rng(21);
  std::vector<MolecularGraph> graphs = {
      generate_sample(DataSource::kANI1x, rng, potential),
      generate_sample(DataSource::kMPTrj, rng, potential)};
  return GraphBatch::from_graphs(graphs);
}

ModelConfig small_config() {
  ModelConfig config;
  config.hidden_dim = 12;
  config.num_layers = 2;
  config.seed = 1234;
  return config;
}

TEST(ModelIoTest, SaveLoadRoundTripPreservesPredictions) {
  const TempFile file("sgnn_model_roundtrip.sgmd");
  const GraphBatch batch = test_batch();

  const EGNNModel original(small_config());
  const auto expected = original.forward(batch);
  save_model(original, file.path());

  const auto restored = load_model(file.path());
  const auto actual = restored->forward(batch);
  EXPECT_EQ(actual.energy.to_vector(), expected.energy.to_vector());
  EXPECT_EQ(actual.forces.to_vector(), expected.forces.to_vector());
  EXPECT_EQ(restored->num_parameters(), original.num_parameters());
}

TEST(ModelIoTest, LoadParametersIntoExistingModel) {
  const TempFile file("sgnn_model_into.sgmd");
  const GraphBatch batch = test_batch();

  const EGNNModel source(small_config());
  save_model(source, file.path());

  ModelConfig other = small_config();
  other.seed = 9999;  // different init, same architecture
  EGNNModel target(other);
  EXPECT_NE(target.forward(batch).energy.at(0, 0),
            source.forward(batch).energy.at(0, 0));
  load_parameters_into(target, file.path());
  EXPECT_EQ(target.forward(batch).energy.to_vector(),
            source.forward(batch).energy.to_vector());
}

TEST(ModelIoTest, ArchitectureMismatchIsRejected) {
  const TempFile file("sgnn_model_mismatch.sgmd");
  const EGNNModel source(small_config());
  save_model(source, file.path());

  ModelConfig wider = small_config();
  wider.hidden_dim = 16;
  EGNNModel target(wider);
  EXPECT_THROW(load_parameters_into(target, file.path()), Error);
}

TEST(ModelIoTest, CorruptedFileIsRejected) {
  const TempFile file("sgnn_model_corrupt.sgmd");
  const EGNNModel model(small_config());
  save_model(model, file.path());
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    const char byte = 0x5A;
    f.write(&byte, 1);
  }
  EXPECT_THROW(load_model(file.path()), Error);
}

TEST(ModelIoTest, TruncatedFileIsRejected) {
  const TempFile file("sgnn_model_trunc.sgmd");
  const EGNNModel model(small_config());
  save_model(model, file.path());
  const auto full_size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), full_size / 2);
  EXPECT_THROW(load_model(file.path()), Error);
}

TEST(ModelIoTest, TruncatedPayloadLeavesModelUnchanged) {
  // Restore is two-phase (stage everything, then commit): a payload that
  // fails validation partway through must not tear the target model.
  const GraphBatch batch = test_batch();
  const EGNNModel source(small_config());
  std::string payload = model_payload_bytes(source);

  ModelConfig other = small_config();
  other.seed = 4242;
  EGNNModel target(other);
  const auto before = target.forward(batch).energy.to_vector();

  payload.resize(payload.size() / 2);
  EXPECT_THROW(load_model_payload(target, payload), Error);
  EXPECT_EQ(target.forward(batch).energy.to_vector(), before);
}

TEST(ModelIoTest, MissingFileIsRejected) {
  EXPECT_THROW(load_model("/nonexistent/sgnn_model.sgmd"), Error);
}

TEST(ModelIoTest, NotAModelFileIsRejected) {
  const TempFile file("sgnn_model_garbage.sgmd");
  {
    std::ofstream f(file.path(), std::ios::binary);
    f << "garbage garbage garbage garbage garbage";
  }
  EXPECT_THROW(load_model(file.path()), Error);
}

}  // namespace
}  // namespace sgnn
