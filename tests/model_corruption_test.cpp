// Corruption matrix over the one snapshot container (SGCK), exercised both
// as a model file (save_model/load_model) and as a bare snapshot: every
// mutation — truncation at any length, oversized payload_size, flipped CRC,
// wrong magic/version, random bit flips — must surface as a thrown
// sgnn::Error from read_snapshot_file or SnapshotView, never a crash, hang,
// or huge allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sgnn/ckpt/checkpoint.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/util/rng.hpp"

namespace sgnn {
namespace {

// Snapshot container framing (model files and checkpoints alike).
constexpr std::size_t kHeaderBytes = 16;   // magic + u32 version + u64 size
constexpr std::size_t kPayloadSizeOffset = 8;
constexpr std::size_t kTrailerBytes = 8;   // u32 crc + magic

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
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

/// Pristine bytes of a tiny saved model file, computed once.
const std::string& model_bytes() {
  static const std::string bytes = [] {
    ModelConfig config;
    config.hidden_dim = 4;
    config.num_layers = 1;
    const EGNNModel model(config);
    TempFile file("sgnn_corruption_model.sgmd");
    save_model(model, file.path());
    return slurp(file.path());
  }();
  return bytes;
}

/// Pristine bytes of a small snapshot container, computed once.
const std::string& snapshot_bytes() {
  static const std::string bytes = [] {
    SnapshotBuilder builder;
    builder.add_bytes("meta.kind", "trainer");
    builder.add_i64("meta.step", 42);
    const std::vector<real> moments = {0.25, -1.5, 3.0};
    builder.add_reals("optim.m", moments.data(), moments.size());
    builder.add_u64s("loader.order", {5, 1, 3});
    TempFile file("sgnn_corruption_snap.sgck");
    write_snapshot_file(file.path(), builder.payload());
    return slurp(file.path());
  }();
  return bytes;
}

void expect_model_load_throws(const std::string& bytes) {
  TempFile file("sgnn_corruption_case.sgmd");
  spew(file.path(), bytes);
  EXPECT_THROW(load_model(file.path()), Error);
}

void expect_snapshot_load_throws(const std::string& bytes) {
  TempFile file("sgnn_corruption_case.sgck");
  spew(file.path(), bytes);
  EXPECT_THROW(read_snapshot_file(file.path()), Error);
}

// -- truncation -------------------------------------------------------------

TEST(CorruptionMatrixTest, ModelFileTruncatedAtAnyLengthThrows) {
  const std::string& pristine = model_bytes();
  ASSERT_GT(pristine.size(), kHeaderBytes + kTrailerBytes);
  // Every length through the header and trailer regions, plus a stride
  // through the payload (a payload truncation always lands on the same
  // bounded-read code path, so sampling it is sufficient).
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= kHeaderBytes + 16; ++n) lengths.push_back(n);
  const std::size_t stride = std::max<std::size_t>(1, pristine.size() / 64);
  for (std::size_t n = kHeaderBytes + 16; n < pristine.size(); n += stride) {
    lengths.push_back(n);
  }
  for (std::size_t n = pristine.size() - kTrailerBytes; n < pristine.size();
       ++n) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("truncated to " + std::to_string(n) + " bytes");
    expect_model_load_throws(pristine.substr(0, n));
  }
}

TEST(CorruptionMatrixTest, SnapshotTruncatedAtEveryLengthThrows) {
  const std::string& pristine = snapshot_bytes();
  ASSERT_GT(pristine.size(), kHeaderBytes + kTrailerBytes);
  for (std::size_t n = 0; n < pristine.size(); ++n) {
    SCOPED_TRACE("truncated to " + std::to_string(n) + " bytes");
    expect_snapshot_load_throws(pristine.substr(0, n));
  }
}

// -- header lies ------------------------------------------------------------

std::string with_payload_size(const std::string& pristine,
                              std::uint64_t payload_size) {
  std::string bytes = pristine;
  std::memcpy(bytes.data() + kPayloadSizeOffset, &payload_size,
              sizeof(payload_size));
  return bytes;
}

TEST(CorruptionMatrixTest, OversizedPayloadSizeThrowsInsteadOfAllocating) {
  // A payload_size far past the file must be rejected by the bound on the
  // remaining file size, not attempted as a (huge) allocation.
  for (const std::uint64_t lie :
       {std::uint64_t{1} << 60, std::uint64_t{0} - 1,
        std::uint64_t{1} << 32}) {
    SCOPED_TRACE("payload_size " + std::to_string(lie));
    expect_model_load_throws(with_payload_size(model_bytes(), lie));
    expect_snapshot_load_throws(with_payload_size(snapshot_bytes(), lie));
  }
  // Undersized lies shift the CRC read off its true position → CRC/trailer
  // mismatch.
  expect_model_load_throws(with_payload_size(model_bytes(), 0));
  expect_snapshot_load_throws(with_payload_size(snapshot_bytes(), 0));
}

TEST(CorruptionMatrixTest, FlippedCrcByteThrows) {
  for (const std::string* pristine : {&model_bytes(), &snapshot_bytes()}) {
    std::string bytes = *pristine;
    const std::size_t crc_pos = bytes.size() - kTrailerBytes;
    bytes[crc_pos] = static_cast<char>(bytes[crc_pos] ^ 0x01);
    if (pristine == &model_bytes()) {
      expect_model_load_throws(bytes);
    } else {
      expect_snapshot_load_throws(bytes);
    }
  }
}

TEST(CorruptionMatrixTest, WrongMagicThrows) {
  std::string model = model_bytes();
  model[0] = 'X';
  expect_model_load_throws(model);

  std::string snap = snapshot_bytes();
  snap[snap.size() - 1] = 'X';  // trailing magic
  expect_snapshot_load_throws(snap);
}

TEST(CorruptionMatrixTest, WrongVersionThrows) {
  for (const std::string* pristine : {&model_bytes(), &snapshot_bytes()}) {
    std::string bytes = *pristine;
    const std::uint32_t version = 0xFFu;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    if (pristine == &model_bytes()) {
      expect_model_load_throws(bytes);
    } else {
      expect_snapshot_load_throws(bytes);
    }
  }
}

// -- snapshot payload structure ---------------------------------------------

std::string u64_bytes(std::uint64_t value) {
  std::string bytes(sizeof(value), '\0');
  std::memcpy(bytes.data(), &value, sizeof(value));
  return bytes;
}

TEST(CorruptionMatrixTest, MalformedSnapshotPayloadThrows) {
  // These corrupt the *payload* (pre-CRC), exercising SnapshotView's own
  // bounds checks — the layer that protects payloads that skip the file
  // container (model_payload_bytes handed to serve::Server).
  // Section count far beyond what the payload could hold.
  EXPECT_THROW(SnapshotView(u64_bytes(std::uint64_t{1} << 58)), Error);
  // name_size overrunning the payload.
  std::string bad_name = u64_bytes(1);
  bad_name.append(u64_bytes(std::uint64_t{1} << 40));
  EXPECT_THROW(SnapshotView{bad_name}, Error);
  // data_size overrunning the payload.
  std::string bad_data = u64_bytes(1);
  bad_data.append(u64_bytes(1));
  bad_data.append("a");
  bad_data.append(u64_bytes(std::uint64_t{1} << 40));
  EXPECT_THROW(SnapshotView{bad_data}, Error);
  // Trailing garbage after the declared sections.
  SnapshotBuilder builder;
  builder.add_u64("x", 7);
  std::string padded = builder.payload();
  padded.append("junk");
  EXPECT_THROW(SnapshotView{padded}, Error);
  // Truncated payload handed straight to the view.
  const std::string payload = builder.payload();
  for (std::size_t n = 0; n < payload.size(); ++n) {
    SCOPED_TRACE("payload truncated to " + std::to_string(n));
    EXPECT_THROW(SnapshotView(payload.substr(0, n)), Error);
  }
}

// -- randomized sweep -------------------------------------------------------

TEST(CorruptionMatrixTest, RandomBitFlipsAlwaysThrowCleanly) {
  Rng rng(2026);
  for (int round = 0; round < 128; ++round) {
    const bool on_model = (round % 2) == 0;
    const std::string& pristine = on_model ? model_bytes() : snapshot_bytes();
    std::string bytes = pristine;
    const std::size_t byte_index =
        static_cast<std::size_t>(rng.uniform_index(bytes.size()));
    const int bit = static_cast<int>(rng.uniform_index(8));
    bytes[byte_index] =
        static_cast<char>(bytes[byte_index] ^ (1 << bit));
    SCOPED_TRACE((on_model ? "model byte " : "snapshot byte ") +
                 std::to_string(byte_index) + " bit " + std::to_string(bit));
    if (on_model) {
      expect_model_load_throws(bytes);
    } else {
      expect_snapshot_load_throws(bytes);
    }
  }
}

}  // namespace
}  // namespace sgnn
