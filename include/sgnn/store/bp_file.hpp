#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sgnn/graph/graph.hpp"

namespace sgnn {

/// Where one bp record lies and the CRC of its bytes.
struct BpRecordEntry {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Single-file graph container inspired by ADIOS BP: a stream of variable-
/// length records followed by a footer holding the record index and a CRC,
/// so readers can (a) random-access any graph and (b) detect truncation or
/// corruption before handing data to training. Every record carries its own
/// CRC in the index, checked on each read. This is the on-disk format the
/// dataset pipeline uses in place of the paper's ADIOS files.
///
/// Layout:
///   "SGBP" magic | u32 version | records... |
///   footer: u64 record_count |
///           record_count x (u64 offset, u64 size, u32 record crc) |
///           u32 crc of the footer index | u64 footer_size | "SGBP"
class BpWriter {
 public:
  explicit BpWriter(const std::string& path);
  ~BpWriter();
  BpWriter(const BpWriter&) = delete;
  BpWriter& operator=(const BpWriter&) = delete;

  /// Appends one graph record; returns its index.
  std::size_t append(const MolecularGraph& graph);

  /// Writes the footer and closes the file. Must be called exactly once;
  /// a file without a footer is detected as corrupt by BpReader.
  void finalize();

  std::size_t record_count() const { return index_.size(); }
  /// Bytes written so far (records only, before the footer).
  std::uint64_t payload_bytes() const;

 private:
  std::ofstream out_;
  std::string path_;
  std::vector<BpRecordEntry> index_;
  bool finalized_ = false;
};

/// Random-access reader for BpWriter files; validates magic, version,
/// footer CRC and record bounds at open time, and each record's CRC when
/// it is read.
class BpReader {
 public:
  explicit BpReader(const std::string& path);

  std::size_t size() const { return index_.size(); }
  MolecularGraph read(std::size_t record) const;
  /// Serialized size of one record (what DDStore counts as traffic).
  std::uint64_t record_bytes(std::size_t record) const;

 private:
  mutable std::ifstream in_;
  std::string path_;
  std::vector<BpRecordEntry> index_;
};

}  // namespace sgnn
