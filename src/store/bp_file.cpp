#include "sgnn/store/bp_file.hpp"

#include <sstream>

#include "sgnn/store/serialize.hpp"

namespace sgnn {

namespace {

constexpr char kMagic[4] = {'S', 'G', 'B', 'P'};
constexpr std::uint32_t kVersion = 3;

// Index entry: u64 offset + u64 size + u32 record crc.
constexpr std::uint64_t kEntryBytes = 8 + 8 + 4;
// Trailer: u32 index crc + u64 footer_size + magic.
constexpr std::uint64_t kTrailerBytes = 4 + 8 + 4;

}  // namespace

BpWriter::BpWriter(const std::string& path)
    : out_(path, std::ios::binary), path_(path) {
  SGNN_CHECK(out_.is_open(), "cannot open '" << path << "' for writing");
  out_.write(kMagic, 4);
  write_raw(out_, kVersion);
  SGNN_CHECK(out_.good(), "write failure on bp header");
}

BpWriter::~BpWriter() {
  // Intentionally no auto-finalize: an unexpected destruction (exception
  // unwind) must leave a detectably-incomplete file, not a silently valid
  // one with fewer records than the producer intended.
}

std::size_t BpWriter::append(const MolecularGraph& graph) {
  SGNN_CHECK(!finalized_, "append after finalize");
  std::ostringstream record;
  write_graph_record(record, graph);
  const std::string payload = record.str();
  const auto offset = static_cast<std::uint64_t>(out_.tellp());
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  SGNN_CHECK(out_.good(), "write failure on bp record");
  index_.push_back(
      {offset, payload.size(), crc32(payload.data(), payload.size())});
  return index_.size() - 1;
}

std::uint64_t BpWriter::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& entry : index_) total += entry.size;
  return total;
}

void BpWriter::finalize() {
  SGNN_CHECK(!finalized_, "finalize called twice");
  finalized_ = true;

  std::ostringstream footer;
  write_raw(footer, static_cast<std::uint64_t>(index_.size()));
  for (const auto& entry : index_) {
    write_raw(footer, entry.offset);
    write_raw(footer, entry.size);
    write_raw(footer, entry.crc);
  }
  const std::string index_bytes = footer.str();
  const std::uint32_t crc = crc32(index_bytes.data(), index_bytes.size());

  out_.write(index_bytes.data(),
             static_cast<std::streamsize>(index_bytes.size()));
  write_raw(out_, crc);
  write_raw(out_, static_cast<std::uint64_t>(index_bytes.size()));
  out_.write(kMagic, 4);
  out_.close();
  SGNN_CHECK(out_.good(), "write failure on bp footer");
}

BpReader::BpReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  SGNN_CHECK(in_.is_open(), "cannot open '" << path << "' for reading");

  char magic[4];
  in_.read(magic, 4);
  SGNN_CHECK(in_.good() && std::equal(magic, magic + 4, kMagic),
             "'" << path << "' is not a bp file (bad magic)");
  const auto version = read_raw<std::uint32_t>(in_);
  SGNN_CHECK(version == kVersion,
             "'" << path << "' has unsupported bp version " << version);

  // Trailer: ... crc(u32) footer_size(u64) magic(4).
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  SGNN_CHECK(file_size >= 8 + kTrailerBytes,
             "'" << path << "' too small to hold a bp footer");
  in_.seekg(static_cast<std::streamoff>(file_size - 12));
  const auto footer_size = read_raw<std::uint64_t>(in_);
  char tail_magic[4];
  in_.read(tail_magic, 4);
  SGNN_CHECK(in_.good() && std::equal(tail_magic, tail_magic + 4, kMagic),
             "'" << path
                 << "' missing bp footer (file truncated or not finalized)");
  SGNN_CHECK(footer_size + kTrailerBytes + 8 <= file_size,
             "'" << path << "' footer size " << footer_size
                 << " inconsistent with file size " << file_size);

  // Read and verify the index; records must lie between the header and it.
  const std::uint64_t index_start = file_size - kTrailerBytes - footer_size;
  in_.seekg(static_cast<std::streamoff>(index_start));
  std::string index_bytes(footer_size, '\0');
  in_.read(index_bytes.data(), static_cast<std::streamsize>(footer_size));
  const auto stored_crc = read_raw<std::uint32_t>(in_);
  SGNN_CHECK(crc32(index_bytes.data(), index_bytes.size()) == stored_crc,
             "'" << path << "' footer CRC mismatch (corrupt index)");

  std::istringstream index_stream(index_bytes);
  const auto count = read_raw<std::uint64_t>(index_stream);
  SGNN_CHECK(footer_size == 8 + count * kEntryBytes,
             "'" << path << "' footer length disagrees with record count");
  index_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    BpRecordEntry entry;
    entry.offset = read_raw<std::uint64_t>(index_stream);
    entry.size = read_raw<std::uint64_t>(index_stream);
    entry.crc = read_raw<std::uint32_t>(index_stream);
    SGNN_CHECK(entry.offset >= 8 && entry.offset <= index_start &&
                   entry.size <= index_start - entry.offset,
               "'" << path << "' record " << i << " out of bounds");
    index_.push_back(entry);
  }
}

MolecularGraph BpReader::read(std::size_t record) const {
  SGNN_CHECK(record < index_.size(), "record " << record << " out of range ("
                                               << index_.size()
                                               << " records)");
  const BpRecordEntry& entry = index_[record];
  std::string bytes(entry.size, '\0');
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(entry.offset));
  in_.read(bytes.data(), static_cast<std::streamsize>(entry.size));
  SGNN_CHECK(in_.good(), "'" << path_ << "' record " << record << " truncated");
  SGNN_CHECK(crc32(bytes.data(), bytes.size()) == entry.crc,
             "'" << path_ << "' record " << record
                 << " CRC mismatch (corrupt record)");
  std::istringstream stream(bytes);
  MolecularGraph graph = read_graph_record(stream);
  SGNN_CHECK(static_cast<std::uint64_t>(stream.tellg()) == entry.size,
             "'" << path_ << "' record " << record
                 << " parses to fewer bytes than its indexed " << entry.size);
  return graph;
}

std::uint64_t BpReader::record_bytes(std::size_t record) const {
  SGNN_CHECK(record < index_.size(), "record " << record << " out of range");
  return index_[record].size;
}

}  // namespace sgnn
