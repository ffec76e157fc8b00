#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

#include "sgnn/graph/graph.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

/// Native-endian binary primitives shared by every sgnn on-disk format
/// (graph records, the bp container, snapshots). memcpy through a char
/// buffer instead of reinterpret_cast on &value: the byte layout is
/// identical, but no pointer of the wrong type is ever formed.
template <typename T>
void write_raw(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.write(bytes, sizeof(T));
}

/// Reads one value; throws Error when the stream runs out.
template <typename T>
T read_raw(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  in.read(bytes, sizeof(T));
  SGNN_CHECK(in.good(), "truncated binary input");
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

/// Binary graph record layout (little-endian, fixed width):
///   u64 node_count, u64 edge_count, f64 energy, f64 dipole,
///   3 x f64 cell, u8 periodic,
///   node_count x i32 species,
///   node_count x 3 x f64 positions,
///   node_count x 3 x f64 forces,
///   edge_count x 2 x i64 endpoints,
///   edge_count x 3 x f64 displacements.
/// MolecularGraph::serialized_bytes() mirrors this layout byte for byte.
void write_graph_record(std::ostream& out, const MolecularGraph& graph);

/// Reads one record; throws Error on truncated or malformed input.
MolecularGraph read_graph_record(std::istream& in);

/// CRC-32 (IEEE 802.3 polynomial) guarding the bp records and index and
/// the snapshot payload.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace sgnn
