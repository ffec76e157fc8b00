#include "sgnn/store/serialize.hpp"

#include <array>

namespace sgnn {

namespace {

void write_vec3(std::ostream& out, const Vec3& v) {
  write_raw(out, v.x);
  write_raw(out, v.y);
  write_raw(out, v.z);
}

Vec3 read_vec3(std::istream& in) {
  Vec3 v;
  v.x = read_raw<double>(in);
  v.y = read_raw<double>(in);
  v.z = read_raw<double>(in);
  return v;
}

}  // namespace

void write_graph_record(std::ostream& out, const MolecularGraph& graph) {
  graph.validate();
  const auto n = static_cast<std::uint64_t>(graph.num_nodes());
  const auto e = static_cast<std::uint64_t>(graph.num_edges());
  write_raw(out, n);
  write_raw(out, e);
  write_raw(out, graph.energy);
  write_raw(out, graph.dipole);
  write_vec3(out, graph.structure.cell);
  write_raw(out, static_cast<std::uint8_t>(graph.structure.periodic ? 1 : 0));
  for (const auto z : graph.structure.species) {
    write_raw(out, static_cast<std::int32_t>(z));
  }
  for (const auto& p : graph.structure.positions) write_vec3(out, p);
  for (const auto& f : graph.forces) write_vec3(out, f);
  for (std::size_t k = 0; k < graph.edges.src.size(); ++k) {
    write_raw(out, graph.edges.src[k]);
    write_raw(out, graph.edges.dst[k]);
  }
  for (const auto& d : graph.edges.displacement) write_vec3(out, d);
  SGNN_CHECK(out.good(), "write failure while serializing graph");
}

MolecularGraph read_graph_record(std::istream& in) {
  MolecularGraph graph;
  const auto n = read_raw<std::uint64_t>(in);
  const auto e = read_raw<std::uint64_t>(in);
  // Sanity bounds protect against reading garbage as a huge allocation.
  SGNN_CHECK(n < (1ULL << 32) && e < (1ULL << 36),
             "implausible graph record header (n=" << n << ", e=" << e << ")");
  graph.energy = read_raw<double>(in);
  graph.dipole = read_raw<double>(in);
  graph.structure.cell = read_vec3(in);
  graph.structure.periodic = read_raw<std::uint8_t>(in) != 0;
  graph.structure.species.resize(n);
  for (auto& z : graph.structure.species) z = read_raw<std::int32_t>(in);
  graph.structure.positions.resize(n);
  for (auto& p : graph.structure.positions) p = read_vec3(in);
  graph.forces.resize(n);
  for (auto& f : graph.forces) f = read_vec3(in);
  graph.edges.src.resize(e);
  graph.edges.dst.resize(e);
  for (std::size_t k = 0; k < e; ++k) {
    graph.edges.src[k] = read_raw<std::int64_t>(in);
    graph.edges.dst[k] = read_raw<std::int64_t>(in);
  }
  graph.edges.displacement.resize(e);
  for (auto& d : graph.edges.displacement) d = read_vec3(in);
  graph.validate();
  return graph;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace sgnn
