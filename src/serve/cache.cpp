#include "sgnn/serve/cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sgnn/obs/prof.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn::serve {

namespace {

/// FNV-1a 64-bit over a byte string — cheap, seedless, and good enough for
/// a collision-checked cache (a collision costs one recompute, never a
/// wrong answer).
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void append_i64(std::string& out, std::int64_t value) {
  char raw[sizeof(value)];
  std::memcpy(raw, &value, sizeof(value));
  out.append(raw, sizeof(value));
}

/// Quantized coordinate of one atom plus its species and original index.
struct CanonicalAtom {
  int species = 0;
  std::int64_t qx = 0;
  std::int64_t qy = 0;
  std::int64_t qz = 0;
  std::int64_t original = 0;

  bool operator<(const CanonicalAtom& other) const {
    if (species != other.species) return species < other.species;
    if (qx != other.qx) return qx < other.qx;
    if (qy != other.qy) return qy < other.qy;
    return qz != other.qz ? qz < other.qz : original < other.original;
  }
};

std::int64_t quantize(double x) {
  return static_cast<std::int64_t>(std::llround(x / kCanonicalQuantum));
}

}  // namespace

CanonicalKey canonicalize(const AtomicStructure& structure) {
  const obs::prof::ProfRegion prof("serve.canonicalize");
  structure.validate();
  const std::size_t n = structure.species.size();

  // Translation invariance: center on the centroid (open systems only —
  // a translated periodic replica may wrap to different raw coordinates,
  // so periodic structures are keyed as-is and only exact replicas dedup).
  Vec3 shift{0.0, 0.0, 0.0};
  if (!structure.periodic && n > 0) {
    for (const Vec3& p : structure.positions) shift = shift + p;
    shift = shift * (1.0 / static_cast<double>(n));
  }

  std::vector<CanonicalAtom> atoms(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p = structure.positions[i] - shift;
    atoms[i].species = structure.species[i];
    atoms[i].qx = quantize(p.x);
    atoms[i].qy = quantize(p.y);
    atoms[i].qz = quantize(p.z);
    atoms[i].original = static_cast<std::int64_t>(i);
  }
  // Permutation invariance: a canonical atom order independent of the
  // request's order. Ties (identical species + quantized position) are
  // broken by original index, which is the only remaining distinction.
  std::sort(atoms.begin(), atoms.end());

  CanonicalKey key;
  key.bytes.reserve(16 + 40 * n);
  append_i64(key.bytes, static_cast<std::int64_t>(n));
  append_i64(key.bytes, structure.periodic ? 1 : 0);
  append_i64(key.bytes, quantize(structure.cell.x));
  append_i64(key.bytes, quantize(structure.cell.y));
  append_i64(key.bytes, quantize(structure.cell.z));
  key.perm.resize(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const CanonicalAtom& atom = atoms[slot];
    append_i64(key.bytes, atom.species);
    append_i64(key.bytes, atom.qx);
    append_i64(key.bytes, atom.qy);
    append_i64(key.bytes, atom.qz);
    key.perm[static_cast<std::size_t>(atom.original)] =
        static_cast<std::int64_t>(slot);
  }
  key.hash = fnv1a(key.bytes);
  return key;
}

StructureCache::StructureCache(std::size_t capacity) : capacity_(capacity) {}

bool StructureCache::lookup(const CanonicalKey& key, bool need_forces,
                            std::uint64_t weights_version,
                            CachedResult& out) {
  const obs::prof::ProfRegion prof("serve.cache_lookup");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key.hash);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  if (it->second->bytes != key.bytes) {
    // 64-bit hash collision: fall through to recompute rather than serve
    // another structure's numbers.
    ++stats_.misses;
    ++stats_.collisions;
    return false;
  }
  if (it->second->result.weights_version != weights_version ||
      (need_forces && !it->second->result.has_forces)) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  out = it->second->result;
  ++stats_.hits;
  return true;
}

void StructureCache::insert(const CanonicalKey& key, CachedResult result) {
  if (capacity_ == 0) return;
  SGNN_CHECK(!result.has_forces || result.forces.size() == key.perm.size(),
             "cached forces must cover every atom of the keyed structure");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key.hash);
  if (it != index_.end()) {
    // A batch that ran on older weights and finished after a swap must
    // not displace the current version's answer.
    if (it->second->bytes == key.bytes &&
        it->second->result.weights_version > result.weights_version) {
      return;
    }
    // Same hash: refresh the slot (newest wins — on a true collision the
    // colliding structures will simply keep recomputing).
    it->second->bytes = key.bytes;
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key.hash, key.bytes, std::move(result)});
  index_[key.hash] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::size_t StructureCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

StructureCache::Stats StructureCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sgnn::serve
