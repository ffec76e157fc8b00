#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sgnn/graph/structure.hpp"

namespace sgnn::serve {

/// Canonical form of an AtomicStructure for cache keying. Two structures
/// that differ only by a rigid translation (open systems) or by atom order
/// produce identical `bytes` (and therefore identical `hash`); any change
/// to species, geometry beyond the quantization step, cell, or periodicity
/// produces a different key.
///
/// `perm` maps request atom order to canonical atom order: request atom i
/// sits at canonical slot perm[i]. Per-atom results (forces) are stored in
/// canonical order so a permuted duplicate of a cached structure can have
/// its forces mapped back into its own atom order on a hit.
struct CanonicalKey {
  std::uint64_t hash = 0;
  std::string bytes;                ///< collision-checked identity
  std::vector<std::int64_t> perm;   ///< request index -> canonical index
};

/// Coordinate quantization step (Angstrom) used by canonicalize(). Two
/// structures whose centered coordinates round to the same 1e-6 A grid are
/// treated as the same request; a perturbation above the step is a miss.
inline constexpr double kCanonicalQuantum = 1e-6;

/// Builds the canonical key: centers positions on the centroid (exact
/// translation invariance for open systems), quantizes coordinates to
/// kCanonicalQuantum, and sorts atoms by (species, qx, qy, qz). Periodic
/// structures keep their raw coordinates (a translated periodic replica may
/// wrap differently, so only byte-identical periodic inputs are deduped);
/// the cell and periodic flag are part of the key either way.
CanonicalKey canonicalize(const AtomicStructure& structure);

/// Cached model output for one canonical structure. Forces are stored in
/// canonical atom order (see CanonicalKey::perm).
struct CachedResult {
  double energy = 0.0;
  bool has_forces = false;
  std::vector<Vec3> forces;  ///< canonical order; empty when !has_forces
  std::uint64_t weights_version = 0;  ///< model weights that produced it
};

/// Thread-safe LRU cache from canonical structure to model output.
///
/// Lookup is by 64-bit hash with a collision check on the canonical bytes:
/// a request whose hash matches a resident entry but whose bytes differ is
/// reported as a miss (and counted), so a hash collision can only cost a
/// recompute, never serve wrong numbers. Each hash slot holds one entry;
/// insert replaces the slot (newest wins).
class StructureCache {
 public:
  /// `capacity` bounds resident entries; 0 disables caching entirely.
  explicit StructureCache(std::size_t capacity);

  /// Returns true and fills `out` on a hit. A hit requires equal canonical
  /// bytes, an entry produced by `weights_version` (another version's
  /// answer is a miss, never served) AND, when `need_forces`, a resident
  /// entry that has forces — an energy-only entry cannot satisfy a force
  /// request.
  bool lookup(const CanonicalKey& key, bool need_forces,
              std::uint64_t weights_version, CachedResult& out);

  /// Inserts (or replaces) the entry for `key`, evicting the least
  /// recently used entry when over capacity. A result from older weights
  /// than the resident entry's is dropped.
  void insert(const CanonicalKey& key, CachedResult result);

  std::size_t size() const;

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t collisions = 0;  ///< subset of misses: hash matched, bytes differed
    std::int64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string bytes;
    CachedResult result;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace sgnn::serve
