// Open-addressing flat hash set of 64-bit keys.
//
// Backs TripleStore's existence tests over packed (h, r, t) keys.
// Compared to std::unordered_set it stores no nodes and chases no
// pointers: two flat arrays (one fingerprint byte and one key per slot)
// with linear probing.
//
// Properties:
//   - exact-fit capacity (no power-of-two rounding): the home slot is the
//     Lemire multiply-shift map hash * capacity >> 64, so a Reserve(n) table
//     holds n*5/4 + 1 slots instead of up to 2x that — at 10M+ keys the
//     difference is hundreds of resident megabytes;
//   - grown tombstone-free by full rehash (the set never erases, matching
//     the immutable TripleStore lifecycle);
//   - load factor capped at ~0.8;
//   - 9 bytes per slot (8-byte key + 1-byte fingerprint), ~11.3 bytes per
//     resident key at the load cap vs ~40+ for a node-based set;
//   - fingerprint 0 means "empty", so a probe miss is resolved from the
//     fingerprint array alone — 1/9 the footprint of the key array, so it
//     largely stays cache-resident even for tables far beyond LLC size.
//
// Not thread-safe during Insert; concurrent const probes are safe.

#ifndef KGC_KG_FLAT_SET_H_
#define KGC_KG_FLAT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kgc {

class FlatSet {
 public:
  FlatSet() = default;
  /// Pre-sizes the table for `expected` keys without rehashing on the way.
  explicit FlatSet(size_t expected) { Reserve(expected); }

  /// Ensures capacity for `expected` keys under the load cap.
  void Reserve(size_t expected);

  /// Inserts `key`; returns true if it was not present before.
  bool Insert(uint64_t key);

  /// Whether `key` is present.
  bool Contains(uint64_t key) const {
    if (size_ == 0) return false;
    const uint64_t hash = Mix(key);
    return ProbeAt(HomeSlot(hash), Fingerprint(hash), key);
  }

  size_t size() const { return size_; }
  size_t capacity() const { return fingerprints_.size(); }
  /// Resident bytes of the two slot arrays.
  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(uint64_t) + fingerprints_.capacity();
  }

 private:
  // SplitMix64 finalizer: full-avalanche, so both the slot index (high
  // bits) and the fingerprint (low byte) are well distributed.
  static uint64_t Mix(uint64_t key) {
    uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Low byte of the hash, biased away from the reserved "empty" value 0.
  // The multiply-shift home slot is a function of the hash's HIGH bits, so
  // keys colliding on a slot still carry independent low-byte fingerprints.
  static uint8_t Fingerprint(uint64_t hash) {
    const uint8_t fp = static_cast<uint8_t>(hash);
    return fp == 0 ? uint8_t{1} : fp;
  }

  // Lemire multiply-shift reduction of the hash onto [0, capacity_).
  size_t HomeSlot(uint64_t hash) const {
    return static_cast<size_t>(
        (static_cast<__uint128_t>(hash) * capacity_) >> 64);
  }

  bool ProbeAt(size_t slot, uint8_t fp, uint64_t key) const;
  void Grow(size_t min_capacity);
  void InsertNoGrow(uint64_t hash, uint64_t key);

  std::vector<uint64_t> keys_;
  std::vector<uint8_t> fingerprints_;  // 0 = empty slot
  size_t size_ = 0;
  size_t capacity_ = 0;  // == fingerprints_.size(); cached for the hot path
};

}  // namespace kgc

#endif  // KGC_KG_FLAT_SET_H_
