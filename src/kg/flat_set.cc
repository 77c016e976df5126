#include "kg/flat_set.h"

#include <algorithm>

#include "util/check.h"

namespace kgc {
namespace {

// Grow once the table is 4/5 full. Integer form of load factor 0.8.
bool OverLoadCap(size_t size, size_t capacity) {
  return size * 5 >= capacity * 4;
}

}  // namespace

void FlatSet::Reserve(size_t expected) {
  // capacity * 4/5 >= expected  <=>  no rehash until `expected` inserts.
  const size_t needed = std::max<size_t>(16, expected * 5 / 4 + 1);
  if (needed > capacity()) Grow(needed);
}

bool FlatSet::ProbeAt(size_t slot, uint8_t fp, uint64_t key) const {
  // Linear probe; the load cap guarantees an empty slot terminates the scan.
  while (true) {
    const uint8_t slot_fp = fingerprints_[slot];
    if (slot_fp == 0) return false;
    if (slot_fp == fp && keys_[slot] == key) return true;
    if (++slot == capacity_) slot = 0;
  }
}

bool FlatSet::Insert(uint64_t key) {
  if (OverLoadCap(size_ + 1, capacity_)) {
    Grow(std::max<size_t>(16, capacity_ * 2));
  }
  const uint64_t hash = Mix(key);
  const uint8_t fp = Fingerprint(hash);
  size_t slot = HomeSlot(hash);
  while (true) {
    const uint8_t slot_fp = fingerprints_[slot];
    if (slot_fp == 0) break;
    if (slot_fp == fp && keys_[slot] == key) return false;
    if (++slot == capacity_) slot = 0;
  }
  fingerprints_[slot] = fp;
  keys_[slot] = key;
  ++size_;
  return true;
}

void FlatSet::InsertNoGrow(uint64_t hash, uint64_t key) {
  size_t slot = HomeSlot(hash);
  while (fingerprints_[slot] != 0) {
    if (++slot == capacity_) slot = 0;
  }
  fingerprints_[slot] = Fingerprint(hash);
  keys_[slot] = key;
}

void FlatSet::Grow(size_t min_capacity) {
  const size_t new_capacity = std::max<size_t>(16, min_capacity);
  KGC_CHECK_GT(new_capacity, size_);
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint8_t> old_fps = std::move(fingerprints_);
  keys_.assign(new_capacity, 0);
  fingerprints_.assign(new_capacity, 0);
  capacity_ = new_capacity;
  // Tombstone-free rehash: the set never erases, so every occupied slot of
  // the old table reinserts into a clean table.
  for (size_t i = 0; i < old_fps.size(); ++i) {
    if (old_fps[i] != 0) InsertNoGrow(Mix(old_keys[i]), old_keys[i]);
  }
}

}  // namespace kgc
