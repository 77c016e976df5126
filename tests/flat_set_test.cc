// Tests for the open-addressing flat membership set behind TripleStore's
// existence index: randomized agreement with a std::unordered_set oracle,
// and growth without tombstones or lost keys.

#include "kg/flat_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace kgc {
namespace {

TEST(FlatSetTest, EmptySetContainsNothing) {
  FlatSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(0xdeadbeefULL));
}

TEST(FlatSetTest, InsertReportsNovelty) {
  FlatSet set;
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Insert(43));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(42));
  EXPECT_TRUE(set.Contains(43));
  EXPECT_FALSE(set.Contains(44));
}

TEST(FlatSetTest, RandomizedAgreesWithUnorderedSetOracle) {
  Rng rng(0x5e7f1a75ULL);
  FlatSet set;
  std::unordered_set<uint64_t> oracle;
  // Keys from a narrow range force frequent duplicates; keys from the full
  // range exercise the fingerprint path.
  for (int round = 0; round < 20000; ++round) {
    const uint64_t key = (round % 3 == 0) ? rng.Uniform(512)
                                          : rng.Next();
    EXPECT_EQ(set.Insert(key), oracle.insert(key).second);
  }
  ASSERT_EQ(set.size(), oracle.size());
  for (uint64_t key : oracle) {
    EXPECT_TRUE(set.Contains(key));
  }
  for (int probe = 0; probe < 20000; ++probe) {
    const uint64_t key = (probe % 3 == 0) ? rng.Uniform(512) : rng.Next();
    EXPECT_EQ(set.Contains(key), oracle.count(key) > 0) << key;
  }
}

TEST(FlatSetTest, GrowthKeepsEveryKeyAndStaysTombstoneFree) {
  FlatSet set;
  const size_t n = 100000;
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(set.Insert(k * 0x9e3779b97f4a7c15ULL));
  }
  EXPECT_EQ(set.size(), n);
  // Load factor stays under the 4/5 cap through every rehash: the probe
  // loop can rely on an empty slot terminating every miss (no tombstones).
  EXPECT_LT(set.size() * 5, set.capacity() * 4 + set.capacity());
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(set.Contains(k * 0x9e3779b97f4a7c15ULL)) << k;
  }
  EXPECT_FALSE(set.Contains(0x1234567890abcdefULL));
}

TEST(FlatSetTest, ReserveAvoidsRehashAndPreservesSemantics) {
  FlatSet reserved;
  reserved.Reserve(10000);
  const size_t initial_capacity = reserved.capacity();
  FlatSet organic;
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = rng.Next();
    EXPECT_EQ(reserved.Insert(key), organic.Insert(key));
  }
  EXPECT_EQ(reserved.capacity(), initial_capacity);
  EXPECT_EQ(reserved.size(), organic.size());
}

TEST(FlatSetTest, AdversarialKeysCollidingInLowBits) {
  // Keys identical modulo any small power of two stress the probe chain if
  // the mixer were weak.
  FlatSet set;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 4096; ++i) keys.push_back(i << 48);
  for (uint64_t key : keys) ASSERT_TRUE(set.Insert(key));
  for (uint64_t key : keys) EXPECT_TRUE(set.Contains(key)) << key;
  EXPECT_FALSE(set.Contains(uint64_t{4096} << 48));
}

TEST(FlatSetTest, KeyHashingToEmptySentinelIsHandled) {
  // Mix(0x61c8864680b583eb) == 0: its natural fingerprint byte collides
  // with the reserved empty-slot value 0 and must be biased away from it.
  // The key has to behave like any other, including as the only key.
  const uint64_t zero_hash_key = 0x61c8864680b583ebULL;
  FlatSet set;
  EXPECT_FALSE(set.Contains(zero_hash_key));
  EXPECT_TRUE(set.Insert(zero_hash_key));
  EXPECT_FALSE(set.Insert(zero_hash_key));
  EXPECT_TRUE(set.Contains(zero_hash_key));
  EXPECT_FALSE(set.Contains(zero_hash_key + 1));
  EXPECT_EQ(set.size(), 1u);

  // Still correct once a real table exists around it.
  for (uint64_t k = 0; k < 100; ++k) set.Insert(k);
  EXPECT_TRUE(set.Contains(zero_hash_key));
  EXPECT_FALSE(set.Contains(zero_hash_key + 1));
  EXPECT_EQ(set.size(), 101u);
}

TEST(FlatSetTest, MemoryBytesTracksCapacity) {
  FlatSet set;
  EXPECT_EQ(set.MemoryBytes(), 0u);
  set.Reserve(1000);
  // 8 bytes of key + 1 fingerprint byte per slot.
  EXPECT_EQ(set.MemoryBytes(), set.capacity() * 9);
}

}  // namespace
}  // namespace kgc
