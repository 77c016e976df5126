// Unit tests for src/kg.

#include <gtest/gtest.h>

#include <filesystem>

#include "kg/dataset.h"
#include "kg/kg_io.h"
#include "kg/relation_stats.h"
#include "kg/triple.h"
#include "kg/triple_store.h"
#include "kg/vocab.h"

namespace kgc {
namespace {

TEST(TripleTest, EqualityAndOrdering) {
  const Triple a{1, 2, 3};
  const Triple b{1, 2, 3};
  const Triple c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(TripleTest, PackUnpackPairRoundTrip) {
  const uint64_t key = PackPair(12345, 678);
  const auto [h, t] = UnpackPair(key);
  EXPECT_EQ(h, 12345);
  EXPECT_EQ(t, 678);
}

TEST(TripleTest, HashDistinguishesFields) {
  TripleHash hash;
  EXPECT_NE(hash(Triple{1, 2, 3}), hash(Triple{3, 2, 1}));
  EXPECT_NE(hash(Triple{1, 2, 3}), hash(Triple{1, 3, 2}));
}

TEST(VocabTest, InternIsIdempotent) {
  Vocab vocab;
  const EntityId a = vocab.InternEntity("alice");
  const EntityId b = vocab.InternEntity("bob");
  EXPECT_EQ(vocab.InternEntity("alice"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.num_entities(), 2);
  EXPECT_EQ(vocab.EntityName(a), "alice");
}

class TripleStoreTest : public ::testing::Test {
 protected:
  // 4 entities, 2 relations:
  //   r0: 0->1, 0->2, 3->1
  //   r1: 1->0
  TripleStoreTest()
      : store_({{0, 0, 1}, {0, 0, 2}, {3, 0, 1}, {1, 1, 0}}, 4, 2) {}
  TripleStore store_;
};

TEST_F(TripleStoreTest, SizesAndByRelation) {
  EXPECT_EQ(store_.size(), 4u);
  EXPECT_EQ(store_.ByRelation(0).size(), 3u);
  EXPECT_EQ(store_.ByRelation(1).size(), 1u);
  EXPECT_EQ(store_.RelationSize(0), 3u);
}

TEST_F(TripleStoreTest, AdjacencyLookups) {
  const auto& tails = store_.Tails(0, 0);
  EXPECT_EQ(tails.size(), 2u);
  const auto& heads = store_.Heads(0, 1);
  EXPECT_EQ(heads.size(), 2u);  // 0 and 3
  EXPECT_TRUE(store_.Tails(2, 0).empty());
  EXPECT_TRUE(store_.Heads(1, 3).empty());
}

TEST_F(TripleStoreTest, Contains) {
  EXPECT_TRUE(store_.Contains(0, 0, 1));
  EXPECT_FALSE(store_.Contains(1, 0, 0));
  EXPECT_TRUE(store_.Contains(Triple{1, 1, 0}));
}

TEST_F(TripleStoreTest, PairAndEntitySets) {
  EXPECT_EQ(store_.Pairs(0).size(), 3u);
  EXPECT_TRUE(store_.Pairs(0).contains(PackPair(0, 2)));
  EXPECT_EQ(store_.Subjects(0).size(), 2u);  // 0, 3
  EXPECT_EQ(store_.Objects(0).size(), 2u);   // 1, 2
}

TEST_F(TripleStoreTest, AnyRelationLinks) {
  EXPECT_TRUE(store_.AnyRelationLinks(0, 1));
  EXPECT_TRUE(store_.AnyRelationLinks(1, 0));  // via r1
  EXPECT_FALSE(store_.AnyRelationLinks(2, 0));
}

TEST_F(TripleStoreTest, AdjacencySpansAreSortedAndStable) {
  // Spans point into the store's CSR arrays: sorted ascending, and valid as
  // long as the store lives (unlike the old static-empty-vector fallback).
  const std::span<const EntityId> tails = store_.Tails(0, 0);
  ASSERT_EQ(tails.size(), 2u);
  EXPECT_EQ(tails[0], 1);
  EXPECT_EQ(tails[1], 2);
  const std::span<const EntityId> heads = store_.Heads(0, 1);
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], 0);
  EXPECT_EQ(heads[1], 3);
  // Misses (present group keys with absent partner, and out-of-range
  // relations) are empty spans, never UB.
  EXPECT_TRUE(store_.Tails(0, 1).empty());
  EXPECT_TRUE(store_.Tails(0, 5).empty());
  EXPECT_TRUE(store_.Heads(5, 0).empty());
}

TEST_F(TripleStoreTest, DuplicateTriplesKeptInAdjacencyOnceInSets) {
  const TripleStore store({{0, 0, 1}, {0, 0, 1}, {0, 0, 2}}, 3, 1);
  EXPECT_EQ(store.size(), 3u);             // raw triples, duplicates kept
  EXPECT_EQ(store.Tails(0, 0).size(), 3u); // 1, 1, 2
  EXPECT_EQ(store.Pairs(0).size(), 2u);    // distinct pairs
  size_t iterated = 0;
  for (uint64_t key : store.Pairs(0)) {
    (void)key;
    ++iterated;
  }
  EXPECT_EQ(iterated, 2u);
  EXPECT_TRUE(store.Contains(0, 0, 1));
}

TEST_F(TripleStoreTest, ViewIterationMatchesSetSemantics) {
  // Subjects/Objects iterate ascending entity ids.
  std::vector<EntityId> subjects(store_.Subjects(0).begin(),
                                 store_.Subjects(0).end());
  EXPECT_EQ(subjects, (std::vector<EntityId>{0, 3}));
  EXPECT_TRUE(store_.Subjects(0).contains(3));
  EXPECT_FALSE(store_.Subjects(0).contains(1));
  std::vector<EntityId> objects(store_.Objects(0).begin(),
                                store_.Objects(0).end());
  EXPECT_EQ(objects, (std::vector<EntityId>{1, 2}));
  // Pairs iterates distinct (h, t) keys in PackPair order.
  std::vector<uint64_t> pairs(store_.Pairs(0).begin(), store_.Pairs(0).end());
  EXPECT_EQ(pairs, (std::vector<uint64_t>{PackPair(0, 1), PackPair(0, 2),
                                          PackPair(3, 1)}));
}

TEST_F(TripleStoreTest, IndexBytesIsPositiveAndBounded) {
  EXPECT_GT(store_.IndexBytes(), 0u);
  // A 4-triple store should take a few KiB at most.
  EXPECT_LT(store_.IndexBytes(), size_t{1} << 20);
}

TEST(TripleStorePackingTest, RejectsIdsBeyondPackedWidths) {
  // 2^24 entities / 2^16 relations exceed the packed key layout; the store
  // must refuse at construction, not corrupt membership keys later.
  EXPECT_DEATH(TripleStore({}, kMaxPackedEntities + 1, 1), "");
  EXPECT_DEATH(TripleStore({}, 1, kMaxPackedRelations + 1), "");
}

TEST(DatasetTest, StoresAreCached) {
  Vocab vocab;
  vocab.InternEntity("a");
  vocab.InternEntity("b");
  vocab.InternRelation("r");
  const Dataset dataset("d", vocab, {{0, 0, 1}}, {}, {{1, 0, 0}});
  EXPECT_EQ(dataset.train_store().size(), 1u);
  EXPECT_EQ(dataset.all_store().size(), 2u);
  EXPECT_EQ(&dataset.train_store(), &dataset.train_store());
  EXPECT_EQ(&dataset.all_store(), &dataset.all_store());
  // A changed split means a new dataset, with stores built from it.
  TripleList train = dataset.train();
  train.push_back({1, 0, 0});
  const Dataset edited("d", dataset.vocab(), std::move(train),
                       dataset.valid(), dataset.test());
  EXPECT_EQ(edited.train_store().size(), 2u);
  EXPECT_EQ(edited.all_store().size(), 3u);
}

TEST(DatasetTest, CountsUsedSymbols) {
  Vocab vocab;
  for (const char* name : {"a", "b", "c", "unused"}) vocab.InternEntity(name);
  vocab.InternRelation("r0");
  vocab.InternRelation("r_unused");
  const Dataset dataset("d", vocab, {{0, 0, 1}}, {}, {{1, 0, 2}});
  EXPECT_EQ(dataset.CountUsedEntities(), 3);
  EXPECT_EQ(dataset.CountUsedRelations(), 1);
  EXPECT_EQ(dataset.num_entities(), 4);
}

TEST(RelationStatsTest, Categorization) {
  EXPECT_EQ(Categorize(1.0, 1.0), RelationCategory::kOneToOne);
  EXPECT_EQ(Categorize(1.0, 3.0), RelationCategory::kOneToMany);
  EXPECT_EQ(Categorize(3.0, 1.0), RelationCategory::kManyToOne);
  EXPECT_EQ(Categorize(3.0, 3.0), RelationCategory::kManyToMany);
  EXPECT_STREQ(RelationCategoryName(RelationCategory::kOneToMany), "1-to-n");
}

TEST(RelationStatsTest, ComputesAverages) {
  // r0: head 0 -> tails {1,2,3}; head 4 -> tail 1. tph = 4/2 = 2,
  // hpt = 4 triples / 3 distinct tails = 1.33.
  TripleStore store({{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {4, 0, 1}}, 5, 1);
  const RelationStats stats = ComputeRelationStats(store, 0);
  EXPECT_EQ(stats.num_triples, 4u);
  EXPECT_DOUBLE_EQ(stats.tails_per_head, 2.0);
  EXPECT_NEAR(stats.heads_per_tail, 4.0 / 3.0, 1e-9);
  EXPECT_EQ(stats.category, RelationCategory::kOneToMany);
}

TEST(RelationStatsTest, EmptyRelation) {
  TripleStore store({}, 2, 1);
  const RelationStats stats = ComputeRelationStats(store, 0);
  EXPECT_EQ(stats.num_triples, 0u);
  EXPECT_EQ(stats.category, RelationCategory::kOneToOne);
}

TEST(KgIoTest, SaveLoadRoundTrip) {
  Vocab vocab;
  const EntityId a = vocab.InternEntity("alice");
  const EntityId b = vocab.InternEntity("bob");
  const RelationId r = vocab.InternRelation("knows");
  Dataset dataset("roundtrip", vocab, {{a, r, b}}, {{b, r, a}}, {{a, r, a}});

  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_io_test").string();
  ASSERT_TRUE(SaveDatasetDir(dataset, dir).ok());
  auto loaded = LoadDatasetDir(dir, "reloaded");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->train().size(), 1u);
  EXPECT_EQ(loaded->valid().size(), 1u);
  EXPECT_EQ(loaded->test().size(), 1u);
  const Triple& t = loaded->train()[0];
  EXPECT_EQ(loaded->vocab().EntityName(t.head), "alice");
  EXPECT_EQ(loaded->vocab().RelationName(t.relation), "knows");
  EXPECT_EQ(loaded->vocab().EntityName(t.tail), "bob");
  std::filesystem::remove_all(dir);
}

TEST(KgIoTest, MalformedLineIsError) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_io_bad").string();
  std::filesystem::create_directories(dir);
  {
    FILE* f = std::fopen((dir + "/bad.txt").c_str(), "w");
    std::fputs("only\ttwo\n", f);
    std::fclose(f);
  }
  Vocab vocab;
  auto triples = LoadTripleFile(dir + "/bad.txt", vocab);
  EXPECT_FALSE(triples.ok());
  EXPECT_EQ(triples.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(KgIoTest, MissingFileIsNotFound) {
  Vocab vocab;
  EXPECT_EQ(LoadTripleFile("/no/such/file.txt", vocab).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace kgc
