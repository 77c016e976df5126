// Determinism suite for the parallel execution engine (util/parallel.h).
//
// The engine's contract is "same bytes out, N× faster": every computation
// parallelized with ParallelFor must be bit-identical for every thread
// count. These tests pin that contract for the three refactored layers —
// ranking, redundancy detection and rule mining — by running each at
// threads=1 and threads=4 (and an uneven 3) and comparing outputs field by
// field, plus edge cases of the primitive itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "eval/ranker.h"
#include "kg/dataset.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "redundancy/detectors.h"
#include "redundancy/leakage.h"
#include "rules/amie.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

// --- ParallelFor primitive -------------------------------------------------

TEST(ParallelForTest, ShardsPartitionRangeInOrder) {
  const size_t n = 103;
  const int threads = 4;
  ASSERT_EQ(PlannedShards(n, threads), threads);
  std::vector<std::pair<size_t, size_t>> bounds(threads);
  ParallelFor(n, threads, [&](size_t begin, size_t end, int shard) {
    bounds[static_cast<size_t>(shard)] = {begin, end};
  });
  // Contiguous, in shard order, non-empty, covering exactly [0, n).
  EXPECT_EQ(bounds.front().first, 0u);
  EXPECT_EQ(bounds.back().second, n);
  for (int s = 0; s < threads; ++s) {
    EXPECT_LT(bounds[s].first, bounds[s].second);
    if (s > 0) {
      EXPECT_EQ(bounds[s].first, bounds[s - 1].second);
    }
  }
}

TEST(ParallelForTest, ZeroItemsNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(0, 4, [&](size_t, size_t, int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(PlannedShards(0, 4), 0);
}

TEST(ParallelForTest, MoreThreadsThanItemsClampsToOneItemPerShard) {
  const size_t n = 3;
  ASSERT_EQ(PlannedShards(n, 8), 3);
  std::atomic<int> calls{0};
  std::vector<int> hits(n, 0);
  ParallelFor(n, 8, [&](size_t begin, size_t end, int) {
    ++calls;
    EXPECT_EQ(end, begin + 1);  // every shard gets exactly one item
    for (size_t i = begin; i < end; ++i) hits[i] = 1;
  });
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelForTest, NestedCallsRunSeriallyInline) {
  std::atomic<int> inner_calls{0};
  ParallelFor(4, 4, [&](size_t, size_t, int) {
    EXPECT_TRUE(InParallelRegion());
    // The nested loop must collapse to a single inline shard.
    ParallelFor(10, 4, [&](size_t begin, size_t end, int shard) {
      ++inner_calls;
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 10u);
      EXPECT_EQ(shard, 0);
    });
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_calls.load(), 4);  // once per outer shard
}

TEST(ThreadPoolTest, RunsAllSubmittedJobsBeforeShutdown) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    EXPECT_EQ(pool.NumWorkersForTest(), 2);
    for (int i = 0; i < 100; ++i) pool.Submit([&] { ++count; });
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumWorkersForTest(), 0);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.NumWorkersForTest(), 3);
  pool.EnsureWorkers(1);
  EXPECT_EQ(pool.NumWorkersForTest(), 3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&] { ++count; });
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.NumWorkersForTest(), 4);
}

// --- Shared fixtures -------------------------------------------------------

/// Deterministic stateless predictor: scores are a pure hash of the query,
/// so parallel and serial sweeps see identical inputs. `salt` gives each
/// instance its own scores; `rounds` repeats the hash to make one instance
/// cost more per score than another.
class HashPredictor final : public LinkPredictor {
 public:
  explicit HashPredictor(int32_t num_entities, uint64_t salt = 0,
                         int rounds = 1)
      : num_entities_(num_entities), salt_(salt), rounds_(rounds) {}
  const char* name() const override { return "Hash"; }
  int32_t num_entities() const override { return num_entities_; }
  void ScoreTails(EntityId h, RelationId r,
                  std::span<float> out) const override {
    Fill(static_cast<uint64_t>(h) * 2, r, out);
  }
  void ScoreHeads(RelationId r, EntityId t,
                  std::span<float> out) const override {
    Fill(static_cast<uint64_t>(t) * 2 + 1, r, out);
  }

 private:
  void Fill(uint64_t anchor, RelationId r, std::span<float> out) const {
    for (size_t e = 0; e < out.size(); ++e) {
      uint64_t state = anchor * 1000003ULL +
                       static_cast<uint64_t>(r) * 31ULL + e + salt_;
      uint64_t hash = 0;
      for (int i = 0; i < rounds_; ++i) hash = SplitMix64(state);
      // Keep ~16 bits so score ties (exercising tie-averaging) do occur.
      out[e] = static_cast<float>(hash >> 48);
    }
  }
  int32_t num_entities_;
  uint64_t salt_;
  int rounds_;
};

/// A dataset engineered to trip every detector: duplicate, reverse-duplicate,
/// symmetric and Cartesian relations plus noise, with test triples whose
/// reverses leak from the training set.
Dataset RedundantDataset() {
  const int32_t n = 20;
  Vocab vocab;
  for (int32_t i = 0; i < n; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  const RelationId a = vocab.InternRelation("a");
  const RelationId a_dup = vocab.InternRelation("a_dup");
  const RelationId a_rev = vocab.InternRelation("a_rev");
  const RelationId sym = vocab.InternRelation("sym");
  const RelationId cart = vocab.InternRelation("cart");
  const RelationId noise = vocab.InternRelation("noise");

  TripleList train;
  TripleList test;
  for (int32_t i = 0; i < n; ++i) {
    const EntityId h = i;
    const EntityId t = (i + 7) % n;
    // Hold out a few `a` triples as test; their duplicates and reverses
    // stay in train, creating the leakage the bitmap must classify.
    if (i < 5) {
      test.push_back({h, a, t});
    } else {
      train.push_back({h, a, t});
    }
    train.push_back({h, a_dup, t});
    train.push_back({t, a_rev, h});
    train.push_back({h, noise, (i + 3) % n});
  }
  for (int32_t i = 0; i < n; i += 2) {
    train.push_back({i, sym, i + 1});
    train.push_back({i + 1, sym, i});
  }
  for (EntityId s = 0; s < 3; ++s) {
    for (EntityId o = 10; o < 14; ++o) train.push_back({s, cart, o});
  }
  return Dataset("redundant", std::move(vocab), std::move(train), {},
                 std::move(test));
}

/// Training store with mineable structure: a duplicate relation, an inverse
/// relation and a composition chain, over Rng-generated base pairs.
TripleStore RuleStore() {
  const int32_t num_entities = 30;
  Rng rng(17);
  TripleList triples;
  for (int i = 0; i < 60; ++i) {
    const EntityId x = static_cast<EntityId>(rng.Uniform(num_entities));
    const EntityId y = static_cast<EntityId>(rng.Uniform(num_entities));
    triples.push_back({x, 0, y});                      // base
    if (i % 2 == 0) triples.push_back({x, 1, y});      // duplicate of 0
    triples.push_back({y, 2, x});                      // inverse of 0
    const EntityId z = static_cast<EntityId>(rng.Uniform(num_entities));
    triples.push_back({x, 3, z});                      // path leg 1
    triples.push_back({z, 4, y});                      // path leg 2
  }
  return TripleStore(triples, num_entities, 5);
}

void ExpectSameRanks(const std::vector<TripleRanks>& a,
                     const std::vector<TripleRanks>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].triple, b[i].triple) << "triple " << i;
    EXPECT_EQ(a[i].head_raw, b[i].head_raw) << "triple " << i;
    EXPECT_EQ(a[i].head_filtered, b[i].head_filtered) << "triple " << i;
    EXPECT_EQ(a[i].tail_raw, b[i].tail_raw) << "triple " << i;
    EXPECT_EQ(a[i].tail_filtered, b[i].tail_filtered) << "triple " << i;
  }
}

/// The bytes of every field of a rank table, in order (what the rank cache
/// serializes; struct padding excluded).
std::string TableBytes(const std::vector<TripleRanks>& table) {
  std::string bytes;
  const auto append = [&](const auto& field) {
    bytes.append(reinterpret_cast<const char*>(&field), sizeof(field));
  };
  for (const TripleRanks& r : table) {
    append(r.triple.head);
    append(r.triple.relation);
    append(r.triple.tail);
    append(r.head_raw);
    append(r.head_filtered);
    append(r.tail_raw);
    append(r.tail_filtered);
  }
  return bytes;
}

/// How many times a filter store holds each fact.
using FactCopies = std::map<std::tuple<EntityId, RelationId, EntityId>, int>;

FactCopies StoredCopies(const TripleStore& store) {
  FactCopies copies;
  for (const Triple& t : store.triples()) {
    ++copies[{t.head, t.relation, t.tail}];
  }
  return copies;
}

/// Brute-force tie-averaged raw and filtered rank of `truth` among
/// `scores`; `copies_of(e)` is how many times candidate e is filtered. A
/// NaN true score ranks after every number, tied with the other NaNs.
template <typename CopiesOf>
void ReferenceRank(const std::vector<float>& scores, EntityId truth,
                   const CopiesOf& copies_of, double* raw, double* filtered) {
  const float s_true = scores[static_cast<size_t>(truth)];
  const bool nan_true = std::isnan(s_true);
  double greater = 0;
  double equal = 0;
  double greater_known = 0;
  double equal_known = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    const EntityId candidate = static_cast<EntityId>(e);
    if (candidate == truth) continue;
    const float s = scores[e];
    if (nan_true ? !std::isnan(s) : s > s_true) {
      greater += 1;
      greater_known += copies_of(candidate);
    } else if (nan_true ? std::isnan(s) : s == s_true) {
      equal += 1;
      equal_known += copies_of(candidate);
    }
  }
  *raw = greater + equal / 2.0 + 1.0;
  *filtered = (greater - greater_known) + (equal - equal_known) / 2.0 + 1.0;
}

/// The per-triple reference RankTriples must reproduce: both sides of every
/// test triple scored by a full sweep of their own and ranked by
/// ReferenceRank, each candidate that is a known fact of `filter` (default:
/// the dataset's splits) filtered once, however often the store holds it.
std::vector<TripleRanks> BruteForceRanks(const LinkPredictor& predictor,
                                         const Dataset& dataset,
                                         const TripleStore* filter = nullptr) {
  const FactCopies copies =
      StoredCopies(filter != nullptr ? *filter : dataset.all_store());
  const auto known = [&](EntityId h, RelationId r, EntityId t) {
    return copies.contains({h, r, t}) ? 1 : 0;
  };
  std::vector<TripleRanks> ranks(dataset.test().size());
  std::vector<float> scores(static_cast<size_t>(predictor.num_entities()));
  for (size_t i = 0; i < dataset.test().size(); ++i) {
    const Triple& t = dataset.test()[i];
    TripleRanks& out = ranks[i];
    out.triple = t;
    predictor.ScoreTails(t.head, t.relation, scores);
    ReferenceRank(
        scores, t.tail,
        [&](EntityId e) { return known(t.head, t.relation, e); },
        &out.tail_raw, &out.tail_filtered);
    predictor.ScoreHeads(t.relation, t.tail, scores);
    ReferenceRank(
        scores, t.head,
        [&](EntityId e) { return known(e, t.relation, t.tail); },
        &out.head_raw, &out.head_filtered);
  }
  return ranks;
}

void ExpectSameOverlaps(const std::vector<RelationPairOverlap>& a,
                        const std::vector<RelationPairOverlap>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].r1, b[i].r1);
    EXPECT_EQ(a[i].r2, b[i].r2);
    EXPECT_EQ(a[i].coverage_r1, b[i].coverage_r1);
    EXPECT_EQ(a[i].coverage_r2, b[i].coverage_r2);
  }
}

// --- Layer determinism: threads=1 vs threads=4 must be bit-identical -------

TEST(ParallelDeterminismTest, RankTriplesIsThreadCountInvariant) {
  // A dataset with several relations so the relation-grouped order is
  // non-trivial, and enough test triples for 4 real shards.
  const int32_t num_entities = 40;
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  for (int r = 0; r < 4; ++r) vocab.InternRelation("r" + std::to_string(r));
  Rng rng(5);
  TripleList train;
  TripleList test;
  for (int i = 0; i < 80; ++i) {
    Triple t{static_cast<EntityId>(rng.Uniform(num_entities)),
             static_cast<RelationId>(rng.Uniform(4)),
             static_cast<EntityId>(rng.Uniform(num_entities))};
    if (i % 3 == 0) {
      test.push_back(t);
    } else {
      train.push_back(t);
    }
  }
  const Dataset dataset("det", std::move(vocab), std::move(train), {},
                        std::move(test));
  const HashPredictor predictor(num_entities);

  RankerOptions serial;
  serial.threads = 1;
  const auto baseline =
      RankTriples(predictor, dataset, dataset.test(), serial);
  ASSERT_EQ(baseline.size(), dataset.test().size());
  for (int threads : {2, 3, 4}) {
    RankerOptions options;
    options.threads = threads;
    ExpectSameRanks(
        baseline, RankTriples(predictor, dataset, dataset.test(), options));
  }
}

TEST(ParallelDeterminismTest, QueryDedupIsBitIdenticalAcrossThreadCounts) {
  // A duplicate-heavy test split: few anchors and relations, so most test
  // triples share a ScoreTails/ScoreHeads query with an earlier one. The
  // deduplicated sweep must reproduce the per-triple reference, which
  // scores every triple with a sweep of its own, bit for bit at every
  // thread count.
  const int32_t num_entities = 25;
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  for (int r = 0; r < 2; ++r) vocab.InternRelation("r" + std::to_string(r));
  TripleList train;
  TripleList test;
  for (EntityId h = 0; h < 3; ++h) {
    for (RelationId r = 0; r < 2; ++r) {
      for (EntityId t = 5; t < 15; ++t) {
        ((h + static_cast<int>(r) + t) % 4 == 0 ? train : test)
            .push_back({h, r, t});
      }
    }
  }
  const Dataset dataset("dup", std::move(vocab), std::move(train), {},
                        std::move(test));
  const HashPredictor predictor(num_entities);

  const std::vector<TripleRanks> expected =
      BruteForceRanks(predictor, dataset);
  ASSERT_FALSE(expected.empty());
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    RankerOptions options;
    options.threads = threads;
    ExpectSameRanks(expected,
                    RankTriples(predictor, dataset, dataset.test(), options));
  }
}

TEST(ParallelDeterminismTest, MultiPredictorSweepMatchesSingleCalls) {
  // Three predictors of unequal cost over a test list with repeated
  // queries: one sweep over all three must return, at every thread count,
  // the tables of one single-predictor call each, and move every ranker
  // counter by exactly the sum of those calls.
  const int32_t num_entities = 35;
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  for (int r = 0; r < 3; ++r) vocab.InternRelation("r" + std::to_string(r));
  Rng rng(23);
  TripleList train;
  TripleList test;
  for (int i = 0; i < 150; ++i) {
    // Few anchors, so many test triples share a query with an earlier one.
    Triple t{static_cast<EntityId>(rng.Uniform(6)),
             static_cast<RelationId>(rng.Uniform(3)),
             static_cast<EntityId>(rng.Uniform(num_entities))};
    (i % 3 == 0 ? test : train).push_back(t);
  }
  test.push_back(test.front());  // an exact repeat as well
  const Dataset dataset("multi", std::move(vocab), std::move(train), {},
                        std::move(test));
  const HashPredictor cheap(num_entities, /*salt=*/0, /*rounds=*/1);
  const HashPredictor middle(num_entities, /*salt=*/101, /*rounds=*/8);
  const HashPredictor costly(num_entities, /*salt=*/202, /*rounds=*/64);
  const LinkPredictor* const predictors[] = {&cheap, &middle, &costly};

  const char* const counter_names[] = {
      obs::kRankerSweeps, obs::kRankerTriplesRanked, obs::kRankerScoreEvals,
      obs::kRankerQueryCacheHits, obs::kRankerQueryCacheMisses};
  const auto read_counters = [&] {
    std::vector<uint64_t> values;
    for (const char* name : counter_names) {
      values.push_back(obs::Registry::Get().GetCounter(name).value());
    }
    return values;
  };

  for (int threads : {1, 2, 3, 4}) {
    RankerOptions options;
    options.threads = threads;
    std::vector<std::vector<TripleRanks>> singles;
    const std::vector<uint64_t> before_singles = read_counters();
    for (const LinkPredictor* predictor : predictors) {
      singles.push_back(
          RankTriples(*predictor, dataset, dataset.test(), options));
    }
    const std::vector<uint64_t> before_sweep = read_counters();
    const auto tables =
        RankTriples(predictors, dataset, dataset.test(), options);
    const std::vector<uint64_t> after_sweep = read_counters();

    ASSERT_EQ(tables.size(), singles.size());
    for (size_t p = 0; p < tables.size(); ++p) {
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << " predictor " << p);
      ExpectSameRanks(singles[p], tables[p]);
      EXPECT_EQ(TableBytes(tables[p]), TableBytes(singles[p]));
    }
    // The salts must give the tables different ranks, or a sweep that
    // wrote one predictor's ranks into every table would pass.
    EXPECT_NE(TableBytes(singles[0]), TableBytes(singles[1]));
    EXPECT_NE(TableBytes(singles[1]), TableBytes(singles[2]));
    for (size_t c = 0; c < std::size(counter_names); ++c) {
      EXPECT_EQ(after_sweep[c] - before_sweep[c],
                before_sweep[c] - before_singles[c])
          << counter_names[c] << " at threads " << threads;
    }
    EXPECT_EQ(after_sweep[0] - before_sweep[0], 3u);  // one per table
    // The repeated queries must hit the query cache, or the list would
    // not exercise it.
    EXPECT_GT(after_sweep[3] - before_sweep[3], 0u);
  }
}

TEST(ParallelDeterminismTest, DuplicateFactsFilterOncePerFact) {
  // Relation-0 train triples are partly stored twice. The filtered rank
  // takes a known fact out once however often the store holds it: a rank
  // is a position among entities, and the duplicated fact is one entity.
  // Ranks must equal a brute-force reference that filters every known
  // candidate once, at every thread count.
  const int32_t num_entities = 30;
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  for (int r = 0; r < 2; ++r) vocab.InternRelation("r" + std::to_string(r));
  Rng rng(11);
  TripleList train;
  TripleList test;
  for (int i = 0; i < 120; ++i) {
    Triple t{static_cast<EntityId>(rng.Uniform(num_entities)),
             static_cast<RelationId>(rng.Uniform(2)),
             static_cast<EntityId>(rng.Uniform(num_entities))};
    if (i % 4 == 0) {
      test.push_back(t);
    } else {
      train.push_back(t);
      // Every third relation-0 train triple is stored twice.
      if (t.relation == 0 && i % 3 == 0) train.push_back(t);
    }
  }
  const Dataset dataset("dups", std::move(vocab), std::move(train), {},
                        std::move(test));
  const HashPredictor predictor(num_entities);

  const std::vector<TripleRanks> expected =
      BruteForceRanks(predictor, dataset);
  // Would filtering once per stored copy give a different tail rank
  // somewhere?
  const FactCopies copies = StoredCopies(dataset.all_store());
  bool duplicate_filtered = false;
  std::vector<float> scores(static_cast<size_t>(num_entities));
  for (size_t i = 0; i < dataset.test().size(); ++i) {
    const Triple& t = dataset.test()[i];
    predictor.ScoreTails(t.head, t.relation, scores);
    const auto per_copy = [&](EntityId e) {
      const auto it = copies.find({t.head, t.relation, e});
      return it == copies.end() ? 0 : it->second;
    };
    double raw = 0;
    double twice = 0;
    ReferenceRank(scores, t.tail, per_copy, &raw, &twice);
    if (twice != expected[i].tail_filtered) duplicate_filtered = true;
  }
  // Otherwise the duplicates never reach a filtered rank and the check is
  // vacuous.
  ASSERT_TRUE(duplicate_filtered);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    RankerOptions options;
    options.threads = threads;
    const auto ranks = RankTriples(predictor, dataset, dataset.test(), options);
    ExpectSameRanks(expected, ranks);
    for (const TripleRanks& r : ranks) {
      EXPECT_LE(r.head_filtered, r.head_raw);
      EXPECT_LE(r.tail_filtered, r.tail_raw);
    }
  }
}

TEST(ParallelDeterminismTest, RankTriplesHandlesEmptyTestSplit) {
  Vocab vocab;
  for (int32_t i = 0; i < 5; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  vocab.InternRelation("r");
  const Dataset dataset("empty", std::move(vocab), {{0, 0, 1}}, {}, {});
  const HashPredictor predictor(5);
  RankerOptions options;
  options.threads = 4;
  EXPECT_TRUE(
      RankTriples(predictor, dataset, dataset.test(), options).empty());
}

// --- Bounded ranking: float pre-pass plus exact refinement -----------------

/// A dataset over `num_entities` entities and 4 relations whose test split
/// shares anchors with train, so filters and repeated queries both occur.
Dataset BoundedRankDataset(int32_t num_entities) {
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity("e" + std::to_string(i));
  }
  for (int r = 0; r < 4; ++r) vocab.InternRelation("r" + std::to_string(r));
  Rng rng(31);
  TripleList train;
  TripleList test;
  for (int i = 0; i < 240; ++i) {
    Triple t{static_cast<EntityId>(rng.Uniform(num_entities / 3)),
             static_cast<RelationId>(rng.Uniform(4)),
             static_cast<EntityId>(rng.Uniform(num_entities))};
    (i % 4 == 0 ? test : train).push_back(t);
    if (i % 17 == 0) train.push_back(t);  // some facts stored twice
  }
  return Dataset("bounded", std::move(vocab), std::move(train), {},
                 std::move(test));
}

/// Rewrites the rows of the model's `table`-th parameter table (0 = the
/// entity table, which every model serializes first; TuckER after its two
/// dims) through `edit(floats, dim)`. A table is written as rows, dim and
/// count, the floats, then an optimizer flag and its accumulators.
template <typename Edit>
void EditTableRows(KgeModel& model, int table, Edit edit) {
  BinaryWriter writer;
  model.Serialize(writer);
  std::vector<uint8_t> bytes = writer.buffer();
  size_t offset = model.type() == ModelType::kTuckER ? 2 * sizeof(int32_t) : 0;
  const auto read_u64 = [&](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  for (int t = 0; t < table; ++t) {
    offset += 3 * sizeof(int64_t) + read_u64(offset + 16) * sizeof(float);
    uint32_t adagrad = 0;
    std::memcpy(&adagrad, bytes.data() + offset, sizeof(adagrad));
    offset += sizeof(adagrad);
    if (adagrad != 0) {
      offset += sizeof(uint64_t) + read_u64(offset) * sizeof(float);
    }
  }
  const size_t dim = read_u64(offset + 8);
  std::vector<float> floats(read_u64(offset + 16));
  offset += 3 * sizeof(int64_t);
  std::memcpy(floats.data(), bytes.data() + offset,
              floats.size() * sizeof(float));
  edit(floats, dim);
  std::memcpy(bytes.data() + offset, floats.data(),
              floats.size() * sizeof(float));
  BinaryReader reader(std::move(bytes));
  ASSERT_TRUE(model.Deserialize(reader).ok());
}

/// Ties and near-ties among the candidates: every entity e with e % 4 == 1
/// copies entity e - 1's row, and e % 4 == 2 copies it with its first float
/// one ulp higher, so exact ties and scores a bound cannot separate both
/// occur next to the true entities.
void TieEntityRows(std::vector<float>& table, size_t dim) {
  const size_t rows = table.size() / dim;
  for (size_t e = 0; e < rows; ++e) {
    if (e % 4 == 0 || e % 4 == 3) continue;
    const size_t from = (e - e % 4) * dim;
    std::copy(table.begin() + static_cast<long>(from),
              table.begin() + static_cast<long>(from + dim),
              table.begin() + static_cast<long>(e * dim));
    if (e % 4 == 2) {
      float& x = table[e * dim];
      x = std::nextafter(x, std::numeric_limits<float>::infinity());
    }
  }
}

struct BoundedCase {
  std::string label;
  std::unique_ptr<KgeModel> model;
};

/// All ten models and the L1 variants of the translational ones, with
/// tie-heavy entity rows.
std::vector<BoundedCase> BoundedCases(int32_t num_entities) {
  std::vector<BoundedCase> cases;
  const ModelType all[] = {
      ModelType::kTransE,  ModelType::kTransH,  ModelType::kTransR,
      ModelType::kTransD,  ModelType::kRescal,  ModelType::kDistMult,
      ModelType::kComplEx, ModelType::kRotatE,  ModelType::kTuckER,
      ModelType::kConvE};
  for (const ModelType type : all) {
    for (const bool l1 : {false, true}) {
      const bool translational =
          type == ModelType::kTransE || type == ModelType::kTransH ||
          type == ModelType::kTransR || type == ModelType::kTransD;
      if (l1 && !translational) continue;
      ModelHyperParams params = DefaultHyperParams(type);
      params.dim = 16;
      params.dim2 = 4;
      params.l1_distance = l1;
      auto model = CreateModel(type, num_entities, 4, params);
      EditTableRows(*model, 0, TieEntityRows);
      // TransD's candidates also carry their own projection rows.
      if (type == ModelType::kTransD) EditTableRows(*model, 1, TieEntityRows);
      cases.push_back({std::string(ModelTypeName(type)) + (l1 ? "-L1" : ""),
                       std::move(model)});
    }
  }
  return cases;
}

/// Every kernel path this build and CPU can run.
std::vector<vec::KernelPath> KernelPaths() {
  std::vector<vec::KernelPath> paths = {vec::KernelPath::kGeneric};
  if (vec::NativeKernelsAvailable()) paths.push_back(vec::KernelPath::kNative);
  return paths;
}

/// Ranks `model` at threads 1, 2 and 4 on every kernel path and expects the
/// brute-force reference's ranks each time; returns the exact rescores the
/// runs took.
uint64_t ExpectBoundedRanksMatchReference(const KgeModel& model,
                                          const Dataset& dataset,
                                          const TripleStore* filter,
                                          const std::string& label) {
  obs::Counter& rescores =
      obs::Registry::Get().GetCounter(obs::kRankerExactRescores);
  const uint64_t before = rescores.value();
  const bool was_native = std::strcmp(vec::Ops().name, "native") == 0;
  for (const vec::KernelPath path : KernelPaths()) {
    vec::SetKernelPathForTest(path);
    const std::vector<TripleRanks> expected =
        BruteForceRanks(model, dataset, filter);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message()
                   << label << " path " << vec::Ops().name << " threads "
                   << threads);
      RankerOptions options;
      options.threads = threads;
      options.filter = filter;
      ExpectSameRanks(expected,
                      RankTriples(model, dataset, dataset.test(), options));
    }
  }
  vec::SetKernelPathForTest(was_native ? vec::KernelPath::kNative
                                       : vec::KernelPath::kGeneric);
  return rescores.value() - before;
}

TEST(BoundedRankTest, EveryModelMatchesBruteForceOnBothKernelPaths) {
  const int32_t num_entities = 64;
  const Dataset dataset = BoundedRankDataset(num_entities);
  const uint64_t ranks_per_run = 2 * dataset.test().size();
  for (const BoundedCase& c : BoundedCases(num_entities)) {
    const uint64_t rescores =
        ExpectBoundedRanksMatchReference(*c.model, dataset, nullptr, c.label);
    // Every rank rescored its true entity; the tied rows must have made
    // some rank rescore more, or the refinement went untested.
    const uint64_t runs = 3 * KernelPaths().size();
    EXPECT_GT(rescores, runs * ranks_per_run) << c.label;
  }
}

TEST(BoundedRankTest, AllTiedScoresRankAtTheMiddle) {
  // All-zero DistMult rows: every score is exactly 0, so every candidate
  // straddles the true score and is rescored.
  const int32_t num_entities = 40;
  const Dataset dataset = BoundedRankDataset(num_entities);
  ModelHyperParams params = DefaultHyperParams(ModelType::kDistMult);
  params.dim = 16;
  auto model = CreateModel(ModelType::kDistMult, num_entities, 4, params);
  EditTableRows(*model, 0, [](std::vector<float>& table, size_t) {
    std::fill(table.begin(), table.end(), 0.0f);
  });
  ExpectBoundedRanksMatchReference(*model, dataset, nullptr, "zero DistMult");
  const auto ranks = RankTriples(*model, dataset, dataset.test());
  for (const TripleRanks& r : ranks) {
    EXPECT_EQ(r.tail_raw, (num_entities - 1) / 2.0 + 1.0);
    EXPECT_EQ(r.head_raw, (num_entities - 1) / 2.0 + 1.0);
  }
}

TEST(BoundedRankTest, CustomFilterStoreMatchesBruteForce) {
  // A world store with extra facts, one of them stored twice.
  const int32_t num_entities = 64;
  const Dataset dataset = BoundedRankDataset(num_entities);
  TripleList world = dataset.all_store().triples();
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    const Triple& t = dataset.test()[rng.Uniform(dataset.test().size())];
    world.push_back({t.head, t.relation,
                     static_cast<EntityId>(rng.Uniform(num_entities))});
  }
  world.push_back(world.back());
  const TripleStore store(std::move(world), num_entities, 4);
  for (const BoundedCase& c : BoundedCases(num_entities)) {
    ExpectBoundedRanksMatchReference(*c.model, dataset, &store, c.label);
  }
}

TEST(BoundedRankTest, NanParametersFallBackToExactScores) {
  // A NaN in the anchor's or a candidate's row makes the group's bounds
  // non-finite; those groups rank through exact scores, NaN rule included.
  const int32_t num_entities = 64;
  const Dataset dataset = BoundedRankDataset(num_entities);
  const EntityId poisoned = dataset.test()[0].tail;
  for (const BoundedCase& c : BoundedCases(num_entities)) {
    EditTableRows(*c.model, 0, [&](std::vector<float>& table, size_t dim) {
      table[static_cast<size_t>(poisoned) * dim + dim / 2] =
          std::numeric_limits<float>::quiet_NaN();
    });
    ExpectBoundedRanksMatchReference(*c.model, dataset, nullptr, c.label);
  }
}

TEST(ParallelDeterminismTest, DetectorCatalogIsThreadCountInvariant) {
  const Dataset dataset = RedundantDataset();
  DetectorOptions serial;
  serial.threads = 1;
  const RedundancyCatalog baseline =
      RedundancyCatalog::Detect(dataset.all_store(), serial);
  // The engineered relations must actually fire their detectors, otherwise
  // the comparison is vacuous.
  EXPECT_FALSE(baseline.duplicate_pairs.empty());
  EXPECT_FALSE(baseline.reverse_pairs.empty());
  EXPECT_FALSE(baseline.symmetric_relations.empty());
  EXPECT_FALSE(
      FindCartesianRelations(dataset.all_store(), serial).empty());

  for (int threads : {2, 4}) {
    DetectorOptions options;
    options.threads = threads;
    const RedundancyCatalog parallel =
        RedundancyCatalog::Detect(dataset.all_store(), options);
    ExpectSameOverlaps(baseline.duplicate_pairs, parallel.duplicate_pairs);
    ExpectSameOverlaps(baseline.reverse_pairs, parallel.reverse_pairs);
    ExpectSameOverlaps(baseline.reverse_duplicate_pairs,
                       parallel.reverse_duplicate_pairs);
    EXPECT_EQ(baseline.symmetric_relations, parallel.symmetric_relations);
    const auto cart_a = FindCartesianRelations(dataset.all_store(), serial);
    const auto cart_b = FindCartesianRelations(dataset.all_store(), options);
    ASSERT_EQ(cart_a.size(), cart_b.size());
    for (size_t i = 0; i < cart_a.size(); ++i) {
      EXPECT_EQ(cart_a[i].relation, cart_b[i].relation);
      EXPECT_EQ(cart_a[i].num_triples, cart_b[i].num_triples);
      EXPECT_EQ(cart_a[i].density, cart_b[i].density);
    }
  }
}

TEST(ParallelDeterminismTest, LeakageAndBitmapAreThreadCountInvariant) {
  const Dataset dataset = RedundantDataset();
  DetectorOptions detector_options;
  detector_options.threads = 1;
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(dataset.all_store(), detector_options);

  const ReverseLeakageStats stats1 =
      ComputeReverseLeakage(dataset, catalog, /*threads=*/1);
  const RedundancyBitmap bitmap1 =
      ComputeRedundancyBitmap(dataset, catalog, /*threads=*/1);
  EXPECT_GT(stats1.test_triples_with_reverse_in_train, 0u);
  EXPECT_GT(bitmap1.reverse_in_train, 0u);
  ASSERT_EQ(bitmap1.cases.size(), dataset.test().size());

  for (int threads : {2, 4}) {
    const ReverseLeakageStats stats =
        ComputeReverseLeakage(dataset, catalog, threads);
    EXPECT_EQ(stats.train_triples_in_reverse_pairs,
              stats1.train_triples_in_reverse_pairs);
    EXPECT_EQ(stats.train_reverse_fraction, stats1.train_reverse_fraction);
    EXPECT_EQ(stats.test_triples_with_reverse_in_train,
              stats1.test_triples_with_reverse_in_train);
    EXPECT_EQ(stats.test_reverse_fraction, stats1.test_reverse_fraction);

    const RedundancyBitmap bitmap =
        ComputeRedundancyBitmap(dataset, catalog, threads);
    EXPECT_EQ(bitmap.cases, bitmap1.cases);
    EXPECT_EQ(bitmap.histogram, bitmap1.histogram);
    EXPECT_EQ(bitmap.reverse_in_train, bitmap1.reverse_in_train);
    EXPECT_EQ(bitmap.duplicate_in_train, bitmap1.duplicate_in_train);
    EXPECT_EQ(bitmap.reverse_duplicate_in_train,
              bitmap1.reverse_duplicate_in_train);
    EXPECT_EQ(bitmap.reverse_in_test, bitmap1.reverse_in_test);
    EXPECT_EQ(bitmap.duplicate_in_test, bitmap1.duplicate_in_test);
    EXPECT_EQ(bitmap.reverse_duplicate_in_test,
              bitmap1.reverse_duplicate_in_test);
  }
}

TEST(ParallelDeterminismTest, MineRulesIsThreadCountInvariant) {
  const TripleStore train = RuleStore();
  AmieOptions serial;
  serial.min_support = 3;
  serial.min_confidence = 0.01;
  serial.min_head_coverage = 0.0;
  serial.threads = 1;
  const std::vector<Rule> baseline = MineRules(train, serial);
  EXPECT_FALSE(baseline.empty());

  for (int threads : {2, 4}) {
    AmieOptions options = serial;
    options.threads = threads;
    const std::vector<Rule> mined = MineRules(train, options);
    ASSERT_EQ(mined.size(), baseline.size());
    for (size_t i = 0; i < mined.size(); ++i) {
      EXPECT_EQ(mined[i].kind, baseline[i].kind) << "rule " << i;
      EXPECT_EQ(mined[i].body1, baseline[i].body1) << "rule " << i;
      EXPECT_EQ(mined[i].body2, baseline[i].body2) << "rule " << i;
      EXPECT_EQ(mined[i].head, baseline[i].head) << "rule " << i;
      EXPECT_EQ(mined[i].support, baseline[i].support) << "rule " << i;
      EXPECT_EQ(mined[i].body_size, baseline[i].body_size) << "rule " << i;
      EXPECT_EQ(mined[i].std_confidence, baseline[i].std_confidence)
          << "rule " << i;
      EXPECT_EQ(mined[i].pca_confidence, baseline[i].pca_confidence)
          << "rule " << i;
      EXPECT_EQ(mined[i].head_coverage, baseline[i].head_coverage)
          << "rule " << i;
    }
  }
}

}  // namespace
}  // namespace kgc
