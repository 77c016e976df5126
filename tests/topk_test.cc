// Tests for the top-K retrieval engine (eval/topk.h): oracle agreement
// across all ten models, K values, thread counts and filtered/unfiltered,
// with a filter that drops known facts from every query's list;
// counter determinism across thread counts; kernel-path invariance; and
// all-tied scores, which only the entity-id tie-break orders.

#include "eval/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "models/embedding.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

constexpr int32_t kEntities = 150;
constexpr int32_t kRelations = 6;

ModelHyperParams SmallParams(ModelType type) {
  ModelHyperParams params = DefaultHyperParams(type);
  params.dim = 16;
  params.dim2 = 4;
  params.seed = 11;
  return params;
}

// A deterministic query mix: both directions, several relations, and shared
// (direction, relation) groups of varying size.
std::vector<TopKQuery> MakeQueries() {
  std::vector<TopKQuery> queries;
  for (int i = 0; i < 40; ++i) {
    TopKQuery q;
    q.tails = (i % 3) != 0;
    q.relation = static_cast<RelationId>((i * 7) % kRelations);
    q.anchor = static_cast<EntityId>((i * 13) % kEntities);
    queries.push_back(q);
  }
  return queries;
}

// A filter store built from the model's own raw lists: every query's raw
// ranks 1 and 3 are known facts, so every filtered list differs from its
// raw list. One fact is stored twice, as real datasets hold duplicates.
TripleStore MakeFilter(const LinkPredictor& model,
                       const std::vector<TopKQuery>& queries) {
  TripleList known;
  for (const TopKQuery& q : queries) {
    const TopKResult oracle = TopKEngine::OracleTopK(model, q, 3, nullptr);
    for (size_t rank : {size_t{0}, size_t{2}}) {
      const EntityId e = oracle.raw[rank].entity;
      known.push_back(q.tails ? Triple{q.anchor, q.relation, e}
                              : Triple{e, q.relation, q.anchor});
    }
  }
  known.push_back(known.front());
  return TripleStore(std::move(known), kEntities, kRelations);
}

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

void ExpectEntriesEqual(const std::vector<TopKEntry>& actual,
                        const std::vector<TopKEntry>& expected,
                        const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t j = 0; j < actual.size(); ++j) {
    EXPECT_EQ(actual[j].entity, expected[j].entity) << what << " pos " << j;
    EXPECT_EQ(Bits(actual[j].score), Bits(expected[j].score))
        << what << " pos " << j;
  }
}

void ExpectResultsEqual(const std::vector<TopKResult>& actual,
                        const std::vector<TopKResult>& expected,
                        const char* what) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectEntriesEqual(actual[i].raw, expected[i].raw, what);
    ExpectEntriesEqual(actual[i].filtered, expected[i].filtered, what);
  }
}

class TopKModelTest : public ::testing::TestWithParam<ModelType> {};

// The core contract: for every model, K and filter setting, the fast path
// equals the truncated full ranking bit for bit.
TEST_P(TopKModelTest, MatchesOracleBitForBit) {
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter(*model, queries);
  for (int k : {1, 10, 100}) {
    for (const TripleStore* f : {static_cast<const TripleStore*>(nullptr),
                                 &filter}) {
      TopKOptions options;
      options.k = k;
      options.threads = 1;
      options.tile_rows = 32;  // several tiles even at 150 entities
      options.query_block = 4;
      const TopKEngine engine(*model, options);
      const auto results = engine.Run(queries, f);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const TopKResult oracle =
            TopKEngine::OracleTopK(*model, queries[i], k, f);
        SCOPED_TRACE(testing::Message()
                     << ModelTypeName(GetParam()) << " k=" << k
                     << " filtered=" << (f != nullptr) << " query " << i);
        ExpectEntriesEqual(results[i].raw, oracle.raw, "raw");
        ExpectEntriesEqual(results[i].filtered, oracle.filtered, "filtered");
        if (f != nullptr) {
          // Raw rank 1 is a known fact, so the filter must have dropped it.
          EXPECT_NE(results[i].filtered.front().entity,
                    results[i].raw.front().entity);
        }
      }
    }
  }
}

// Results AND kgc.topk.* counters must be bit-identical for any thread
// count: groups are sharded whole, and counter merges are integer sums.
TEST_P(TopKModelTest, ThreadCountInvariance) {
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter(*model, queries);

  const auto counters = [] {
    std::vector<uint64_t> values;
    for (const char* name : {obs::kTopKEntitiesScored, obs::kTopKHeapPushes,
                             obs::kTopKQueriesBatched}) {
      values.push_back(obs::Registry::Get().GetCounter(name).value());
    }
    return values;
  };

  std::vector<TopKResult> reference;
  std::vector<uint64_t> reference_delta;
  for (int threads : {1, 2, 4}) {
    TopKOptions options;
    options.threads = threads;
    options.tile_rows = 32;
    const TopKEngine engine(*model, options);
    const auto before = counters();
    const auto results = engine.Run(queries, &filter);
    const auto after = counters();
    std::vector<uint64_t> delta(before.size());
    for (size_t i = 0; i < before.size(); ++i) delta[i] = after[i] - before[i];
    if (threads == 1) {
      reference = results;
      reference_delta = delta;
    } else {
      ExpectResultsEqual(results, reference, "threads");
      EXPECT_EQ(delta, reference_delta) << "threads=" << threads;
    }
  }
}

// The generic and native kernel paths share the fixed-order reduction, so
// the fast path must return identical bits on both.
TEST_P(TopKModelTest, KernelPathInvariance) {
  if (!vec::NativeKernelsAvailable()) {
    GTEST_SKIP() << "native kernel path not compiled in or unsupported CPU";
  }
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter(*model, queries);
  TopKOptions options;
  options.threads = 1;
  options.tile_rows = 32;
  const TopKEngine engine(*model, options);

  const bool was_native = std::strcmp(vec::Ops().name, "native") == 0;
  vec::SetKernelPathForTest(vec::KernelPath::kGeneric);
  const auto generic = engine.Run(queries, &filter);
  vec::SetKernelPathForTest(vec::KernelPath::kNative);
  const auto native = engine.Run(queries, &filter);
  vec::SetKernelPathForTest(was_native ? vec::KernelPath::kNative
                                       : vec::KernelPath::kGeneric);
  ExpectResultsEqual(native, generic, "kernel path");
}

// cross_check mode re-derives every query against the oracle inside Run and
// aborts on mismatch; it must pass cleanly for every model.
TEST_P(TopKModelTest, CrossCheckModePasses) {
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter(*model, queries);
  TopKOptions options;
  options.cross_check = true;
  options.tile_rows = 32;
  const TopKEngine engine(*model, options);
  const auto results = engine.Run(queries, &filter);
  EXPECT_EQ(results.size(), queries.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TopKModelTest,
    ::testing::Values(ModelType::kTransE, ModelType::kTransH,
                      ModelType::kTransR, ModelType::kTransD,
                      ModelType::kRescal, ModelType::kDistMult,
                      ModelType::kComplEx, ModelType::kRotatE,
                      ModelType::kTuckER, ModelType::kConvE),
    [](const ::testing::TestParamInfo<ModelType>& info) {
      return ModelTypeName(info.param);
    });

// A DistMult whose even relations have all-zero rows: every candidate of
// those queries scores the same 0, so only the entity-id tie-break orders
// the raw and filtered lists, and the blocked sweep must still match the
// oracle exactly. Odd relations keep distinct scores.
TEST(TopKTieTest, AllTiedScoresMatchOracle) {
  const ModelHyperParams params = SmallParams(ModelType::kDistMult);
  Rng rng(params.seed);
  EmbeddingTable entities(kEntities, params.dim);
  entities.InitUniform(rng, 1.0);
  EmbeddingTable relations(kRelations, params.dim);
  relations.InitUniform(rng, 1.0);
  const size_t dim = static_cast<size_t>(params.dim);
  for (size_t r = 0; r < static_cast<size_t>(kRelations); r += 2) {
    std::fill_n(relations.mutable_data().begin() + r * dim, dim, 0.0f);
  }
  BinaryWriter writer;
  entities.Serialize(writer);
  relations.Serialize(writer);
  auto model =
      CreateModel(ModelType::kDistMult, kEntities, kRelations, params);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(model->Deserialize(reader).ok());

  const auto queries = MakeQueries();
  // Query i's known facts hold candidate i % 5, so every filtered list
  // drops one entity the raw list holds.
  TripleList known;
  for (size_t i = 0; i < queries.size(); ++i) {
    const TopKQuery& q = queries[i];
    const EntityId e = static_cast<EntityId>(i % 5);
    known.push_back(q.tails ? Triple{q.anchor, q.relation, e}
                            : Triple{e, q.relation, q.anchor});
  }
  const TripleStore filter(known, kEntities, kRelations);
  TopKOptions options;
  options.k = 10;
  options.tile_rows = 32;
  options.query_block = 4;
  const TopKEngine engine(*model, options);
  const auto results = engine.Run(queries, &filter);
  bool saw_tie = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "query " << i);
    const TopKResult oracle =
        TopKEngine::OracleTopK(*model, queries[i], options.k, &filter);
    ExpectEntriesEqual(results[i].raw, oracle.raw, "raw");
    ExpectEntriesEqual(results[i].filtered, oracle.filtered, "filtered");
    if (queries[i].relation % 2 == 0) {
      // All tied: the raw list is entities 0..k-1 in id order.
      for (size_t j = 0; j < results[i].raw.size(); ++j) {
        EXPECT_EQ(results[i].raw[j].score, 0.0f);
        EXPECT_EQ(results[i].raw[j].entity, static_cast<EntityId>(j));
      }
      // Filtered: entities 0..k in id order, less the known one.
      EXPECT_EQ(results[i].filtered.back().entity, options.k);
      saw_tie = true;
    }
  }
  EXPECT_TRUE(saw_tie);
}

TEST(TopKOptionsTest, KLargerThanEntityCountReturnsEverything) {
  const auto model = CreateModel(ModelType::kTransE, kEntities, kRelations,
                                 SmallParams(ModelType::kTransE));
  TopKOptions options;
  options.k = kEntities + 50;
  const TopKEngine engine(*model, options);
  TopKQuery query;
  query.relation = 1;
  query.anchor = 3;
  const auto results = engine.Run(std::vector<TopKQuery>{query}, nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].raw.size(), static_cast<size_t>(kEntities));
  // Sorted best-first with no duplicate entities.
  for (size_t j = 1; j < results[0].raw.size(); ++j) {
    const TopKEntry& prev = results[0].raw[j - 1];
    const TopKEntry& cur = results[0].raw[j];
    EXPECT_TRUE(prev.score > cur.score ||
                (prev.score == cur.score && prev.entity < cur.entity));
  }
}

}  // namespace
}  // namespace kgc
