// Tests for ranking, metrics, category break-downs and model comparisons.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "datagen/presets.h"
#include "eval/category.h"
#include "eval/comparison.h"
#include "eval/metrics.h"
#include "eval/ranker.h"
#include "models/model.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace kgc {
namespace {

// A deterministic predictor with a fixed score table: score(h, r, t) =
// table[t] for tails and table[h] for heads (relation-independent).
class StubPredictor final : public LinkPredictor {
 public:
  explicit StubPredictor(std::vector<float> scores)
      : scores_(std::move(scores)) {}
  const char* name() const override { return "Stub"; }
  int32_t num_entities() const override {
    return static_cast<int32_t>(scores_.size());
  }
  void ScoreTails(EntityId, RelationId, std::span<float> out) const override {
    std::copy(scores_.begin(), scores_.end(), out.begin());
  }
  void ScoreHeads(RelationId, EntityId, std::span<float> out) const override {
    std::copy(scores_.begin(), scores_.end(), out.begin());
  }

 private:
  std::vector<float> scores_;
};

Dataset SmallDataset() {
  Vocab vocab;
  for (int i = 0; i < 5; ++i) vocab.InternEntity("e" + std::to_string(i));
  vocab.InternRelation("r");
  // train: (0,r,1), (0,r,2); test: (0,r,3).
  return Dataset("small", vocab, {{0, 0, 1}, {0, 0, 2}}, {}, {{0, 0, 3}});
}

TEST(RankerTest, RawAndFilteredRanks) {
  // Entity scores: e0=0.1 e1=0.9 e2=0.8 e3=0.5 e4=0.2.
  // Tail query (0, r, ?): true tail e3 ranks 3rd raw (behind e1, e2).
  // Filtered: e1 and e2 are known tails of (0, r) from train, so both are
  // removed -> filtered rank 1.
  const StubPredictor predictor({0.1f, 0.9f, 0.8f, 0.5f, 0.2f});
  const Dataset dataset = SmallDataset();
  const auto ranks = RankTriples(predictor, dataset, dataset.test());
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(ranks[0].tail_raw, 3.0);
  EXPECT_DOUBLE_EQ(ranks[0].tail_filtered, 1.0);
  // Head query (?, r, 3): true head e0 scores 0.1, everything else higher
  // except nothing -> raw rank 5. No known heads to filter except e0 itself.
  EXPECT_DOUBLE_EQ(ranks[0].head_raw, 5.0);
  EXPECT_DOUBLE_EQ(ranks[0].head_filtered, 5.0);
}

TEST(RankerTest, TieAveraging) {
  // All scores equal: the true entity ties with the other 4 ->
  // rank = 0 + 4/2 + 1 = 3.
  const StubPredictor predictor({0.5f, 0.5f, 0.5f, 0.5f, 0.5f});
  const Dataset dataset = SmallDataset();
  const auto ranks = RankTriples(predictor, dataset, dataset.test());
  EXPECT_DOUBLE_EQ(ranks[0].head_raw, 3.0);
  // Filtered tail: ties e1, e2 are known-correct and removed from the tie
  // pool: rank = 0 + 2/2 + 1 = 2.
  EXPECT_DOUBLE_EQ(ranks[0].tail_filtered, 2.0);
}

TEST(RankerTest, CustomFilterStore) {
  // Using a world store that also knows (0, r, 4) filters e4 as well.
  const StubPredictor predictor({0.1f, 0.9f, 0.8f, 0.5f, 0.6f});
  const Dataset dataset = SmallDataset();
  TripleStore world({{0, 0, 1}, {0, 0, 2}, {0, 0, 4}, {0, 0, 3}}, 5, 1);
  RankerOptions options;
  options.filter = &world;
  const auto ranks =
      RankTriples(predictor, dataset, dataset.test(), options);
  // Raw: e1, e2, e4 above e3 -> rank 4. Filtered: all three removed -> 1.
  EXPECT_DOUBLE_EQ(ranks[0].tail_raw, 4.0);
  EXPECT_DOUBLE_EQ(ranks[0].tail_filtered, 1.0);
}

TEST(RankerTest, KnownFactStoredTwiceAboveTruthFiltersOnce) {
  // Tail query (0, r, ?): only e1 outscores the true tail e3, and the
  // store holds (0, r, 1) twice. Filtering it once per stored copy
  // subtracted two from a count of one and wrapped the filtered rank to
  // about 1.8e19; it is one entity, filtered once.
  const StubPredictor predictor({0.1f, 0.9f, 0.3f, 0.5f, 0.2f});
  Vocab vocab;
  for (int i = 0; i < 5; ++i) vocab.InternEntity("e" + std::to_string(i));
  vocab.InternRelation("r");
  const Dataset dataset("twice", vocab, {{0, 0, 1}, {0, 0, 1}}, {},
                        {{0, 0, 3}});
  const auto ranks = RankTriples(predictor, dataset, dataset.test());
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(ranks[0].tail_raw, 2.0);
  EXPECT_DOUBLE_EQ(ranks[0].tail_filtered, 1.0);
}

TEST(RankerTest, NanTrueScoreRanksAfterEveryNumber) {
  // Tail query (0, r, ?): the true tail e3 scores NaN. It ranks after the
  // three numbers and ties with e1, the other NaN: 3 + 1/2 + 1. Filtered,
  // e2 (a number) and e1 (a NaN) are known tails: 2 + 0/2 + 1.
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const StubPredictor predictor({0.1f, kNan, 0.8f, kNan, 0.2f});
  const Dataset dataset = SmallDataset();
  const auto ranks = RankTriples(predictor, dataset, dataset.test());
  EXPECT_DOUBLE_EQ(ranks[0].tail_raw, 4.5);
  EXPECT_DOUBLE_EQ(ranks[0].tail_filtered, 3.0);
  // Head query (?, r, 3): e0 scores 0.1, below e2 and e4; NaNs rank below.
  EXPECT_DOUBLE_EQ(ranks[0].head_raw, 3.0);
  EXPECT_DOUBLE_EQ(ranks[0].head_filtered, 3.0);
}

TEST(RankerTest, NanParametersKeepRanksInRange) {
  // A trained model whose parameters hold a NaN (a CRC-valid file can carry
  // one) scores NaN for every triple that touches the row. DistMult's
  // entity table leads its serialized form: rows, dim, count, then floats.
  const SyntheticKg kg = GenerateTiny(5);
  const Dataset& dataset = kg.dataset;
  const ModelHyperParams params = DefaultHyperParams(ModelType::kDistMult);
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), params);
  BinaryWriter writer;
  model->Serialize(writer);
  std::vector<uint8_t> bytes = writer.buffer();
  const size_t row = 3 * sizeof(int64_t) +
                     static_cast<size_t>(dataset.test()[0].tail) *
                         static_cast<size_t>(params.dim) * sizeof(float);
  ASSERT_LE(row + static_cast<size_t>(params.dim) * sizeof(float),
            bytes.size());
  for (int32_t j = 0; j < params.dim; ++j) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(bytes.data() + row + static_cast<size_t>(j) * sizeof(float),
                &nan, sizeof(nan));
  }
  BinaryReader reader(std::move(bytes));
  ASSERT_TRUE(model->Deserialize(reader).ok());

  const auto ranks = RankTriples(*model, dataset, dataset.test());
  const double n = static_cast<double>(dataset.num_entities());
  for (const TripleRanks& r : ranks) {
    for (const double rank :
         {r.head_raw, r.head_filtered, r.tail_raw, r.tail_filtered}) {
      EXPECT_GE(rank, 1.0);
      EXPECT_LE(rank, n);
    }
  }
  // The NaN tail ranks after every number on both sides of the query.
  EXPECT_GT(ranks[0].tail_raw, n / 2);
  const LinkPredictionMetrics m = ComputeMetrics(ranks);
  for (const double v : {m.mr, m.mrr, m.hits10, m.fmr, m.fmrr, m.fhits10}) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_LE(m.fmr, n);
}

int g_ranker_deadline_hits = 0;
std::string g_ranker_deadline_phase;
void RecordRankerDeadline(const char* phase) {
  ++g_ranker_deadline_hits;
  g_ranker_deadline_phase = phase;
}

// An over-budget sweep hits the boundary between the two joined ranking
// passes — never inside one — and since ranks are recomputed from the
// cached model on retry, results under a test handler are still complete
// and identical.
TEST(RankerTest, DeadlineChecksBetweenPassesLeaveResultsIntact) {
  const StubPredictor predictor({0.1f, 0.9f, 0.8f, 0.5f, 0.2f});
  const Dataset dataset = SmallDataset();
  const auto reference = RankTriples(predictor, dataset, dataset.test());

  SetDeadlineHandlerForTest(RecordRankerDeadline);
  g_ranker_deadline_hits = 0;
  // One nanosecond: the stub sweep outruns any human-scale budget, and the
  // point is only that the boundary observes an already-expired clock.
  Deadline::Global().SetPhaseBudgetForTest(1e-9);
  const auto ranks = RankTriples(predictor, dataset, dataset.test());
  Deadline::Global().SetPhaseBudgetForTest(0);
  SetDeadlineHandlerForTest(nullptr);

  EXPECT_GE(g_ranker_deadline_hits, 1);  // rank_pass, then rank_done
  EXPECT_EQ(g_ranker_deadline_phase, "rank_done");
  ASSERT_EQ(ranks.size(), reference.size());
  EXPECT_EQ(ranks[0].tail_raw, reference[0].tail_raw);
  EXPECT_EQ(ranks[0].tail_filtered, reference[0].tail_filtered);
  EXPECT_EQ(ranks[0].head_raw, reference[0].head_raw);
  EXPECT_EQ(ranks[0].head_filtered, reference[0].head_filtered);
}

TEST(MetricsTest, AccumulatorComputesAllMeasures) {
  MetricsAccumulator acc;
  acc.Add(1.0, 1.0);
  acc.Add(10.0, 5.0);
  acc.Add(100.0, 20.0);
  const LinkPredictionMetrics m = acc.Finalize();
  EXPECT_DOUBLE_EQ(m.mr, (1 + 10 + 100) / 3.0);
  EXPECT_DOUBLE_EQ(m.fmr, (1 + 5 + 20) / 3.0);
  EXPECT_NEAR(m.mrr, (1.0 + 0.1 + 0.01) / 3.0, 1e-12);
  EXPECT_NEAR(m.fmrr, (1.0 + 0.2 + 0.05) / 3.0, 1e-12);
  EXPECT_NEAR(m.hits1, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.hits10, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.fhits10, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.fhits1, 1.0 / 3.0, 1e-12);
}

TEST(MetricsTest, FilteredNeverWorseThanRaw) {
  // Filtered rank <= raw rank by construction; metrics must reflect that.
  std::vector<TripleRanks> ranks(50);
  Rng rng(3);
  for (auto& r : ranks) {
    r.head_raw = 1.0 + static_cast<double>(rng.Uniform(100));
    r.head_filtered = 1.0 + (r.head_raw - 1.0) * rng.UniformDouble();
    r.tail_raw = 1.0 + static_cast<double>(rng.Uniform(100));
    r.tail_filtered = 1.0 + (r.tail_raw - 1.0) * rng.UniformDouble();
  }
  const LinkPredictionMetrics m = ComputeMetrics(ranks);
  EXPECT_LE(m.fmr, m.mr);
  EXPECT_GE(m.fmrr, m.mrr);
  EXPECT_GE(m.fhits10, m.hits10);
  EXPECT_GE(m.fhits1, m.hits1);
}

TEST(MetricsTest, ByRelationGroupsCorrectly) {
  std::vector<TripleRanks> ranks(4);
  ranks[0].triple = {0, 0, 1};
  ranks[1].triple = {0, 0, 2};
  ranks[2].triple = {0, 1, 1};
  ranks[3].triple = {0, 1, 2};
  for (auto& r : ranks) {
    r.head_raw = r.head_filtered = 1;
    r.tail_raw = r.tail_filtered = 1;
  }
  ranks[2].tail_filtered = 10;
  const auto by_relation = ComputeMetricsByRelation(ranks);
  ASSERT_EQ(by_relation.size(), 2u);
  EXPECT_EQ(by_relation.at(0).num_triples, 2u);
  EXPECT_GT(by_relation.at(0).fmrr, by_relation.at(1).fmrr);
}

TEST(MetricsTest, WhereFiltersSubset) {
  std::vector<TripleRanks> ranks(3);
  for (auto& r : ranks) {
    r.head_raw = r.head_filtered = 2;
    r.tail_raw = r.tail_filtered = 2;
  }
  ranks[1].head_filtered = ranks[1].tail_filtered = 1;
  const LinkPredictionMetrics m =
      ComputeMetricsWhere(ranks, {false, true, false});
  EXPECT_DOUBLE_EQ(m.fmr, 1.0);
  EXPECT_EQ(m.num_triples, 1u);
}

// --- Category break-downs -------------------------------------------------

TEST(CategoryTest, CategorizeAndHeadTailHits) {
  // r0: 1-to-n (head 0 -> 3 tails); r1: 1-to-1.
  TripleStore train({{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {4, 1, 5}}, 6, 2);
  const auto categories = CategorizeRelations(train);
  EXPECT_EQ(categories[0], RelationCategory::kOneToMany);
  EXPECT_EQ(categories[1], RelationCategory::kOneToOne);

  std::vector<TripleRanks> ranks(2);
  ranks[0].triple = {0, 0, 1};
  ranks[0].head_filtered = 1;   // left hit
  ranks[0].tail_filtered = 50;  // right miss
  ranks[0].head_raw = ranks[0].tail_raw = 1;
  ranks[1].triple = {4, 1, 5};
  ranks[1].head_filtered = 11;  // left miss
  ranks[1].tail_filtered = 2;   // right hit
  ranks[1].head_raw = ranks[1].tail_raw = 1;

  const CategoryHeadTailHits hits =
      ComputeCategoryHeadTailHits(ranks, categories);
  const size_t one_to_many =
      static_cast<size_t>(RelationCategory::kOneToMany);
  const size_t one_to_one = static_cast<size_t>(RelationCategory::kOneToOne);
  EXPECT_DOUBLE_EQ(hits.left_fhits10[one_to_many], 1.0);
  EXPECT_DOUBLE_EQ(hits.right_fhits10[one_to_many], 0.0);
  EXPECT_DOUBLE_EQ(hits.left_fhits10[one_to_one], 0.0);
  EXPECT_DOUBLE_EQ(hits.right_fhits10[one_to_one], 1.0);
  EXPECT_EQ(hits.num_triples[one_to_many], 1u);
  EXPECT_EQ(hits.num_relations[one_to_one], 1u);
}

// --- Comparisons -----------------------------------------------------------

std::vector<TripleRanks> UniformRanks(size_t n, double rank,
                                      RelationId relation = 0) {
  std::vector<TripleRanks> ranks(n);
  for (size_t i = 0; i < n; ++i) {
    ranks[i].triple = {static_cast<EntityId>(i), relation,
                       static_cast<EntityId>(i + 1)};
    ranks[i].head_raw = ranks[i].head_filtered = rank;
    ranks[i].tail_raw = ranks[i].tail_filtered = rank;
  }
  return ranks;
}

TEST(ComparisonTest, CountBestRelationsCreditsWinnerAndTies) {
  const auto good = UniformRanks(4, 1.0);
  const auto bad = UniformRanks(4, 20.0);
  const auto counts =
      CountBestRelations({{"good", &good}, {"bad", &bad}});
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].fmrr, 1);
  EXPECT_EQ(counts[0].fhits1, 1);
  EXPECT_EQ(counts[1].fmrr, 0);
  // Ties credit everyone.
  const auto tied = CountBestRelations({{"a", &good}, {"b", &good}});
  EXPECT_EQ(tied[0].fmrr, 1);
  EXPECT_EQ(tied[1].fmrr, 1);
}

TEST(ComparisonTest, WinShareHeatmapSumsToAtLeastHundred) {
  const auto a = UniformRanks(10, 2.0, /*relation=*/0);
  auto b = UniformRanks(10, 2.0, /*relation=*/0);
  for (size_t i = 0; i < 5; ++i) b[i].head_filtered = 1.0;  // b wins 5
  const WinShareHeatmap heatmap =
      ComputePerRelationWinShare({{"a", &a}, {"b", &b}});
  ASSERT_EQ(heatmap.relations.size(), 1u);
  EXPECT_DOUBLE_EQ(heatmap.share[1][0], 100.0);  // b best-or-tied everywhere
  EXPECT_DOUBLE_EQ(heatmap.share[0][0], 50.0);   // a tied on half
}

TEST(ComparisonTest, OutperformRedundancyShares) {
  auto baseline = UniformRanks(4, 10.0);
  auto challenger = UniformRanks(4, 10.0);
  // Challenger wins on triples 0 (redundant) and 1 (clean).
  challenger[0].head_filtered = challenger[0].tail_filtered = 1.0;
  challenger[1].head_filtered = challenger[1].tail_filtered = 2.0;
  const std::vector<bool> redundant = {true, false, false, false};
  const OutperformRedundancyShare share =
      ComputeOutperformRedundancy(challenger, baseline, redundant);
  EXPECT_EQ(share.outperform_fmrr, 2u);
  EXPECT_DOUBLE_EQ(share.fmrr, 50.0);
  EXPECT_EQ(share.outperform_fhits1, 1u);  // only triple 0 reaches rank 1
  EXPECT_DOUBLE_EQ(share.fhits1, 100.0);
}

TEST(ComparisonTest, BestByCategoryUsesRelationCategories) {
  const auto a = UniformRanks(4, 1.0, /*relation=*/0);
  const auto b = UniformRanks(4, 5.0, /*relation=*/0);
  const std::vector<RelationCategory> categories = {
      RelationCategory::kManyToMany};
  const auto counts =
      CountBestRelationsByCategory({{"a", &a}, {"b", &b}}, categories);
  const size_t many = static_cast<size_t>(RelationCategory::kManyToMany);
  EXPECT_EQ(counts[0][many], 1);
  EXPECT_EQ(counts[1][many], 0);
}

}  // namespace
}  // namespace kgc
