// Tests for the AMIE-style miner, the simple rule model and the Cartesian
// predictor.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "obs/metrics.h"
#include "redundancy/detectors.h"
#include "rules/amie.h"
#include "rules/cartesian_predictor.h"
#include "rules/simple_rule_model.h"

namespace kgc {
namespace {

// Entities 0..11. Relations:
//   r0 "born_in":   0->8, 1->8, 2->9, 3->9, 4->10
//   r1 "lives_in":  0->8, 1->8, 2->9, 3->11, 4->10   (4/5 same as r0)
//   r2 "citizen_of_inv": 8->0, 8->1, 9->2, 10->4     (reverse of r0 mostly)
//   r3 "parent":    5->0, 6->2
//   r4 "grandparent_city" (via parent + born_in): 5->8, 6->9
TripleStore RuleStore() {
  TripleList triples = {
      {0, 0, 8}, {1, 0, 8}, {2, 0, 9}, {3, 0, 9}, {4, 0, 10},
      {0, 1, 8}, {1, 1, 8}, {2, 1, 9}, {3, 1, 11}, {4, 1, 10},
      {8, 2, 0}, {8, 2, 1}, {9, 2, 2}, {10, 2, 4},
      {5, 3, 0}, {6, 3, 2},
      {5, 4, 8}, {6, 4, 9},
  };
  return TripleStore(triples, 12, 5);
}

AmieOptions LooseOptions() {
  AmieOptions options;
  options.min_support = 2;
  options.min_head_coverage = 0.01;
  options.min_confidence = 0.3;
  return options;
}

const Rule* FindRule(const std::vector<Rule>& rules, RuleBodyKind kind,
                     RelationId body1, RelationId head,
                     RelationId body2 = -1) {
  for (const Rule& rule : rules) {
    if (rule.kind == kind && rule.body1 == body1 && rule.head == head &&
        (kind != RuleBodyKind::kPath || rule.body2 == body2)) {
      return &rule;
    }
  }
  return nullptr;
}

TEST(AmieTest, MinesSameDirectionRule) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  // lives_in(x,y) => born_in(x,y): support 4, body 5, conf 0.8.
  const Rule* rule = FindRule(rules, RuleBodyKind::kSame, 1, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 4u);
  EXPECT_EQ(rule->body_size, 5u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 0.8);
  // Every body subject has a born_in fact -> PCA denominator = body size.
  EXPECT_DOUBLE_EQ(rule->pca_confidence, 0.8);
  EXPECT_DOUBLE_EQ(rule->head_coverage, 0.8);
}

TEST(AmieTest, MinesInverseRule) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  // citizen_of_inv(y,x) => born_in(x,y): support 4, body 4, conf 1.0.
  const Rule* rule = FindRule(rules, RuleBodyKind::kInverse, 2, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 4u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 1.0);
}

TEST(AmieTest, MinesPathRule) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  // parent(x,z) ^ born_in(z,y) => grandparent_city(x,y): support 2/2.
  const Rule* rule = FindRule(rules, RuleBodyKind::kPath, 3, 4, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 2u);
  EXPECT_EQ(rule->body_size, 2u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 1.0);
}

TEST(AmieTest, NoTautologicalSameRule) {
  const auto rules = MineRules(RuleStore(), LooseOptions());
  EXPECT_EQ(FindRule(rules, RuleBodyKind::kSame, 0, 0), nullptr);
}

TEST(AmieTest, ThresholdsPrune) {
  AmieOptions strict = LooseOptions();
  strict.min_confidence = 0.95;
  const auto rules = MineRules(RuleStore(), strict);
  EXPECT_EQ(FindRule(rules, RuleBodyKind::kSame, 1, 0), nullptr);
  EXPECT_NE(FindRule(rules, RuleBodyKind::kInverse, 2, 0), nullptr);
}

TEST(AmieTest, RuleToStringRendersAllShapes) {
  Vocab vocab;
  for (const char* name : {"a", "b", "c"}) vocab.InternRelation(name);
  Rule rule;
  rule.kind = RuleBodyKind::kPath;
  rule.body1 = 0;
  rule.body2 = 1;
  rule.head = 2;
  const std::string text = rule.ToString(vocab);
  EXPECT_NE(text.find("a(x,z) ^ b(z,y) => c(x,y)"), std::string::npos);
}

TEST(RulePredictorTest, RanksRuleDerivedCandidatesFirst) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  const RulePredictor predictor(rules, store, LooseOptions());

  // Query (3, born_in, ?): lives_in(3, 11) fires the same-direction rule,
  // so entity 11 should out-score entities with no rule support.
  std::vector<float> scores(12);
  predictor.ScoreTails(3, 0, scores);
  EXPECT_GT(scores[11], 0.0f);
  EXPECT_GT(scores[11], scores[5]);

  // Query (?, born_in, 8): citizen_of_inv(8, {0,1}) fires the inverse rule.
  predictor.ScoreHeads(0, 8, scores);
  EXPECT_GT(scores[0], 0.0f);
  EXPECT_GT(scores[1], 0.0f);
  EXPECT_EQ(scores[7], 0.0f);
}

TEST(RulePredictorTest, PathRulePrediction) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  const RulePredictor predictor(rules, store, LooseOptions());
  // (5, grandparent_city, ?) via parent(5,0) ^ born_in(0,8).
  std::vector<float> scores(12);
  predictor.ScoreTails(5, 4, scores);
  EXPECT_GT(scores[8], 0.0f);
  EXPECT_EQ(scores[10], 0.0f);
}

TEST(AmieTest, DuplicateTriplesCountOnce) {
  // (0, r1, 1) is stored twice but is one fact: one of r0's two pairs
  // satisfies the head, and r1 has one pair.
  const TripleStore store({{0, 0, 1}, {2, 0, 3}, {0, 1, 1}, {0, 1, 1}}, 4, 2);
  AmieOptions options = LooseOptions();
  options.min_support = 1;
  const auto rules = MineRules(store, options);
  const Rule* rule = FindRule(rules, RuleBodyKind::kSame, 0, 1);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 1u);
  EXPECT_EQ(rule->body_size, 2u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 0.5);
  EXPECT_DOUBLE_EQ(rule->pca_confidence, 1.0);
  EXPECT_DOUBLE_EQ(rule->head_coverage, 1.0);
}

TEST(AmieTest, TiesOrderByKindBodiesAndHead) {
  // Every rule mined below has PCA confidence 1 and support 5, so only
  // (kind, body1, body2, head) orders them.
  using Identity = std::tuple<RuleBodyKind, RelationId, RelationId, RelationId>;
  const auto mine = [](const TripleList& triples, int32_t num_entities,
                       int32_t num_relations) {
    std::vector<Identity> identities;
    for (const Rule& rule :
         MineRules(TripleStore(triples, num_entities, num_relations),
                   LooseOptions())) {
      EXPECT_EQ(rule.pca_confidence, 1.0);
      EXPECT_EQ(rule.support, 5u);
      identities.emplace_back(rule.kind, rule.body1, rule.body2, rule.head);
    }
    return identities;
  };
  constexpr RuleBodyKind kSame = RuleBodyKind::kSame;
  constexpr RuleBodyKind kInverse = RuleBodyKind::kInverse;
  constexpr RuleBodyKind kPath = RuleBodyKind::kPath;

  // r0 and r1 hold the same five pairs, r2 their reverses.
  TripleList unary;
  for (EntityId i = 0; i < 5; ++i) {
    unary.push_back({i, 0, i + 5});
    unary.push_back({i, 1, i + 5});
    unary.push_back({i + 5, 2, i});
  }
  EXPECT_EQ(mine(unary, 10, 3),
            (std::vector<Identity>{{kSame, 0, -1, 1},
                                   {kSame, 1, -1, 0},
                                   {kInverse, 0, -1, 2},
                                   {kInverse, 1, -1, 2},
                                   {kInverse, 2, -1, 0},
                                   {kInverse, 2, -1, 1}}));

  // r1 and r2 hold the same pairs, so r0 ^ r1 and r0 ^ r2 both imply r3.
  TripleList paths;
  for (EntityId i = 0; i < 5; ++i) {
    paths.push_back({i, 0, i + 5});
    paths.push_back({i + 5, 1, i + 10});
    paths.push_back({i + 5, 2, i + 10});
    paths.push_back({i, 3, i + 10});
  }
  EXPECT_EQ(mine(paths, 15, 4), (std::vector<Identity>{{kSame, 1, -1, 2},
                                                       {kSame, 2, -1, 1},
                                                       {kPath, 0, 1, 3},
                                                       {kPath, 0, 2, 3}}));
}

// --- The sharded path join against the serial enumeration ------------------

// The serial definition the sharded join must reproduce: one walk over
// mediators in ascending order, each body's pairs in a std::set, the
// max_path_pairs budget checked before each mediator. Assumes a store
// without duplicate triples. Returns the rules in the miner's total order
// and, in `path_pairs`, the distinct path body pairs enumerated.
std::vector<Rule> ReferenceMineRules(const TripleStore& train,
                                     const AmieOptions& options,
                                     size_t* path_pairs = nullptr) {
  std::map<uint64_t, std::vector<RelationId>> pair_relations;
  for (const Triple& t : train.triples()) {
    pair_relations[PackPair(t.head, t.tail)].push_back(t.relation);
  }
  const auto relations_of = [&](uint64_t pair) {
    const auto it = pair_relations.find(pair);
    return it == pair_relations.end() ? std::vector<RelationId>{}
                                      : it->second;
  };
  std::vector<std::pair<Rule, std::vector<uint64_t>>> candidates;
  const auto add = [&](RuleBodyKind kind, RelationId body1, RelationId body2,
                       RelationId head, size_t support,
                       const std::vector<uint64_t>& pairs) {
    if (support < options.min_support) return;
    Rule rule;
    rule.kind = kind;
    rule.body1 = body1;
    rule.body2 = body2;
    rule.head = head;
    rule.support = support;
    rule.body_size = pairs.size();
    candidates.emplace_back(rule, pairs);
  };

  for (RelationId body = 0; body < train.num_relations(); ++body) {
    std::vector<uint64_t> pairs;
    for (uint64_t key : train.Pairs(body)) pairs.push_back(key);
    if (pairs.size() < options.min_support) continue;
    std::map<RelationId, size_t> same;
    std::map<RelationId, size_t> inverse;
    for (uint64_t key : pairs) {
      for (RelationId rh : relations_of(key)) ++same[rh];
      const auto [x, y] = UnpackPair(key);
      for (RelationId rh : relations_of(PackPair(y, x))) ++inverse[rh];
    }
    for (const auto& [head, support] : same) {
      if (head == body) continue;
      add(RuleBodyKind::kSame, body, -1, head, support, pairs);
    }
    for (const auto& [head, support] : inverse) {
      add(RuleBodyKind::kInverse, body, -1, head, support, pairs);
    }
  }

  const size_t num_entities = static_cast<size_t>(train.num_entities());
  std::vector<std::vector<std::pair<RelationId, EntityId>>> in_edges(
      num_entities);
  std::vector<std::vector<std::pair<RelationId, EntityId>>> out_edges(
      num_entities);
  for (const Triple& t : train.triples()) {
    in_edges[static_cast<size_t>(t.tail)].push_back({t.relation, t.head});
    out_edges[static_cast<size_t>(t.head)].push_back({t.relation, t.tail});
  }
  std::map<std::pair<RelationId, RelationId>, std::set<uint64_t>> bodies;
  size_t total_pairs = 0;
  for (size_t z = 0; z < num_entities; ++z) {
    const auto& in = in_edges[z];
    const auto& out = out_edges[z];
    if (in.empty() || out.empty()) continue;
    if (in.size() * out.size() > 20'000) continue;  // hub
    if (total_pairs > options.max_path_pairs) break;
    for (const auto& [r1, x] : in) {
      for (const auto& [r2, y] : out) {
        if (bodies[{r1, r2}].insert(PackPair(x, y)).second) ++total_pairs;
      }
    }
  }
  if (path_pairs != nullptr) *path_pairs = total_pairs;
  for (const auto& [body, pair_set] : bodies) {
    const std::vector<uint64_t> pairs(pair_set.begin(), pair_set.end());
    std::map<RelationId, size_t> support;
    for (uint64_t key : pairs) {
      for (RelationId rh : relations_of(key)) ++support[rh];
    }
    for (const auto& [head, count] : support) {
      add(RuleBodyKind::kPath, body.first, body.second, head, count, pairs);
    }
  }

  std::vector<Rule> rules;
  for (auto& [rule, pairs] : candidates) {
    const EntitySetView subjects = train.Subjects(rule.head);
    size_t pca_body = 0;
    for (uint64_t key : pairs) {
      const auto [x, y] = UnpackPair(key);
      if (subjects.contains(rule.kind == RuleBodyKind::kInverse ? y : x)) {
        ++pca_body;
      }
    }
    const size_t head_size = train.RelationSize(rule.head);
    rule.std_confidence = static_cast<double>(rule.support) /
                          static_cast<double>(rule.body_size);
    rule.pca_confidence = pca_body > 0 ? static_cast<double>(rule.support) /
                                             static_cast<double>(pca_body)
                                       : 0.0;
    rule.head_coverage =
        static_cast<double>(rule.support) / static_cast<double>(head_size);
    const double confidence = options.use_pca_confidence
                                  ? rule.pca_confidence
                                  : rule.std_confidence;
    if (rule.head_coverage >= options.min_head_coverage &&
        confidence >= options.min_confidence) {
      rules.push_back(rule);
    }
  }
  std::sort(rules.begin(), rules.end(), [&](const Rule& a, const Rule& b) {
    const double ca = options.use_pca_confidence ? a.pca_confidence
                                                 : a.std_confidence;
    const double cb = options.use_pca_confidence ? b.pca_confidence
                                                 : b.std_confidence;
    if (ca != cb) return ca > cb;
    if (a.support != b.support) return a.support > b.support;
    return std::tie(a.kind, a.body1, a.body2, a.head) <
           std::tie(b.kind, b.body1, b.body2, b.head);
  });
  return rules;
}

void ExpectSameRules(const std::vector<Rule>& actual,
                     const std::vector<Rule>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].kind, expected[i].kind) << "rule " << i;
    EXPECT_EQ(actual[i].body1, expected[i].body1) << "rule " << i;
    EXPECT_EQ(actual[i].body2, expected[i].body2) << "rule " << i;
    EXPECT_EQ(actual[i].head, expected[i].head) << "rule " << i;
    EXPECT_EQ(actual[i].support, expected[i].support) << "rule " << i;
    EXPECT_EQ(actual[i].body_size, expected[i].body_size) << "rule " << i;
    EXPECT_EQ(actual[i].std_confidence, expected[i].std_confidence)
        << "rule " << i;
    EXPECT_EQ(actual[i].pca_confidence, expected[i].pca_confidence)
        << "rule " << i;
    EXPECT_EQ(actual[i].head_coverage, expected[i].head_coverage)
        << "rule " << i;
  }
}

// Thresholds low enough that every shape of rule, weak ones included, is
// compared.
AmieOptions OracleOptions() {
  AmieOptions options;
  options.min_support = 1;
  options.min_head_coverage = 0.0;
  options.min_confidence = 0.0;
  return options;
}

TripleStore Deduplicated(const TripleStore& store) {
  TripleList triples = store.triples();
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  return TripleStore(std::move(triples), store.num_entities(),
                     store.num_relations());
}

// A 400-entity generated graph: about 6,800 facts, 100,000 distinct path
// body pairs and a few hundred path rules.
TripleStore GeneratedTrain() {
  return Deduplicated(GenerateKg(ScaleSpec(400), 7).dataset.train_store());
}

// Mines `store` at 1, 2 and 4 threads, expects the reference's rules on
// `reference_store` field for field and in order, and returns the distinct
// path body pairs the miner kept (the kgc.amie.path_pairs increment), which
// must equal the reference's.
size_t ExpectMatchesReference(const TripleStore& store,
                              const TripleStore& reference_store,
                              const AmieOptions& options) {
  size_t reference_pairs = 0;
  const std::vector<Rule> expected =
      ReferenceMineRules(reference_store, options, &reference_pairs);
  obs::Counter& path_pairs =
      obs::Registry::Get().GetCounter(obs::kAmiePathPairs);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    AmieOptions threaded = options;
    threaded.threads = threads;
    const uint64_t before = path_pairs.value();
    ExpectSameRules(MineRules(store, threaded), expected);
    EXPECT_EQ(path_pairs.value() - before, reference_pairs);
  }
  return reference_pairs;
}

TEST(AmieReferenceTest, MatchesSerialEnumerationOnGeneratedData) {
  const TripleStore store = GeneratedTrain();
  const std::vector<Rule> rules = MineRules(store, OracleOptions());
  EXPECT_TRUE(std::any_of(rules.begin(), rules.end(), [](const Rule& r) {
    return r.kind == RuleBodyKind::kPath;
  }));
  EXPECT_GT(ExpectMatchesReference(store, store, OracleOptions()), 0u);
}

TEST(AmieReferenceTest, MatchesSerialEnumerationWhenTheBudgetCuts) {
  const TripleStore store = GeneratedTrain();
  const size_t uncapped = ExpectMatchesReference(store, store, OracleOptions());
  // A third of the pairs cuts after several blocks; 0 keeps only the first
  // mediator's pairs, each mediator its own block.
  for (size_t budget : {uncapped / 3, size_t{100}, size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "max_path_pairs=" << budget);
    AmieOptions capped = OracleOptions();
    capped.max_path_pairs = budget;
    const size_t kept = ExpectMatchesReference(store, store, capped);
    EXPECT_LT(kept, uncapped);
    EXPECT_GT(kept, budget);  // the walk stops after the mediator that overran
  }
}

TEST(AmieReferenceTest, HubMediatorsMediateNoPaths) {
  // Entity 0 mediates r0(x, 0) ^ r1(0, y) for 150 x and 150 y: 22,500
  // combinations, above the 20,000 hub cap. Entity 301 mediates one of
  // those pairs, (1, 151), and r2 holds every (x_i, y_i).
  TripleList triples;
  for (EntityId i = 0; i < 150; ++i) {
    triples.push_back({1 + i, 0, 0});
    triples.push_back({0, 1, 151 + i});
    triples.push_back({1 + i, 2, 151 + i});
  }
  triples.push_back({1, 0, 301});
  triples.push_back({301, 1, 151});
  const TripleStore store(triples, 302, 3);
  AmieOptions options = OracleOptions();
  options.min_support = 1;
  ExpectMatchesReference(store, store, options);
  const std::vector<Rule> rules = MineRules(store, options);
  const Rule* rule = FindRule(rules, RuleBodyKind::kPath, 0, 2, 1);
  ASSERT_NE(rule, nullptr);
  // Only the pair 301 mediates is a body pair; the hub's are in no body.
  EXPECT_EQ(rule->body_size, 1u);
  EXPECT_EQ(rule->support, 1u);
}

TEST(AmieReferenceTest, DuplicateTriplesMineLikeTheDeduplicatedStore) {
  const TripleStore clean = GeneratedTrain();
  TripleList triples = clean.triples();
  for (size_t i = 0; i < clean.size(); i += 5) {
    triples.push_back(clean.triples()[i]);
  }
  const TripleStore duplicated(std::move(triples), clean.num_entities(),
                               clean.num_relations());
  ASSERT_GT(duplicated.size(), clean.size());
  ExpectMatchesReference(duplicated, clean, OracleOptions());
  ExpectSameRules(MineRules(duplicated, LooseOptions()),
                  MineRules(clean, LooseOptions()));
}

// --- SimpleRuleModel -------------------------------------------------------

TEST(SimpleRuleModelTest, PredictsViaReversePartner) {
  // r0 and r1 exact reverses.
  TripleList triples;
  for (EntityId i = 0; i < 6; i += 2) {
    triples.push_back({i, 0, static_cast<EntityId>(i + 1)});
    triples.push_back({static_cast<EntityId>(i + 1), 1, i});
  }
  const TripleStore store(triples, 6, 2);
  const SimpleRuleModel model(store, RedundancyCatalog::Detect(store));

  std::vector<float> scores(6);
  // (0, r0, ?): reverse partner r1 has (1, r1, 0) -> predict 1.
  model.ScoreTails(0, 0, scores);
  EXPECT_EQ(scores[1], 1.0f);
  EXPECT_EQ(scores[2], 0.0f);
  // (?, r1, 2): reverse partner r0 has (2, r0, 3) -> predict 3.
  model.ScoreHeads(1, 2, scores);
  EXPECT_EQ(scores[3], 1.0f);
}

TEST(SimpleRuleModelTest, PredictsViaDuplicateAndSymmetric) {
  RedundancyCatalog catalog;
  catalog.duplicate_pairs.push_back({0, 1, 0.9, 0.9});
  catalog.symmetric_relations.push_back(2);
  TripleList triples = {{0, 0, 1}, {0, 1, 1}, {2, 2, 3}};
  const TripleStore store(triples, 5, 3);
  const SimpleRuleModel model(store, catalog);

  std::vector<float> scores(5);
  // Duplicate: (0, r1, ?) predicted from (0, r0, 1).
  model.ScoreTails(0, 1, scores);
  EXPECT_EQ(scores[1], 1.0f);
  // Symmetric: (3, r2, ?) predicted from (2, r2, 3).
  model.ScoreTails(3, 2, scores);
  EXPECT_EQ(scores[2], 1.0f);
  // Symmetric head side: (?, r2, 2) -> 3.
  model.ScoreHeads(2, 2, scores);
  EXPECT_EQ(scores[3], 1.0f);
}

// --- CartesianPredictor ------------------------------------------------

// The relations FindCartesianRelations detects on `store`, as the benches
// hand them to the predictor.
std::vector<RelationId> DetectedCartesianRelations(const TripleStore& store) {
  std::vector<RelationId> relations;
  for (const CartesianEvidence& e : FindCartesianRelations(store)) {
    relations.push_back(e.relation);
  }
  return relations;
}

TEST(CartesianPredictorTest, PredictsFullProduct) {
  // r0 is Cartesian {0,1} x {4,5,6} with one pair (1,6) missing from the
  // observed data (density 5/6 > 0.8).
  TripleList triples = {{0, 0, 4}, {0, 0, 5}, {0, 0, 6}, {1, 0, 4}, {1, 0, 5}};
  const TripleStore store(triples, 8, 1);
  const CartesianPredictor predictor(store, DetectedCartesianRelations(store));
  ASSERT_TRUE(predictor.IsCartesian(0));

  std::vector<float> scores(8);
  predictor.ScoreTails(1, 0, scores);
  EXPECT_GT(scores[6], 0.0f);   // the missing product member is predicted
  EXPECT_GT(scores[4], scores[6]);  // known facts score highest
  EXPECT_EQ(scores[7], 0.0f);

  predictor.ScoreHeads(0, 6, scores);
  EXPECT_GT(scores[1], 0.0f);
}

TEST(CartesianPredictorTest, NonCartesianFallsBackToAdjacency) {
  // Sparse relation: not Cartesian.
  TripleList triples = {{0, 0, 4}, {1, 0, 5}, {2, 0, 6}, {3, 0, 7}};
  const TripleStore store(triples, 8, 1);
  const CartesianPredictor predictor(store, DetectedCartesianRelations(store));
  EXPECT_FALSE(predictor.IsCartesian(0));
  std::vector<float> scores(8);
  predictor.ScoreTails(0, 0, scores);
  EXPECT_GT(scores[4], 0.0f);
  EXPECT_EQ(scores[5], 0.0f);
}

TEST(CartesianPredictorTest, ForcedRelationList) {
  TripleList triples = {{0, 0, 4}, {1, 0, 5}};
  const TripleStore store(triples, 8, 1);
  const CartesianPredictor predictor(store, std::vector<RelationId>{0});
  EXPECT_TRUE(predictor.IsCartesian(0));
  std::vector<float> scores(8);
  predictor.ScoreTails(0, 0, scores);
  EXPECT_GT(scores[5], 0.0f);  // product closure over observed S x O
}

}  // namespace
}  // namespace kgc
