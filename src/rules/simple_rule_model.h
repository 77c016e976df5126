// The paper's "Simple Model" (§4.2.1, Table 13).
//
// A deliberately trivial predictor: find relation pairs whose subject-object
// pair sets intersect above 80% (reverse or duplicate pairs, plus symmetric
// relations), derive rules of the form (h, r1, t) => (t, r2, h) /
// (h, r1, t) => (h, r2, t), and answer queries purely by rule lookup in the
// training set. On leaky benchmarks it matches or beats every embedding
// model; on cleaned benchmarks it collapses -- the paper's headline point.

#ifndef KGC_RULES_SIMPLE_RULE_MODEL_H_
#define KGC_RULES_SIMPLE_RULE_MODEL_H_

#include "kg/link_predictor.h"
#include "kg/triple_store.h"
#include "redundancy/leakage.h"

namespace kgc {

class SimpleRuleModel final : public LinkPredictor {
 public:
  /// Answers queries on `train` (which must outlive the model) with the
  /// rules of `catalog`: usually RedundancyCatalog::Detect on the whole
  /// dataset, or the generator's oracle catalog.
  SimpleRuleModel(const TripleStore& train, RedundancyCatalog catalog);

  const char* name() const override { return "SimpleModel"; }
  int32_t num_entities() const override { return train_.num_entities(); }
  void ScoreTails(EntityId h, RelationId r, std::span<float> out) const override;
  void ScoreHeads(RelationId r, EntityId t, std::span<float> out) const override;

  const RedundancyCatalog& catalog() const { return catalog_; }

 private:
  const TripleStore& train_;
  RedundancyCatalog catalog_;
  // Partner lookup tables, indexed by relation.
  std::vector<std::vector<RelationId>> reverse_partners_;
  std::vector<std::vector<RelationId>> duplicate_partners_;
  std::vector<bool> symmetric_;
};

}  // namespace kgc

#endif  // KGC_RULES_SIMPLE_RULE_MODEL_H_
