// AMIE-style rule mining (Galarraga et al., WWW 2013) and rule-based link
// prediction.
//
// The miner searches closed Horn rules of the three shapes in rule.h over a
// training store, computing support, standard confidence, PCA confidence and
// head coverage. Prediction follows the paper's protocol (§5.2): for a query
// all rules with the query relation in the head are instantiated; candidate
// entities are ranked by the maximum confidence of a generating rule, ties
// broken by the number of distinct rules that generate the candidate.

#ifndef KGC_RULES_AMIE_H_
#define KGC_RULES_AMIE_H_

#include <memory>
#include <vector>

#include "kg/link_predictor.h"
#include "kg/triple_store.h"
#include "rules/rule.h"

namespace kgc {

struct AmieOptions {
  size_t min_support = 5;
  double min_head_coverage = 0.01;
  double min_confidence = 0.05;
  /// One global budget on the distinct 2-hop body pairs over all path
  /// bodies, to bound mining time. Mediator entities are walked in
  /// ascending order, and the walk stops before the first mediator at which
  /// more than this many pairs are counted, so the kept pairs are those
  /// whose first (smallest) mediator lies below that cut.
  size_t max_path_pairs = 2'000'000;
  /// Rank candidates by PCA confidence (true, AMIE+'s default) or standard.
  bool use_pca_confidence = true;
  /// Worker threads for path enumeration, candidate generation and
  /// support/confidence evaluation (0 = KGC_THREADS / hardware default; see
  /// util/parallel.h). The mined rule list is bit-identical for any value.
  int threads = 0;
};

/// Mines rules from `train`, read as a set of facts (a duplicated triple
/// counts once). Rules come strongest first: by confidence and support
/// descending, then by (kind, body1, body2, head) ascending.
std::vector<Rule> MineRules(const TripleStore& train,
                            const AmieOptions& options = {});

/// Observed-feature link predictor backed by mined rules.
class RulePredictor final : public LinkPredictor {
 public:
  /// `train` must outlive the predictor.
  RulePredictor(std::vector<Rule> rules, const TripleStore& train,
                const AmieOptions& options = {});

  const char* name() const override { return "AMIE"; }
  int32_t num_entities() const override { return train_.num_entities(); }
  void ScoreTails(EntityId h, RelationId r, std::span<float> out) const override;
  void ScoreHeads(RelationId r, EntityId t, std::span<float> out) const override;

  const std::vector<Rule>& rules() const { return rules_; }

  /// Rules whose head is `r`, strongest confidence first.
  const std::vector<const Rule*>& RulesForHead(RelationId r) const;

 private:
  double Confidence(const Rule& rule) const {
    return options_.use_pca_confidence ? rule.pca_confidence
                                       : rule.std_confidence;
  }

  std::vector<Rule> rules_;
  const TripleStore& train_;
  AmieOptions options_;
  std::vector<std::vector<const Rule*>> by_head_;
};

}  // namespace kgc

#endif  // KGC_RULES_AMIE_H_
