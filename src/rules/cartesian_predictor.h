// Cartesian-product-property predictor (paper §4.3(2), Table 3).
//
// A relation whose observed subject-object pairs are dense in S_r x O_r is
// declared a Cartesian product relation; the predictor then scores every
// (h in S_r, t in O_r) as true. The paper shows this trivial method beats
// TransE on such relations -- especially when judged against the full
// Freebase snapshot (here: the synthetic world graph).

#ifndef KGC_RULES_CARTESIAN_PREDICTOR_H_
#define KGC_RULES_CARTESIAN_PREDICTOR_H_

#include <vector>

#include "kg/link_predictor.h"
#include "kg/triple_store.h"

namespace kgc {

class CartesianPredictor final : public LinkPredictor {
 public:
  /// Treats `cartesian_relations` as Cartesian on `train` (which must
  /// outlive the predictor). The relations usually come from
  /// FindCartesianRelations (redundancy/detectors.h), often run on a larger
  /// store such as the whole dataset or the world graph.
  CartesianPredictor(const TripleStore& train,
                     std::vector<RelationId> cartesian_relations);

  const char* name() const override { return "CartesianRule"; }
  int32_t num_entities() const override { return train_.num_entities(); }
  void ScoreTails(EntityId h, RelationId r, std::span<float> out) const override;
  void ScoreHeads(RelationId r, EntityId t, std::span<float> out) const override;

  bool IsCartesian(RelationId r) const {
    return cartesian_[static_cast<size_t>(r)];
  }

 private:
  const TripleStore& train_;
  std::vector<bool> cartesian_;
};

}  // namespace kgc

#endif  // KGC_RULES_CARTESIAN_PREDICTOR_H_
