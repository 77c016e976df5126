// LinkPredictor: anything that can rank candidate entities for a query.
//
// Both latent-feature models (embeddings; models/) and observed-feature
// models (rules; rules/) implement this interface, so the evaluation
// harness treats them uniformly -- exactly the comparison the paper makes.
// Rule predictors score candidates their own way; every embedding model
// scores through KgeModel's one kernel-sweep recipe (models/model.h), which
// is also what the top-K engine runs.

#ifndef KGC_KG_LINK_PREDICTOR_H_
#define KGC_KG_LINK_PREDICTOR_H_

#include <span>

#include "kg/triple.h"

namespace kgc {

class LinkPredictor {
 public:
  virtual ~LinkPredictor() = default;

  /// Display name for reports.
  virtual const char* name() const = 0;

  virtual int32_t num_entities() const = 0;

  /// Fills out[e] with the plausibility of (h, r, e) for every entity e.
  /// out.size() must equal num_entities(). Higher = more plausible.
  virtual void ScoreTails(EntityId h, RelationId r,
                          std::span<float> out) const = 0;

  /// Fills out[e] with the plausibility of (e, r, t) for every entity e.
  virtual void ScoreHeads(RelationId r, EntityId t,
                          std::span<float> out) const = 0;
};

}  // namespace kgc

#endif  // KGC_KG_LINK_PREDICTOR_H_
