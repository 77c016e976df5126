// RESCAL (Nickel et al., ICML 2011).
//
// Collective matrix factorization: each relation is a full interaction
// matrix W_r in R^{d x d}: score(h, r, t) = h^T W_r t.

#ifndef KGC_MODELS_RESCAL_H_
#define KGC_MODELS_RESCAL_H_

#include "models/model.h"

namespace kgc {

class Rescal final : public KgeModel {
 public:
  Rescal(int32_t num_entities, int32_t num_relations,
         const ModelHyperParams& params);

  double Score(EntityId h, RelationId r, EntityId t) const override;
  void ApplyGradient(const Triple& triple, float d_loss_d_score,
                     float lr) override;
  void DescribeSweep(bool tails, RelationId r,
                     SweepSpec* spec) const override;
  void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                       std::span<float> q) const override;

  void Serialize(BinaryWriter& writer) const override;
  Status Deserialize(BinaryReader& reader) override;

 private:
  EmbeddingTable entities_;
  EmbeddingTable matrices_;  // one d*d row-major W_r per relation
};

}  // namespace kgc

#endif  // KGC_MODELS_RESCAL_H_
