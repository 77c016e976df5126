// TransE (Bordes et al., NeurIPS 2013).
//
// Entities and relations share one d-dimensional space; a relation is a
// translation: score(h, r, t) = -||h + r - t||  (L1 or L2).

#ifndef KGC_MODELS_TRANSE_H_
#define KGC_MODELS_TRANSE_H_

#include "models/model.h"

namespace kgc {

class TransE final : public KgeModel {
 public:
  TransE(int32_t num_entities, int32_t num_relations,
         const ModelHyperParams& params);

  double Score(EntityId h, RelationId r, EntityId t) const override;
  void ApplyGradient(const Triple& triple, float d_loss_d_score,
                     float lr) override;
  void DescribeSweep(bool tails, RelationId r,
                     SweepSpec* spec) const override;
  void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                       std::span<float> q) const override;
  void OnEpochBegin(int epoch) override;

  void Serialize(BinaryWriter& writer) const override;
  Status Deserialize(BinaryReader& reader) override;

  const EmbeddingTable& entities() const { return entities_; }
  const EmbeddingTable& relations() const { return relations_; }

 private:
  EmbeddingTable entities_;
  EmbeddingTable relations_;
};

}  // namespace kgc

#endif  // KGC_MODELS_TRANSE_H_
