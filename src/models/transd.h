// TransD (Ji et al., ACL 2015).
//
// Improves TransR by building an entity-relation specific projection from two
// vectors instead of a full matrix: M_rh = r_p h_p^T + I, so
//   h_perp = h + (h_p . h) r_p,   t_perp = t + (t_p . t) r_p,
//   score(h, r, t) = -||h_perp + r - t_perp||.

#ifndef KGC_MODELS_TRANSD_H_
#define KGC_MODELS_TRANSD_H_

#include "models/model.h"

namespace kgc {

class TransD final : public KgeModel {
 public:
  TransD(int32_t num_entities, int32_t num_relations,
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

 private:
  EmbeddingTable entities_;
  EmbeddingTable entity_proj_;    // h_p
  EmbeddingTable relations_;
  EmbeddingTable relation_proj_;  // r_p
};

}  // namespace kgc

#endif  // KGC_MODELS_TRANSD_H_
