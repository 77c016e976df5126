// DistMult (Yang et al., ICLR 2015).
//
// RESCAL restricted to diagonal relation matrices:
// score(h, r, t) = <h, w_r, t> = sum_i h_i w_i t_i.
// The symmetry s(h,r,t) = s(t,r,h) is inherent (and is why DistMult can only
// model symmetric relations -- one of the observations the paper leans on).

#ifndef KGC_MODELS_DISTMULT_H_
#define KGC_MODELS_DISTMULT_H_

#include "models/model.h"

namespace kgc {

class DistMult final : public KgeModel {
 public:
  DistMult(int32_t num_entities, int32_t num_relations,
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
  EmbeddingTable relations_;
};

}  // namespace kgc

#endif  // KGC_MODELS_DISTMULT_H_
