// ComplEx (Trouillon et al., ICML 2016).
//
// DistMult over complex-valued embeddings:
//   score(h, r, t) = Re(<h, r, conj(t)>),
// which breaks DistMult's forced symmetry and can model anti-symmetric
// relations. Each embedding of complex dimension d is stored as 2d floats,
// reals first then imaginaries.

#ifndef KGC_MODELS_COMPLEX_H_
#define KGC_MODELS_COMPLEX_H_

#include "models/model.h"

namespace kgc {

class ComplEx final : public KgeModel {
 public:
  ComplEx(int32_t num_entities, int32_t num_relations,
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
  EmbeddingTable entities_;   // [re_0..re_{d-1}, im_0..im_{d-1}]
  EmbeddingTable relations_;
};

}  // namespace kgc

#endif  // KGC_MODELS_COMPLEX_H_
