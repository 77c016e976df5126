// RotatE (Sun et al., ICLR 2019).
//
// Entities are complex vectors; each relation is an element-wise rotation
// r_j = e^{i theta_j} (modulus 1 by construction):
//   score(h, r, t) = -|| h o r - t ||,
// the norm being the sum of complex element moduli. Rotations compose and
// invert cleanly, letting RotatE represent symmetric, anti-symmetric,
// inverse and composed relations -- which is exactly why it thrives on
// reverse-heavy benchmarks.

#ifndef KGC_MODELS_ROTATE_H_
#define KGC_MODELS_ROTATE_H_

#include "models/model.h"

namespace kgc {

class RotatE final : public KgeModel {
 public:
  RotatE(int32_t num_entities, int32_t num_relations,
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
  EmbeddingTable entities_;  // [re_0..re_{d-1}, im_0..im_{d-1}]
  EmbeddingTable phases_;    // theta per complex dimension
};

}  // namespace kgc

#endif  // KGC_MODELS_ROTATE_H_
