// TuckER (Balazevic et al., EMNLP 2019).
//
// Tucker decomposition of the knowledge-graph binary tensor:
//   score(h, r, t) = W x1 h x2 r x3 t = sum_{abc} W_abc h_a r_b t_c
// with a shared core tensor W in R^{de x dr x de}, entity embeddings of
// dimension de and relation embeddings of dimension dr (params.dim2).

#ifndef KGC_MODELS_TUCKER_H_
#define KGC_MODELS_TUCKER_H_

#include <vector>

#include "models/model.h"

namespace kgc {

class TuckER final : public KgeModel {
 public:
  TuckER(int32_t num_entities, int32_t num_relations,
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
  // u_c = sum_{ab} W_abc h_a r_b.
  void ContractHeadRelation(std::span<const float> h, std::span<const float> r,
                            std::span<float> u) const;
  // v_a = sum_{bc} W_abc r_b t_c.
  void ContractRelationTail(std::span<const float> r, std::span<const float> t,
                            std::span<float> v) const;

  int32_t dim_e_;
  int32_t dim_r_;
  EmbeddingTable entities_;
  EmbeddingTable relations_;
  EmbeddingTable core_;  // single row of de*dr*de floats
};

}  // namespace kgc

#endif  // KGC_MODELS_TUCKER_H_
