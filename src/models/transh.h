// TransH (Wang et al., AAAI 2014).
//
// Each relation carries a hyperplane with unit normal w_r and a translation
// d_r within the plane: score(h, r, t) = -||h_perp + d_r - t_perp|| with
// e_perp = e - (w_r . e) w_r. The projection lets one entity play different
// roles in different relations, addressing TransE's 1-to-n limitations.

#ifndef KGC_MODELS_TRANSH_H_
#define KGC_MODELS_TRANSH_H_

#include "models/model.h"

namespace kgc {

class TransH final : public KgeModel {
 public:
  TransH(int32_t num_entities, int32_t num_relations,
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
  // Projects `e` onto relation r's hyperplane into `out`.
  void Project(std::span<const float> e, std::span<const float> w,
               std::span<float> out) const;

  EmbeddingTable entities_;
  EmbeddingTable translations_;  // d_r
  EmbeddingTable normals_;       // w_r, kept unit-norm
};

}  // namespace kgc

#endif  // KGC_MODELS_TRANSH_H_
