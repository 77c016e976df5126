// TransR (Lin et al., AAAI 2015).
//
// Entities live in R^d, relations in R^k; each relation owns a projection
// matrix M_r in R^{k x d}: score(h, r, t) = -||M_r h + r - M_r t||.
// This build uses k = d to keep parameter counts comparable.

#ifndef KGC_MODELS_TRANSR_H_
#define KGC_MODELS_TRANSR_H_

#include <vector>

#include "models/model.h"

namespace kgc {

class TransR final : public KgeModel {
 public:
  TransR(int32_t num_entities, int32_t num_relations,
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
  // out = M_r e.
  void ProjectEntity(RelationId r, EntityId e, std::span<float> out) const;

  // Evaluation-time cache of all projected entities for one relation; the
  // ranker visits triples grouped by relation, so hits dominate. Invalidated
  // by any parameter update (version counter). The cache lives in
  // thread-local storage (keyed by owning model) so concurrent ranking
  // shards — each of which walks its own contiguous run of relation groups —
  // amortize independently without racing on shared state.
  struct ProjectionCache {
    uint64_t owner = 0;  // instance_id_ of the model that filled the cache
    RelationId relation = -1;
    uint64_t version = 0;
    std::vector<float> projected;  // num_entities x dim
  };
  const std::vector<float>& ProjectedEntities(RelationId r) const;

  EmbeddingTable entities_;
  EmbeddingTable relations_;
  EmbeddingTable matrices_;  // one d*d row-major matrix per relation
  uint64_t version_ = 1;
  // Process-unique id: keys the thread-local projection caches so a model
  // allocated at a recycled address can never be served another's entries.
  const uint64_t instance_id_;
};

}  // namespace kgc

#endif  // KGC_MODELS_TRANSR_H_
