#include "models/transe.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

TransE::TransE(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kTransE, num_entities, num_relations, params),
      entities_(num_entities, params.dim),
      relations_(num_relations, params.dim) {
  Rng rng(params.seed);
  const double bound = 6.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitUniform(rng, bound);
  relations_.InitUniform(rng, bound);
  relations_.NormalizeRowsL2();
  entities_.NormalizeRowsL2();
}

double TransE::Score(EntityId h, RelationId r, EntityId t) const {
  const auto hv = entities_.Row(h);
  const auto rv = relations_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  // Built exactly like the ScoreTails query so the two agree bit-exactly.
  auto q = vec::GetScratch(dim, 0);
  for (size_t j = 0; j < dim; ++j) q[j] = hv[j] + rv[j];
  float dist = 0.0f;
  const auto& ops = vec::Ops();
  if (params_.l1_distance) {
    ops.l1_rows(q.data(), entities_.Row(t).data(), 1, dim, dim, &dist);
  } else {
    ops.l2_rows(q.data(), entities_.Row(t).data(), 1, dim, dim, &dist);
  }
  return -static_cast<double>(dist);
}

void TransE::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const auto hv = entities_.Row(triple.head);
  const auto rv = relations_.Row(triple.relation);
  const auto tv = entities_.Row(triple.tail);

  // score = -dist(h + r - t). For L1, dScore/d diff_j = -sign(diff_j);
  // for L2, -diff_j / ||diff||.
  const int32_t dim = params_.dim;
  double norm = 0.0;
  if (!params_.l1_distance) {
    for (int32_t j = 0; j < dim; ++j) {
      const size_t k = static_cast<size_t>(j);
      const double d = hv[k] + rv[k] - tv[k];
      norm += d * d;
    }
    norm = std::sqrt(norm);
    if (norm < 1e-12) return;
  }
  auto g = vec::GetScratch(static_cast<size_t>(dim), 1);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    const double diff = hv[k] + rv[k] - tv[k];
    const double d_score_d_diff =
        params_.l1_distance ? -(diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0))
                            : -diff / norm;
    g[k] = d_loss_d_score * static_cast<float>(d_score_d_diff);
  }
  entities_.UpdateRow(triple.head, g, lr);
  relations_.UpdateRow(triple.relation, g, lr);
  entities_.UpdateRow(triple.tail, g, lr, -1.0f);
  entities_.NormalizeRowL2(triple.head);
  entities_.NormalizeRowL2(triple.tail);
}

void TransE::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = params_.l1_distance ? SweepKind::kL1 : SweepKind::kL2;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(params_.dim);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
  spec->negate = true;
}

void TransE::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  const auto av = entities_.Row(anchor);
  const auto rv = relations_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  if (tails) {
    for (size_t j = 0; j < dim; ++j) q[j] = av[j] + rv[j];
  } else {
    for (size_t j = 0; j < dim; ++j) q[j] = av[j] - rv[j];  // -dist(e-(t-r))
  }
}

void TransE::OnEpochBegin(int epoch) {
  (void)epoch;
  entities_.NormalizeRowsL2();
}

void TransE::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  relations_.Serialize(writer);
}

Status TransE::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
