#include "models/transd.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

TransD::TransD(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kTransD, num_entities, num_relations, params),
      entities_(num_entities, params.dim),
      entity_proj_(num_entities, params.dim),
      relations_(num_relations, params.dim),
      relation_proj_(num_relations, params.dim) {
  Rng rng(params.seed);
  const double bound = 6.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitUniform(rng, bound);
  relations_.InitUniform(rng, bound);
  entities_.NormalizeRowsL2();
  relations_.NormalizeRowsL2();
  // Projection vectors start near zero: M_rh ~ I, i.e. the TransE solution.
  entity_proj_.InitUniform(rng, 0.1);
  relation_proj_.InitUniform(rng, 0.1);
}

// Both sweep directions fit the offset-row kernel with v = r_p,
// coef[i] = (e_p . e) and coef_scale = -1: the distance per candidate is
// |q - e - (e_p.e) r_p| element-wise (heads negate the difference, which
// leaves both L1 and L2 unchanged).

double TransD::Score(EntityId h, RelationId r, EntityId t) const {
  const auto hv = entities_.Row(h);
  const auto hp = entity_proj_.Row(h);
  const auto rv = relations_.Row(r);
  const auto rp = relation_proj_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  const double ph = Dot(hp, hv);
  auto q = vec::GetScratch(dim, 0);
  for (size_t j = 0; j < dim; ++j) {
    q[j] = static_cast<float>(hv[j] + ph * rp[j] + rv[j]);
  }
  const auto& ops = vec::Ops();
  float coef = 0.0f;
  ops.rowwise_dot(entity_proj_.Row(t).data(), dim, entities_.Row(t).data(),
                  dim, 1, dim, &coef);
  float dist = 0.0f;
  const auto sweep =
      params_.l1_distance ? ops.l1_offset_rows : ops.l2_offset_rows;
  sweep(q.data(), rp.data(), &coef, -1.0f, entities_.Row(t).data(), 1, dim,
        dim, &dist);
  return -static_cast<double>(dist);
}

void TransD::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const int32_t dim = params_.dim;
  const auto hv = entities_.Row(triple.head);
  const auto tv = entities_.Row(triple.tail);
  const auto hp = entity_proj_.Row(triple.head);
  const auto tp = entity_proj_.Row(triple.tail);
  const auto rv = relations_.Row(triple.relation);
  const auto rp = relation_proj_.Row(triple.relation);
  const double ph = Dot(hp, hv);
  const double pt = Dot(tp, tv);

  auto diff = vec::GetScratch(static_cast<size_t>(dim), 0);
  double norm = 0.0;
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    diff[k] = static_cast<float>((hv[k] + ph * rp[k]) + rv[k] -
                                 (tv[k] + pt * rp[k]));
    norm += static_cast<double>(diff[k]) * diff[k];
  }
  norm = std::sqrt(norm);
  if (!params_.l1_distance && norm < 1e-12) return;

  auto g = vec::GetScratch(static_cast<size_t>(dim), 1);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    const double d_score_d_diff =
        params_.l1_distance
            ? -(diff[k] > 0 ? 1.0 : (diff[k] < 0 ? -1.0 : 0.0))
            : -diff[k] / norm;
    g[k] = d_loss_d_score * static_cast<float>(d_score_d_diff);
  }

  const double rg = vec::Dot(rp.data(), g.data(), g.size());  // (r_p . g)
  // dLoss/dh = g + (r_p.g) h_p ; dLoss/dt is the mirrored negation.
  auto ge = vec::GetScratch(static_cast<size_t>(dim), 2);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    ge[k] = g[k] + static_cast<float>(rg) * hp[k];
  }
  entities_.UpdateRow(triple.head, ge, lr);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    ge[k] = g[k] + static_cast<float>(rg) * tp[k];
  }
  entities_.UpdateRow(triple.tail, ge, lr, -1.0f);
  // dLoss/dh_p = (r_p.g) h ; dLoss/dt_p = -(r_p.g) t — read from the
  // entity rows after their updates (the historical update order).
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    ge[k] = static_cast<float>(rg) * hv[k];
  }
  entity_proj_.UpdateRow(triple.head, ge, lr);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    ge[k] = static_cast<float>(rg) * tv[k];
  }
  entity_proj_.UpdateRow(triple.tail, ge, lr, -1.0f);
  // dLoss/dr = g ; dLoss/dr_p = ((h_p.h) - (t_p.t)) g.
  relations_.UpdateRow(triple.relation, g, lr);
  relation_proj_.UpdateRow(triple.relation, g, lr,
                           static_cast<float>(ph - pt));
  entities_.NormalizeRowL2(triple.head);
  entities_.NormalizeRowL2(triple.tail);
}

void TransD::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  const size_t dim = static_cast<size_t>(params_.dim);
  const size_t n = static_cast<size_t>(num_entities_);
  auto coef = vec::GetScratch(n, 1);
  vec::Ops().rowwise_dot(entity_proj_.raw(), dim, entities_.raw(), dim, n,
                         dim, coef.data());
  spec->kind = params_.l1_distance ? SweepKind::kL1Offset : SweepKind::kL2Offset;
  spec->rows = entities_.raw();
  spec->num_rows = n;
  spec->stride = dim;
  spec->dim = dim;
  spec->query_len = dim;
  spec->v = relation_proj_.Row(r).data();
  spec->coef = coef.data();
  spec->coef_scale = -1.0f;
  spec->negate = true;
}

void TransD::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  const auto av = entities_.Row(anchor);
  const auto ap = entity_proj_.Row(anchor);
  const auto rv = relations_.Row(r);
  const auto rp = relation_proj_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  const double pa = Dot(ap, av);
  if (tails) {
    for (size_t j = 0; j < dim; ++j) {
      q[j] = static_cast<float>(av[j] + pa * rp[j] + rv[j]);
    }
  } else {
    for (size_t j = 0; j < dim; ++j) {
      q[j] = static_cast<float>(av[j] + pa * rp[j] - rv[j]);
    }
  }
}

void TransD::OnEpochBegin(int epoch) {
  (void)epoch;
  entities_.NormalizeRowsL2();
}

void TransD::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  entity_proj_.Serialize(writer);
  relations_.Serialize(writer);
  relation_proj_.Serialize(writer);
}

Status TransD::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(entity_proj_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relation_proj_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
