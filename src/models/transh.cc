#include "models/transh.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

TransH::TransH(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kTransH, num_entities, num_relations, params),
      entities_(num_entities, params.dim),
      translations_(num_relations, params.dim),
      normals_(num_relations, params.dim) {
  Rng rng(params.seed);
  const double bound = 6.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitUniform(rng, bound);
  translations_.InitUniform(rng, bound);
  normals_.InitUniform(rng, bound);
  entities_.NormalizeRowsL2();
  translations_.NormalizeRowsL2();
  normals_.NormalizeRowsL2();
}

void TransH::Project(std::span<const float> e, std::span<const float> w,
                     std::span<float> out) const {
  const double we = Dot(w, e);
  for (size_t j = 0; j < e.size(); ++j) {
    out[j] = e[j] - static_cast<float>(we) * w[j];
  }
}

// Both sweep directions reduce to the same offset-row kernel: the distance
// between a fixed query q and the projected entity e - (w.e) w is
// |q + (w.e) w - e| element-wise, so coef[i] = w.e_i and coef_scale = +1.

double TransH::Score(EntityId h, RelationId r, EntityId t) const {
  const auto wv = normals_.Row(r);
  const auto dv = translations_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  auto q = vec::GetScratch(dim, 0);
  Project(entities_.Row(h), wv, q);
  for (size_t j = 0; j < dim; ++j) q[j] += dv[j];
  const auto& ops = vec::Ops();
  float coef = 0.0f;
  ops.dot_rows(wv.data(), entities_.Row(t).data(), 1, dim, dim, &coef);
  float dist = 0.0f;
  const auto sweep =
      params_.l1_distance ? ops.l1_offset_rows : ops.l2_offset_rows;
  sweep(q.data(), wv.data(), &coef, 1.0f, entities_.Row(t).data(), 1, dim,
        dim, &dist);
  return -static_cast<double>(dist);
}

void TransH::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const int32_t dim = params_.dim;
  const auto hv = entities_.Row(triple.head);
  const auto tv = entities_.Row(triple.tail);
  const auto dv = translations_.Row(triple.relation);
  const auto wv = normals_.Row(triple.relation);
  const double wh = Dot(wv, hv);
  const double wt = Dot(wv, tv);

  // diff = h - (w.h)w + d - t + (w.t)w ; score = -dist(diff).
  auto diff = vec::GetScratch(static_cast<size_t>(dim), 0);
  double norm = 0.0;
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    diff[k] = static_cast<float>((hv[k] - wh * wv[k]) + dv[k] -
                                 (tv[k] - wt * wv[k]));
    norm += static_cast<double>(diff[k]) * diff[k];
  }
  norm = std::sqrt(norm);
  if (!params_.l1_distance && norm < 1e-12) return;

  // g[j] = dLoss/d diff_j.
  auto g = vec::GetScratch(static_cast<size_t>(dim), 1);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    const double d_score_d_diff =
        params_.l1_distance
            ? -(diff[k] > 0 ? 1.0 : (diff[k] < 0 ? -1.0 : 0.0))
            : -diff[k] / norm;
    g[k] = d_loss_d_score * static_cast<float>(d_score_d_diff);
  }

  const double wg = vec::Dot(wv.data(), g.data(), g.size());
  const double wu = wt - wh;
  // dLoss/dh = g - (w.g) w; dLoss/dt is its negation; dLoss/dd = g.
  auto gh = vec::GetScratch(static_cast<size_t>(dim), 2);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    gh[k] = g[k] - static_cast<float>(wg) * wv[k];
  }
  entities_.UpdateRow(triple.head, gh, lr);
  entities_.UpdateRow(triple.tail, gh, lr, -1.0f);
  translations_.UpdateRow(triple.relation, g, lr);
  // dLoss/dw_k = (t-h)_k (w.g) + (w.(t-h)) g_k, read from the entity rows
  // after their updates above (matching the historical update order).
  auto gw = vec::GetScratch(static_cast<size_t>(dim), 3);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    gw[k] = static_cast<float>((tv[k] - hv[k]) * wg + wu * g[k]);
  }
  normals_.UpdateRow(triple.relation, gw, lr);
  entities_.NormalizeRowL2(triple.head);
  entities_.NormalizeRowL2(triple.tail);
  normals_.NormalizeRowL2(triple.relation);
}

void TransH::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  const auto wv = normals_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  const size_t n = static_cast<size_t>(num_entities_);
  auto coef = vec::GetScratch(n, 1);
  vec::Ops().dot_rows(wv.data(), entities_.raw(), n, dim, dim, coef.data());
  spec->kind = params_.l1_distance ? SweepKind::kL1Offset : SweepKind::kL2Offset;
  spec->rows = entities_.raw();
  spec->num_rows = n;
  spec->stride = dim;
  spec->dim = dim;
  spec->query_len = dim;
  spec->v = wv.data();
  spec->coef = coef.data();
  spec->coef_scale = 1.0f;
  spec->negate = true;
}

void TransH::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  const auto wv = normals_.Row(r);
  const auto dv = translations_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  Project(entities_.Row(anchor), wv, q);
  if (tails) {
    for (size_t j = 0; j < dim; ++j) q[j] += dv[j];
  } else {
    for (size_t j = 0; j < dim; ++j) q[j] -= dv[j];
  }
}

void TransH::OnEpochBegin(int epoch) {
  (void)epoch;
  entities_.NormalizeRowsL2();
  normals_.NormalizeRowsL2();
}

void TransH::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  translations_.Serialize(writer);
  normals_.Serialize(writer);
}

Status TransH::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(translations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(normals_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
