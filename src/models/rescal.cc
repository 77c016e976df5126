#include "models/rescal.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

Rescal::Rescal(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kRescal, num_entities, num_relations, params),
      entities_(num_entities, params.dim),
      matrices_(num_relations, params.dim * params.dim) {
  if (params.adagrad) {
    entities_.EnableAdaGrad();
    matrices_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  entities_.InitNormal(rng, 1.0 / std::sqrt(static_cast<double>(params.dim)));
  matrices_.InitNormal(rng, 1.0 / static_cast<double>(params.dim));
}

double Rescal::Score(EntityId h, RelationId r, EntityId t) const {
  const auto hv = entities_.Row(h);
  const auto w = matrices_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  // q = h^T W exactly as in ScoreTails, then score = q . t.
  auto q = vec::GetScratch(dim, 0);
  for (size_t j = 0; j < dim; ++j) q[j] = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    vec::Axpy(hv[i], w.data() + i * dim, q.data(), dim);
  }
  float score = 0.0f;
  vec::Ops().dot_rows(q.data(), entities_.Row(t).data(), 1, dim, dim, &score);
  return static_cast<double>(score);
}

void Rescal::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const size_t dim = static_cast<size_t>(params_.dim);
  const auto hv = entities_.Row(triple.head);
  const auto tv = entities_.Row(triple.tail);
  const auto w = matrices_.Row(triple.relation);
  const auto& ops = vec::Ops();

  // Cache W t and W^T h before mutating anything.
  auto wt = vec::GetScratch(dim, 0);
  auto wth = vec::GetScratch(dim, 1);
  ops.dot_rows(tv.data(), w.data(), dim, dim, dim, wt.data());
  for (size_t j = 0; j < dim; ++j) wth[j] = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    vec::Axpy(hv[i], w.data() + i * dim, wth.data(), dim);
  }

  const float decay = static_cast<float>(params_.l2_reg);
  auto g = vec::GetScratch(dim, 2);
  for (size_t i = 0; i < dim; ++i) {
    g[i] = d_loss_d_score * wt[i] + decay * hv[i];
  }
  entities_.UpdateRow(triple.head, g, lr);
  // The tail gradient reads the (possibly just-updated) head row alias.
  for (size_t i = 0; i < dim; ++i) {
    g[i] = d_loss_d_score * wth[i] + decay * tv[i];
  }
  entities_.UpdateRow(triple.tail, g, lr);
  // Matrix gradient reads the entity rows after their updates (the
  // historical update order).
  auto gw = vec::GetScratch(dim * dim, 3);
  for (size_t i = 0; i < dim; ++i) {
    const size_t base = i * dim;
    for (size_t j = 0; j < dim; ++j) {
      gw[base + j] = d_loss_d_score * hv[i] * tv[j] + decay * w[base + j];
    }
  }
  matrices_.UpdateRow(triple.relation, gw, lr);
}

void Rescal::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(params_.dim);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
}

void Rescal::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  const size_t dim = static_cast<size_t>(params_.dim);
  const auto av = entities_.Row(anchor);
  const auto w = matrices_.Row(r);
  if (tails) {
    // q = h^T W, then score(e) = q . e.
    for (size_t j = 0; j < dim; ++j) q[j] = 0.0f;
    for (size_t i = 0; i < dim; ++i) {
      vec::Axpy(av[i], w.data() + i * dim, q.data(), dim);
    }
  } else {
    // q = W t, then score(e) = e . q.
    vec::Ops().dot_rows(av.data(), w.data(), dim, dim, dim, q.data());
  }
}

void Rescal::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  matrices_.Serialize(writer);
}

Status Rescal::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(matrices_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
