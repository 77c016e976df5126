#include "models/distmult.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

DistMult::DistMult(int32_t num_entities, int32_t num_relations,
                   const ModelHyperParams& params)
    : KgeModel(ModelType::kDistMult, num_entities, num_relations, params),
      entities_(num_entities, params.dim),
      relations_(num_relations, params.dim) {
  if (params.adagrad) {
    entities_.EnableAdaGrad();
    relations_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  const double stddev = 1.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitNormal(rng, stddev);
  relations_.InitNormal(rng, stddev);
}

double DistMult::Score(EntityId h, RelationId r, EntityId t) const {
  // All-double triple product: rounding the h*r query to float (as the
  // sweeps do) would break the model's exact head/tail symmetry.
  const auto hv = entities_.Row(h);
  const auto rv = relations_.Row(r);
  const auto tv = entities_.Row(t);
  double sum = 0.0;
  for (int32_t j = 0; j < params_.dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    sum += static_cast<double>(hv[k]) * rv[k] * tv[k];
  }
  return sum;
}

void DistMult::ApplyGradient(const Triple& triple, float d_loss_d_score,
                             float lr) {
  const auto hv = entities_.Row(triple.head);
  const auto rv = relations_.Row(triple.relation);
  const auto tv = entities_.Row(triple.tail);
  const float decay = static_cast<float>(params_.l2_reg);
  const size_t dim = static_cast<size_t>(params_.dim);
  auto gh = vec::GetScratch(dim, 0);
  auto gr = vec::GetScratch(dim, 1);
  auto gt = vec::GetScratch(dim, 2);
  for (size_t k = 0; k < dim; ++k) {
    gh[k] = d_loss_d_score * rv[k] * tv[k] + decay * hv[k];
    gr[k] = d_loss_d_score * hv[k] * tv[k] + decay * rv[k];
    gt[k] = d_loss_d_score * hv[k] * rv[k] + decay * tv[k];
  }
  entities_.UpdateRow(triple.head, gh, lr);
  relations_.UpdateRow(triple.relation, gr, lr);
  entities_.UpdateRow(triple.tail, gt, lr);
}

void DistMult::DescribeSweep(bool tails, RelationId r,
                             SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(params_.dim);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
}

void DistMult::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                               std::span<float> q) const {
  (void)tails;  // the h*r and t*r queries have the same form
  const auto av = entities_.Row(anchor);
  const auto rv = relations_.Row(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  for (size_t j = 0; j < dim; ++j) q[j] = av[j] * rv[j];
}

void DistMult::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  relations_.Serialize(writer);
}

Status DistMult::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
