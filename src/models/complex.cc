#include "models/complex.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

ComplEx::ComplEx(int32_t num_entities, int32_t num_relations,
                 const ModelHyperParams& params)
    : KgeModel(ModelType::kComplEx, num_entities, num_relations, params),
      entities_(num_entities, 2 * params.dim),
      relations_(num_relations, 2 * params.dim) {
  if (params.adagrad) {
    entities_.EnableAdaGrad();
    relations_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  const double stddev = 1.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitNormal(rng, stddev);
  relations_.InitNormal(rng, stddev);
}

double ComplEx::Score(EntityId h, RelationId r, EntityId t) const {
  const auto hv = entities_.Row(h);
  const auto rv = relations_.Row(r);
  const size_t d = static_cast<size_t>(params_.dim);
  // q = h * r (complex product); Re((h r) conj(t)) = q_re.t_re + q_im.t_im.
  auto q = vec::GetScratch(2 * d, 0);
  const auto& ops = vec::Ops();
  ops.complex_hadamard(hv.data(), rv.data(), d, /*conj_a=*/false, q.data());
  float score = 0.0f;
  ops.dot_rows(q.data(), entities_.Row(t).data(), 1, 2 * d, 2 * d, &score);
  return static_cast<double>(score);
}

void ComplEx::ApplyGradient(const Triple& triple, float d_loss_d_score,
                            float lr) {
  const auto hv = entities_.Row(triple.head);
  const auto rv = relations_.Row(triple.relation);
  const auto tv = entities_.Row(triple.tail);
  const size_t d = static_cast<size_t>(params_.dim);
  const float decay = static_cast<float>(params_.l2_reg);
  const float g = d_loss_d_score;
  auto gh = vec::GetScratch(2 * d, 0);
  auto gr = vec::GetScratch(2 * d, 1);
  auto gt = vec::GetScratch(2 * d, 2);
  for (size_t j = 0; j < d; ++j) {
    const float hr = hv[j], hi = hv[d + j];
    const float rr = rv[j], ri = rv[d + j];
    const float tr = tv[j], ti = tv[d + j];
    // score_j = (hr rr - hi ri) tr + (hr ri + hi rr) ti.
    gh[j] = g * (rr * tr + ri * ti) + decay * hr;
    gh[d + j] = g * (rr * ti - ri * tr) + decay * hi;
    gr[j] = g * (hr * tr + hi * ti) + decay * rr;
    gr[d + j] = g * (hr * ti - hi * tr) + decay * ri;
    gt[j] = g * (hr * rr - hi * ri) + decay * tr;
    gt[d + j] = g * (hr * ri + hi * rr) + decay * ti;
  }
  entities_.UpdateRow(triple.head, gh, lr);
  relations_.UpdateRow(triple.relation, gr, lr);
  entities_.UpdateRow(triple.tail, gt, lr);
}

void ComplEx::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = 2 * static_cast<size_t>(params_.dim);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
}

void ComplEx::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                              std::span<float> q) const {
  const auto av = entities_.Row(anchor);
  const auto rv = relations_.Row(r);
  const size_t d = static_cast<size_t>(params_.dim);
  if (tails) {
    // q = h * r (complex product); score(e) = q_re . e_re + q_im . e_im.
    vec::Ops().complex_hadamard(av.data(), rv.data(), d, /*conj_a=*/false,
                                q.data());
  } else {
    // As a function of h: score = h_re . q_re + h_im . q_im with
    // q = conj(r) * t (Hermitian product).
    vec::Ops().complex_hadamard(rv.data(), av.data(), d, /*conj_a=*/true,
                                q.data());
  }
}

void ComplEx::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  relations_.Serialize(writer);
}

Status ComplEx::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
