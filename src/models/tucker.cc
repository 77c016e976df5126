#include "models/tucker.h"

#include <algorithm>
#include <cmath>

#include "util/vecmath.h"

namespace kgc {

TuckER::TuckER(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kTuckER, num_entities, num_relations, params),
      dim_e_(params.dim),
      dim_r_(params.dim2),
      entities_(num_entities, params.dim),
      relations_(num_relations, params.dim2),
      core_(1, params.dim * params.dim2 * params.dim) {
  KGC_CHECK_GT(dim_r_, 0);
  if (params.adagrad) {
    // The core tensor stays on plain SGD: its gradient step is applied with
    // direct array arithmetic in the throughput-critical inner loop.
    entities_.EnableAdaGrad();
    relations_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  const double stddev_e = 1.0 / std::sqrt(static_cast<double>(dim_e_));
  const double stddev_r = 1.0 / std::sqrt(static_cast<double>(dim_r_));
  entities_.InitNormal(rng, stddev_e);
  relations_.InitNormal(rng, stddev_r);
  core_.InitNormal(rng, 0.5);
}

void TuckER::ContractHeadRelation(std::span<const float> h,
                                  std::span<const float> r,
                                  std::span<float> u) const {
  const size_t de = static_cast<size_t>(dim_e_);
  std::fill_n(u.data(), de, 0.0f);
  // One pass over the core: u += (h_a r_b) W_ab for every (a, b) in order.
  vec::Ops().outer_axpy_rows(h.data(), de, r.data(),
                             static_cast<size_t>(dim_r_), core_.raw(), de,
                             u.data());
}

void TuckER::ContractRelationTail(std::span<const float> r,
                                  std::span<const float> t,
                                  std::span<float> v) const {
  const size_t de = static_cast<size_t>(dim_e_);
  const size_t dr = static_cast<size_t>(dim_r_);
  // The (a, b) rows of W are contiguous: one dot_rows sweep gives
  // inner_ab = sum_c W_abc t_c, then v_a = r . inner_a.
  const auto& ops = vec::Ops();
  auto inner = vec::GetScratch(de * dr, 1);
  ops.dot_rows(t.data(), core_.raw(), de * dr, de, de, inner.data());
  for (size_t a = 0; a < de; ++a) {
    v[a] = static_cast<float>(ops.dot(r.data(), inner.data() + a * dr, dr));
  }
}

double TuckER::Score(EntityId h, RelationId r, EntityId t) const {
  auto u = vec::GetScratch(static_cast<size_t>(dim_e_), 0);
  ContractHeadRelation(entities_.Row(h), relations_.Row(r), u);
  const size_t de = static_cast<size_t>(dim_e_);
  float score = 0.0f;
  vec::Ops().dot_rows(u.data(), entities_.Row(t).data(), 1, de, de, &score);
  return static_cast<double>(score);
}

void TuckER::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const auto hv = entities_.Row(triple.head);
  const auto rv = relations_.Row(triple.relation);
  const auto tv = entities_.Row(triple.tail);
  const float g = d_loss_d_score;
  const float decay = static_cast<float>(params_.l2_reg);
  const size_t de = static_cast<size_t>(dim_e_);
  const size_t dr = static_cast<size_t>(dim_r_);

  // Gradients need the original values; compute all contractions first.
  // One fused pass over W per direction keeps this the throughput-critical
  // inner loop of TuckER training tight:
  //   inner_ab = sum_c W_abc t_c   ->  v_a = sum_b r_b inner_ab,
  //                                    q_b = sum_a h_a inner_ab,
  // and the core gradient W_abc -= lr g h_a r_b t_c is one plain-SGD kernel
  // pass (the core never uses AdaGrad).
  auto u = vec::GetScratch(de, 0);  // dScore/dt
  auto v = vec::GetScratch(de, 2);  // dScore/dh
  auto q = vec::GetScratch(dr, 3);  // dScore/dr
  ContractHeadRelation(hv, rv, u);
  {
    const auto& ops = vec::Ops();
    auto inner = vec::GetScratch(de * dr, 4);
    ops.dot_rows(tv.data(), core_.raw(), de * dr, de, de, inner.data());
    std::fill_n(q.data(), dr, 0.0f);
    for (size_t a = 0; a < de; ++a) {
      const float* inner_a = inner.data() + a * dr;
      v[a] = static_cast<float>(ops.dot(rv.data(), inner_a, dr));
      for (size_t b = 0; b < dr; ++b) q[b] += hv[a] * inner_a[b];
    }
  }

  // Core gradient: dScore/dW_abc = h_a r_b t_c, one pass over the core.
  vec::Ops().outer_update_rows(hv.data(), de, rv.data(), dr, lr * g,
                               tv.data(), core_.mutable_data().data(), de);
  // Weight-decayed steps g * dScore + decay * row. The tail step reads the
  // (possibly just-updated) head row alias.
  entities_.UpdateDense(triple.head, {&g, 1}, v, decay, lr);
  entities_.UpdateDense(triple.tail, {&g, 1}, u, decay, lr);
  relations_.UpdateDense(triple.relation, {&g, 1}, q, decay, lr);
}

void TuckER::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(dim_e_);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
}

void TuckER::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  if (tails) {
    ContractHeadRelation(entities_.Row(anchor), relations_.Row(r), q);
  } else {
    // ContractRelationTail scratches slot 1 internally; q must not alias it.
    ContractRelationTail(relations_.Row(r), entities_.Row(anchor), q);
  }
}

void TuckER::Serialize(BinaryWriter& writer) const {
  writer.WriteI32(dim_e_);
  writer.WriteI32(dim_r_);
  entities_.Serialize(writer);
  relations_.Serialize(writer);
  core_.Serialize(writer);
}

Status TuckER::Deserialize(BinaryReader& reader) {
  auto de = reader.ReadI32();
  if (!de.ok()) return de.status();
  auto dr = reader.ReadI32();
  if (!dr.ok()) return dr.status();
  dim_e_ = *de;
  dim_r_ = *dr;
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(core_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
