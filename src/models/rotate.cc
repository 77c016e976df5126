#include "models/rotate.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

RotatE::RotatE(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kRotatE, num_entities, num_relations, params),
      entities_(num_entities, 2 * params.dim),
      phases_(num_relations, params.dim) {
  Rng rng(params.seed);
  entities_.InitUniform(rng, 0.5);
  // Phases uniform over the circle.
  auto& data = phases_.mutable_data();
  for (float& value : data) {
    value = static_cast<float>(rng.UniformDouble(-M_PI, M_PI));
  }
}

double RotatE::Score(EntityId h, RelationId r, EntityId t) const {
  const auto hv = entities_.Row(h);
  const auto theta = phases_.Row(r);
  const size_t d = static_cast<size_t>(params_.dim);
  // Built exactly like the ScoreTails query so the two agree bit-exactly.
  auto q = vec::GetScratch(2 * d, 0);
  for (size_t j = 0; j < d; ++j) {
    const float c = std::cos(theta[j]);
    const float s = std::sin(theta[j]);
    q[j] = hv[j] * c - hv[d + j] * s;
    q[d + j] = hv[j] * s + hv[d + j] * c;
  }
  float dist = 0.0f;
  vec::Ops().cabs_rows(q.data(), entities_.Row(t).data(), 1, 2 * d, d, &dist);
  return -static_cast<double>(dist);
}

void RotatE::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const auto hv = entities_.Row(triple.head);
  const auto tv = entities_.Row(triple.tail);
  const auto theta = phases_.Row(triple.relation);
  const size_t d = static_cast<size_t>(params_.dim);
  const float g = d_loss_d_score;
  auto gh = vec::GetScratch(2 * d, 0);
  auto gt = vec::GetScratch(2 * d, 1);
  auto gtheta = vec::GetScratch(d, 2);
  for (size_t j = 0; j < d; ++j) {
    const double c = std::cos(theta[j]);
    const double s = std::sin(theta[j]);
    const double qx = hv[j] * c - hv[d + j] * s;  // (h o r)_re
    const double qy = hv[j] * s + hv[d + j] * c;  // (h o r)_im
    const double dx = qx - tv[j];
    const double dy = qy - tv[d + j];
    const double m = std::sqrt(dx * dx + dy * dy);
    if (m < 1e-12) {
      // Zero gradients leave the SGD update a bit-exact no-op, matching the
      // historical per-element skip.
      gh[j] = gh[d + j] = gt[j] = gt[d + j] = gtheta[j] = 0.0f;
      continue;
    }
    // score_j = -m, so dLoss/ddx = g * (-dx/m).
    const double gdx = -g * dx / m;
    const double gdy = -g * dy / m;
    // ddx/dh_re = c, ddx/dh_im = -s; ddy/dh_re = s, ddy/dh_im = c.
    gh[j] = static_cast<float>(gdx * c + gdy * s);
    gh[d + j] = static_cast<float>(-gdx * s + gdy * c);
    gt[j] = static_cast<float>(-gdx);
    gt[d + j] = static_cast<float>(-gdy);
    // ddx/dtheta = -qy ; ddy/dtheta = qx.
    gtheta[j] = static_cast<float>(gdx * -qy + gdy * qx);
  }
  entities_.UpdateRow(triple.head, gh, lr);
  entities_.UpdateRow(triple.tail, gt, lr);
  phases_.UpdateRow(triple.relation, gtheta, lr);
}

void RotatE::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  const size_t d = static_cast<size_t>(params_.dim);
  spec->kind = SweepKind::kCabs;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = 2 * d;
  spec->dim = d;  // half_dim for the cabs kernel
  spec->query_len = 2 * d;
  spec->negate = true;
}

void RotatE::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  const auto av = entities_.Row(anchor);
  const auto theta = phases_.Row(r);
  const size_t d = static_cast<size_t>(params_.dim);
  if (tails) {
    for (size_t j = 0; j < d; ++j) {
      const float c = std::cos(theta[j]);
      const float s = std::sin(theta[j]);
      q[j] = av[j] * c - av[d + j] * s;
      q[d + j] = av[j] * s + av[d + j] * c;
    }
  } else {
    // |h o r - t| = |h - t o r^{-1}| since |r_j| = 1: rotate t backwards.
    for (size_t j = 0; j < d; ++j) {
      const float c = std::cos(theta[j]);
      const float s = std::sin(theta[j]);
      q[j] = av[j] * c + av[d + j] * s;
      q[d + j] = -av[j] * s + av[d + j] * c;
    }
  }
}

void RotatE::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  phases_.Serialize(writer);
}

Status RotatE::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(phases_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
