#include "models/transr.h"

#include <atomic>
#include <cmath>

#include "util/vecmath.h"

namespace kgc {
namespace {

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

TransR::TransR(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kTransR, num_entities, num_relations, params),
      entities_(num_entities, params.dim),
      relations_(num_relations, params.dim),
      matrices_(num_relations, params.dim * params.dim),
      instance_id_(NextInstanceId()) {
  Rng rng(params.seed);
  const double bound = 6.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitUniform(rng, bound);
  relations_.InitUniform(rng, bound);
  entities_.NormalizeRowsL2();
  relations_.NormalizeRowsL2();
  // M_r starts near identity (the TransE solution), as in the original paper.
  for (int32_t r = 0; r < num_relations; ++r) {
    auto m = matrices_.Row(r);
    for (int32_t i = 0; i < params.dim; ++i) {
      for (int32_t j = 0; j < params.dim; ++j) {
        const double jitter = rng.UniformDouble(-0.05, 0.05);
        m[static_cast<size_t>(i * params.dim + j)] =
            static_cast<float>((i == j ? 1.0 : 0.0) + jitter);
      }
    }
  }
}

void TransR::ProjectEntity(RelationId r, EntityId e,
                           std::span<float> out) const {
  // out[i] = dot(row i of M_r, e): a matvec is a dot_rows sweep over the
  // matrix rows with the entity vector as the query.
  const auto m = matrices_.Row(r);
  const auto ev = entities_.Row(e);
  const size_t dim = static_cast<size_t>(params_.dim);
  vec::Ops().dot_rows(ev.data(), m.data(), dim, dim, dim, out.data());
}

double TransR::Score(EntityId h, RelationId r, EntityId t) const {
  const size_t dim = static_cast<size_t>(params_.dim);
  auto hp = vec::GetScratch(dim, 0);
  auto tp = vec::GetScratch(dim, 1);
  ProjectEntity(r, h, hp);
  ProjectEntity(r, t, tp);
  const auto rv = relations_.Row(r);
  auto q = vec::GetScratch(dim, 2);
  for (size_t j = 0; j < dim; ++j) q[j] = hp[j] + rv[j];
  const auto& ops = vec::Ops();
  const auto sweep = params_.l1_distance ? ops.l1_rows : ops.l2_rows;
  float dist = 0.0f;
  sweep(q.data(), tp.data(), 1, dim, dim, &dist);
  return -static_cast<double>(dist);
}

void TransR::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const int32_t dim = params_.dim;
  const size_t dsz = static_cast<size_t>(dim);
  auto hp = vec::GetScratch(dsz, 0);
  auto tp = vec::GetScratch(dsz, 1);
  ProjectEntity(triple.relation, triple.head, hp);
  ProjectEntity(triple.relation, triple.tail, tp);
  const auto rv = relations_.Row(triple.relation);
  const auto hv = entities_.Row(triple.head);
  const auto tv = entities_.Row(triple.tail);

  auto diff = vec::GetScratch(dsz, 2);
  double norm = 0.0;
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    diff[k] = hp[k] + rv[k] - tp[k];
    norm += static_cast<double>(diff[k]) * diff[k];
  }
  norm = std::sqrt(norm);
  if (!params_.l1_distance && norm < 1e-12) return;

  auto g = vec::GetScratch(dsz, 3);
  for (int32_t j = 0; j < dim; ++j) {
    const size_t k = static_cast<size_t>(j);
    const double d_score_d_diff =
        params_.l1_distance
            ? -(diff[k] > 0 ? 1.0 : (diff[k] < 0 ? -1.0 : 0.0))
            : -diff[k] / norm;
    g[k] = d_loss_d_score * static_cast<float>(d_score_d_diff);
  }

  // dLoss/dr = g; dLoss/dh = M^T g; dLoss/dt = -M^T g;
  // dLoss/dM[i][j] = g_i (h_j - t_j).
  const auto m = matrices_.Row(triple.relation);
  auto mt_g = vec::GetScratch(dsz, 4);
  for (float& x : mt_g) x = 0.0f;
  for (int32_t i = 0; i < dim; ++i) {
    const size_t row = static_cast<size_t>(i * dim);
    vec::Axpy(g[static_cast<size_t>(i)], m.data() + row, mt_g.data(), dsz);
  }
  relations_.UpdateRow(triple.relation, g, lr);
  entities_.UpdateRow(triple.head, mt_g, lr);
  entities_.UpdateRow(triple.tail, mt_g, lr, -1.0f);
  // The matrix gradient reads the entity rows after their updates above
  // (the historical update order).
  auto gm = vec::GetScratch(dsz * dsz, 5);
  for (int32_t i = 0; i < dim; ++i) {
    const size_t row = static_cast<size_t>(i * dim);
    for (int32_t j = 0; j < dim; ++j) {
      const size_t k = static_cast<size_t>(j);
      gm[row + k] = g[static_cast<size_t>(i)] * (hv[k] - tv[k]);
    }
  }
  matrices_.UpdateRow(triple.relation, gm, lr);
  entities_.NormalizeRowL2(triple.head);
  entities_.NormalizeRowL2(triple.tail);
  ++version_;
}

const std::vector<float>& TransR::ProjectedEntities(RelationId r) const {
  static thread_local ProjectionCache cache;
  if (cache.owner != instance_id_ || cache.relation != r ||
      cache.version != version_) {
    cache.owner = instance_id_;
    cache.relation = r;
    cache.version = version_;
    cache.projected.resize(static_cast<size_t>(num_entities_) *
                           static_cast<size_t>(params_.dim));
    for (EntityId e = 0; e < num_entities_; ++e) {
      std::span<float> out(cache.projected.data() +
                               static_cast<size_t>(e) *
                                   static_cast<size_t>(params_.dim),
                           static_cast<size_t>(params_.dim));
      ProjectEntity(r, e, out);
    }
  }
  return cache.projected;
}

void TransR::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  const std::vector<float>& projected = ProjectedEntities(r);
  const size_t dim = static_cast<size_t>(params_.dim);
  spec->kind = params_.l1_distance ? SweepKind::kL1 : SweepKind::kL2;
  spec->rows = projected.data();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = dim;
  spec->dim = dim;
  spec->query_len = dim;
  spec->negate = true;
}

void TransR::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  const size_t dim = static_cast<size_t>(params_.dim);
  const std::vector<float>& projected = ProjectedEntities(r);
  const auto rv = relations_.Row(r);
  const float* ap = projected.data() + static_cast<size_t>(anchor) * dim;
  if (tails) {
    for (size_t j = 0; j < dim; ++j) q[j] = ap[j] + rv[j];
  } else {
    for (size_t j = 0; j < dim; ++j) q[j] = ap[j] - rv[j];
  }
}

void TransR::OnEpochBegin(int epoch) {
  (void)epoch;
  entities_.NormalizeRowsL2();
}

void TransR::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  relations_.Serialize(writer);
  matrices_.Serialize(writer);
}

Status TransR::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(matrices_.Deserialize(reader));
  ++version_;
  return Status::Ok();
}

}  // namespace kgc
