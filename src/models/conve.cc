#include "models/conve.h"

#include <algorithm>
#include <cmath>

#include "util/vecmath.h"

namespace kgc {

ConvE::ConvE(int32_t num_entities, int32_t num_relations,
             const ModelHyperParams& params)
    : KgeModel(ModelType::kConvE, num_entities, num_relations, params),
      grid_h_(params.dim / kGridWidth),
      out_h_(2 * (params.dim / kGridWidth) - kKernel + 1),
      out_w_(kGridWidth - kKernel + 1),
      feat_size_(kFilters * out_h_ * out_w_),
      entities_(num_entities, params.dim),
      relations_(2 * num_relations, params.dim),
      kernels_(kFilters, kKernel * kKernel),
      conv_bias_(1, kFilters),
      fc_(feat_size_, params.dim),
      fc_bias_(1, params.dim),
      entity_bias_(num_entities, 1) {
  KGC_CHECK_EQ(params.dim % kGridWidth, 0);
  KGC_CHECK_GT(out_h_, 0);
  if (params.adagrad) {
    entities_.EnableAdaGrad();
    relations_.EnableAdaGrad();
    kernels_.EnableAdaGrad();
    conv_bias_.EnableAdaGrad();
    fc_.EnableAdaGrad();
    fc_bias_.EnableAdaGrad();
    entity_bias_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  const double stddev = 1.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitNormal(rng, stddev);
  relations_.InitNormal(rng, stddev);
  kernels_.InitNormal(rng, 0.2);
  fc_.InitNormal(rng, 1.0 / std::sqrt(static_cast<double>(feat_size_)));
  // Small positive conv bias keeps ReLU units alive early in training;
  // fc_bias_ and entity_bias_ start at zero.
  for (int32_t f = 0; f < kFilters; ++f) {
    conv_bias_.Row(0)[static_cast<size_t>(f)] = 0.05f;
  }
}

ConvE::Forward ConvE::RunForward(EntityId e, int32_t relation_row) const {
  const size_t dim = static_cast<size_t>(params_.dim);
  const size_t feat = static_cast<size_t>(feat_size_);
  const auto buf = vec::GetScratch(3 * dim + 2 * feat, 1);
  const Forward fwd{buf.subspan(0, 2 * dim), buf.subspan(2 * dim, feat),
                    buf.subspan(2 * dim + feat, feat),
                    buf.subspan(2 * dim + 2 * feat, dim)};
  const auto ev = entities_.Row(e);
  const auto rv = relations_.Row(relation_row);
  std::copy(ev.begin(), ev.end(), fwd.input.begin());
  std::copy(rv.begin(), rv.end(), fwd.input.begin() + dim);

  // The conv kernel takes its taps tap-major in double, one lane per
  // filter; each output sums its bias, then the taps in (ky, kx) order.
  constexpr int32_t kTaps = kKernel * kKernel;
  double bias[kFilters];
  double taps[kTaps * kFilters];
  const auto cb = conv_bias_.Row(0);
  for (int32_t f = 0; f < kFilters; ++f) {
    bias[f] = cb[static_cast<size_t>(f)];
    const auto kernel = kernels_.Row(f);
    for (int32_t tap = 0; tap < kTaps; ++tap) {
      taps[tap * kFilters + f] = kernel[static_cast<size_t>(tap)];
    }
  }
  const auto& ops = vec::Ops();
  ops.conv2d_relu(fwd.input.data(), static_cast<size_t>(2 * grid_h_),
                  kGridWidth, taps, bias, kFilters, kKernel, fwd.pre.data(),
                  fwd.feat.data());

  // The FC head is linear (see the header): z = b + sum_i feat[i] fc[i],
  // rows with a dead (zero) feature skipped.
  const auto fb = fc_bias_.Row(0);
  std::copy(fb.begin(), fb.end(), fwd.z.begin());
  const float one = 1.0f;
  ops.outer_axpy_rows(fwd.feat.data(), feat, &one, 1, fc_.raw(), dim,
                      fwd.z.data());
  return fwd;
}

double ConvE::Score(EntityId h, RelationId r, EntityId t) const {
  // The training score sums both reciprocal forms so that the gradient the
  // trainer derives from it is exactly what ApplyGradient applies (one Step
  // per form). Scoring only the forward form would leave the reciprocal
  // side without feedback and let it drift unboundedly through the shared
  // parameters.
  const size_t dim = static_cast<size_t>(params_.dim);
  const auto& ops = vec::Ops();
  float dot = 0.0f;
  ops.dot_rows(RunForward(h, r).z.data(), entities_.Row(t).data(), 1, dim,
               dim, &dot);
  double score = static_cast<double>(dot) + entity_bias_.Row(t)[0];
  ops.dot_rows(RunForward(t, num_relations_ + r).z.data(),
               entities_.Row(h).data(), 1, dim, dim, &dot);
  score += static_cast<double>(dot) + entity_bias_.Row(h)[0];
  return score;
}

void ConvE::Step(EntityId e_in, int32_t relation_row, EntityId e_out, float g,
                 float lr) {
  const Forward fwd = RunForward(e_in, relation_row);
  const size_t dim = static_cast<size_t>(params_.dim);
  const size_t feat = static_cast<size_t>(feat_size_);
  const float decay = static_cast<float>(params_.l2_reg);
  const auto buf = vec::GetScratch(3 * dim + feat, 2);
  const auto gz = buf.first(dim);
  const auto gfeat = buf.subspan(dim, feat);
  const auto ginput = buf.subspan(dim + feat, 2 * dim);

  // dLoss/dz = g * e_out (linear FC head), from the pre-update row.
  const auto out_v = entities_.Row(e_out);
  for (size_t k = 0; k < dim; ++k) gz[k] = g * out_v[k];
  // Output entity & bias (weight-decayed: the dense stack otherwise drifts
  // without batch-norm). The output row steps before the input row, which
  // is the same row for a self-loop.
  entities_.UpdateDense(e_out, {&g, 1}, fwd.z, decay, lr);
  entity_bias_.Update(e_out, 0, g, lr);

  // FC layer: z = fc^T feat + b; gfeat comes from the pre-update weights.
  fc_.UpdateDense(0, fwd.feat, gz, decay, lr, gfeat);
  fc_bias_.UpdateRow(0, gz, lr);

  // Conv layer. Positions step one after another: each reads the kernel
  // the previous position just updated.
  std::fill(ginput.begin(), ginput.end(), 0.0f);
  const size_t plane = static_cast<size_t>(out_h_ * out_w_);
  for (int32_t f = 0; f < kFilters; ++f) {
    const auto kernel = kernels_.Row(f);
    float gbias = 0.0f;
    for (int32_t oy = 0; oy < out_h_; ++oy) {
      for (int32_t ox = 0; ox < out_w_; ++ox) {
        const size_t idx = static_cast<size_t>(f) * plane +
                           static_cast<size_t>(oy * out_w_ + ox);
        if (fwd.pre[idx] <= 0) continue;
        const float gpre = gfeat[idx];
        if (gpre == 0.0f) continue;
        gbias += gpre;
        float window[kKernel * kKernel];
        for (int32_t ky = 0; ky < kKernel; ++ky) {
          for (int32_t kx = 0; kx < kKernel; ++kx) {
            const size_t tap = static_cast<size_t>(ky * kKernel + kx);
            const size_t in_idx =
                static_cast<size_t>((oy + ky) * kGridWidth + ox + kx);
            // Propagate through the pre-update kernel value.
            ginput[in_idx] += gpre * kernel[tap];
            window[tap] = fwd.input[in_idx];
          }
        }
        kernels_.UpdateRow(f, window, lr, gpre);
      }
    }
    conv_bias_.Update(0, f, gbias, lr);
  }

  // Input grid gradients flow to the input entity (top half) and the
  // relation embedding (bottom half).
  entities_.UpdateRow(e_in, ginput.first(dim), lr);
  relations_.UpdateRow(relation_row, ginput.subspan(dim), lr);
}

void ConvE::ApplyGradient(const Triple& triple, float d_loss_d_score,
                          float lr) {
  // Reciprocal training: each example trains both directions.
  Step(triple.head, triple.relation, triple.tail, d_loss_d_score, lr);
  Step(triple.tail, num_relations_ + triple.relation, triple.head,
       d_loss_d_score, lr);
}

void ConvE::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(params_.dim);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
  // entity_bias_ is an (num_entities x 1) table, i.e. one contiguous array.
  spec->bias = entity_bias_.raw();
}

void ConvE::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                            std::span<float> q) const {
  const Forward fwd = RunForward(anchor, tails ? r : num_relations_ + r);
  std::copy(fwd.z.begin(), fwd.z.end(), q.begin());
}

void ConvE::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  relations_.Serialize(writer);
  kernels_.Serialize(writer);
  conv_bias_.Serialize(writer);
  fc_.Serialize(writer);
  fc_bias_.Serialize(writer);
  entity_bias_.Serialize(writer);
}

Status ConvE::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(kernels_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(conv_bias_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(fc_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(fc_bias_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(entity_bias_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
