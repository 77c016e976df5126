#include "models/model.h"

#include <array>

#include "models/complex.h"
#include "models/conve.h"
#include "models/distmult.h"
#include "models/rescal.h"
#include "models/rotate.h"
#include "models/transd.h"
#include "models/transe.h"
#include "models/transh.h"
#include "models/transr.h"
#include "models/tucker.h"
#include "util/check.h"
#include "util/vecmath.h"

namespace kgc {

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kTransE:
      return "TransE";
    case ModelType::kTransH:
      return "TransH";
    case ModelType::kTransR:
      return "TransR";
    case ModelType::kTransD:
      return "TransD";
    case ModelType::kRescal:
      return "RESCAL";
    case ModelType::kDistMult:
      return "DistMult";
    case ModelType::kComplEx:
      return "ComplEx";
    case ModelType::kRotatE:
      return "RotatE";
    case ModelType::kTuckER:
      return "TuckER";
    case ModelType::kConvE:
      return "ConvE";
  }
  return "unknown";
}

StatusOr<ModelType> ParseModelType(const std::string& name) {
  static constexpr ModelType kAll[] = {
      ModelType::kTransE, ModelType::kTransH,   ModelType::kTransR,
      ModelType::kTransD, ModelType::kRescal,   ModelType::kDistMult,
      ModelType::kComplEx, ModelType::kRotatE,  ModelType::kTuckER,
      ModelType::kConvE,
  };
  for (ModelType type : kAll) {
    if (name == ModelTypeName(type)) return type;
  }
  return Status::InvalidArgument("unknown model type: " + name);
}

double KgeModel::ScoreAndApplyGradient(const Triple& triple,
                                       float (*d_loss_d_score)(double score),
                                       float lr) {
  const double score = Score(triple.head, triple.relation, triple.tail);
  ApplyGradient(triple, d_loss_d_score(score), lr);
  return score;
}

void KgeModel::ScoreTails(EntityId h, RelationId r,
                          std::span<float> out) const {
  KGC_CHECK_EQ(static_cast<int64_t>(out.size()), num_entities_);
  PrepareSweep(/*tails=*/true, r, h).ScoreAll(out);
}

void KgeModel::ScoreHeads(RelationId r, EntityId t,
                          std::span<float> out) const {
  KGC_CHECK_EQ(static_cast<int64_t>(out.size()), num_entities_);
  PrepareSweep(/*tails=*/false, r, t).ScoreAll(out);
}

// The batch-scoring recipe: DescribeSweep, the query in scratch slot 0,
// BuildSweepQuery; then one single-query kernel over the rows, and the bias
// and the sign the description asks for.
PreparedSweep KgeModel::PrepareSweep(bool tails, RelationId r,
                                     EntityId anchor) const {
  PreparedSweep sweep;
  DescribeSweep(tails, r, &sweep.spec_);  // may fill coef in scratch slot 1
  auto q = vec::GetScratch(sweep.spec_.query_len, 0);
  BuildSweepQuery(tails, r, anchor, q);
  sweep.q_ = q.data();
  return sweep;
}

namespace {

// The kernel of `spec` over rows [first, first + n), written to out.
void RunKernel(const SweepSpec& spec, const float* q, size_t first, size_t n,
               float* out) {
  const auto& ops = vec::Ops();
  const float* rows = spec.rows + first * spec.stride;
  switch (spec.kind) {
    case SweepKind::kDot:
      ops.dot_rows(q, rows, n, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL1:
      ops.l1_rows(q, rows, n, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL2:
      ops.l2_rows(q, rows, n, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL1Offset:
      ops.l1_offset_rows(q, spec.v, spec.coef + first, spec.coef_scale, rows,
                         n, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL2Offset:
      ops.l2_offset_rows(q, spec.v, spec.coef + first, spec.coef_scale, rows,
                         n, spec.stride, spec.dim, out);
      break;
    case SweepKind::kCabs:
      ops.cabs_rows(q, rows, n, spec.stride, spec.dim, out);
      break;
  }
}

}  // namespace

void PreparedSweep::ScoreAll(std::span<float> out) const {
  const size_t n = spec_.num_rows;
  RunKernel(spec_, q_, 0, n, out.data());
  if (spec_.bias != nullptr) vec::Axpy(1.0f, spec_.bias, out.data(), n);
  if (spec_.negate) vec::Negate(out);
}

float PreparedSweep::Score(EntityId e) const {
  const size_t row = static_cast<size_t>(e);
  float score;
  RunKernel(spec_, q_, row, 1, &score);
  // Axpy's y + 1.0f * x is y + x: the product by 1 is exact.
  if (spec_.bias != nullptr) score += spec_.bias[row];
  return spec_.negate ? -score : score;
}

// The twin bounds the kernel's value s to [a - e, a + e], writing a into
// lo and e into hi; rounded outward, the float interval still holds s.
// Rounding to nearest is monotone, so fl(s + bias) lies between
// fl(lo + bias) and fl(hi + bias): the bias folds in with the very add
// ScoreAll makes, and the sign flips the interval.
bool PreparedSweep::Bounds(std::span<float> lo, std::span<float> hi) const {
  const size_t n = spec_.num_rows;
  const auto& ops = vec::Ops();
  float* approx = lo.data();
  float* err = hi.data();
  switch (spec_.kind) {
    case SweepKind::kDot:
      ops.dot_rows_bound(q_, spec_.rows, n, spec_.stride, spec_.dim, approx,
                         err);
      break;
    case SweepKind::kL1:
      ops.l1_rows_bound(q_, spec_.rows, n, spec_.stride, spec_.dim, approx,
                        err);
      break;
    case SweepKind::kL2:
      ops.l2_rows_bound(q_, spec_.rows, n, spec_.stride, spec_.dim, approx,
                        err);
      break;
    case SweepKind::kL1Offset:
      ops.l1_offset_rows_bound(q_, spec_.v, spec_.coef, spec_.coef_scale,
                               spec_.rows, n, spec_.stride, spec_.dim, approx,
                               err);
      break;
    case SweepKind::kL2Offset:
      ops.l2_offset_rows_bound(q_, spec_.v, spec_.coef, spec_.coef_scale,
                               spec_.rows, n, spec_.stride, spec_.dim, approx,
                               err);
      break;
    case SweepKind::kCabs:
      ops.cabs_rows_bound(q_, spec_.rows, n, spec_.stride, spec_.dim, approx,
                          err);
      break;
  }
  return ops.twin_interval(lo.data(), hi.data(), spec_.bias, spec_.negate,
                           n);
}

std::unique_ptr<KgeModel> CreateModel(ModelType type, int32_t num_entities,
                                      int32_t num_relations,
                                      const ModelHyperParams& params) {
  switch (type) {
    case ModelType::kTransE:
      return std::make_unique<TransE>(num_entities, num_relations, params);
    case ModelType::kTransH:
      return std::make_unique<TransH>(num_entities, num_relations, params);
    case ModelType::kTransR:
      return std::make_unique<TransR>(num_entities, num_relations, params);
    case ModelType::kTransD:
      return std::make_unique<TransD>(num_entities, num_relations, params);
    case ModelType::kRescal:
      return std::make_unique<Rescal>(num_entities, num_relations, params);
    case ModelType::kDistMult:
      return std::make_unique<DistMult>(num_entities, num_relations, params);
    case ModelType::kComplEx:
      return std::make_unique<ComplEx>(num_entities, num_relations, params);
    case ModelType::kRotatE:
      return std::make_unique<RotatE>(num_entities, num_relations, params);
    case ModelType::kTuckER:
      return std::make_unique<TuckER>(num_entities, num_relations, params);
    case ModelType::kConvE:
      return std::make_unique<ConvE>(num_entities, num_relations, params);
  }
  KGC_CHECK(false);
  return nullptr;
}

ModelHyperParams DefaultHyperParams(ModelType type) {
  ModelHyperParams params;
  switch (type) {
    case ModelType::kTransE:
      params.learning_rate = 0.05;
      params.margin = 1.0;
      break;
    case ModelType::kTransH:
      params.learning_rate = 0.05;
      params.margin = 1.0;
      break;
    case ModelType::kTransR:
      params.learning_rate = 0.02;
      params.margin = 1.0;
      break;
    case ModelType::kTransD:
      params.learning_rate = 0.05;
      params.margin = 1.0;
      break;
    case ModelType::kRescal:
      params.loss = LossKind::kLogistic;
      params.learning_rate = 0.05;
      params.l2_reg = 1e-4;
      params.adagrad = true;
      break;
    case ModelType::kDistMult:
      params.loss = LossKind::kLogistic;
      params.learning_rate = 0.08;
      params.l2_reg = 1e-3;
      break;
    case ModelType::kComplEx:
      params.loss = LossKind::kLogistic;
      params.learning_rate = 0.08;
      params.l2_reg = 1e-3;
      break;
    case ModelType::kRotatE:
      params.loss = LossKind::kMarginRanking;
      params.learning_rate = 0.05;
      params.margin = 6.0;
      break;
    case ModelType::kTuckER:
      params.loss = LossKind::kLogistic;
      params.learning_rate = 0.2;
      params.dim2 = 8;
      params.l2_reg = 1e-4;
      params.adagrad = true;
      break;
    case ModelType::kConvE:
      params.loss = LossKind::kLogistic;
      params.learning_rate = 0.03;
      params.l2_reg = 1e-3;
      params.adagrad = true;
      break;
  }
  return params;
}

std::span<const ModelType> PaperModelLineup() {
  static constexpr std::array<ModelType, 9> kLineup = {
      ModelType::kTransE,  ModelType::kTransH,  ModelType::kTransR,
      ModelType::kTransD,  ModelType::kDistMult, ModelType::kComplEx,
      ModelType::kConvE,   ModelType::kRotatE,  ModelType::kTuckER,
  };
  return kLineup;
}

std::span<const ModelType> FigureModelLineup() {
  static constexpr std::array<ModelType, 6> kLineup = {
      ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
      ModelType::kConvE,  ModelType::kRotatE,   ModelType::kTuckER,
  };
  return kLineup;
}

}  // namespace kgc
