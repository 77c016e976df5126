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
  Sweep(/*tails=*/true, r, h, out);
}

void KgeModel::ScoreHeads(RelationId r, EntityId t,
                          std::span<float> out) const {
  Sweep(/*tails=*/false, r, t, out);
}

void KgeModel::Sweep(bool tails, RelationId r, EntityId anchor,
                     std::span<float> out) const {
  KGC_CHECK_EQ(static_cast<int64_t>(out.size()), num_entities_);
  SweepSpec spec;
  DescribeSweep(tails, r, &spec);  // may fill coef in scratch slot 1
  auto q = vec::GetScratch(spec.query_len, 0);
  BuildSweepQuery(tails, r, anchor, q);
  const auto& ops = vec::Ops();
  const size_t n = spec.num_rows;
  switch (spec.kind) {
    case SweepKind::kDot:
      ops.dot_rows(q.data(), spec.rows, n, spec.stride, spec.dim, out.data());
      break;
    case SweepKind::kL1:
      ops.l1_rows(q.data(), spec.rows, n, spec.stride, spec.dim, out.data());
      break;
    case SweepKind::kL2:
      ops.l2_rows(q.data(), spec.rows, n, spec.stride, spec.dim, out.data());
      break;
    case SweepKind::kL1Offset:
      ops.l1_offset_rows(q.data(), spec.v, spec.coef, spec.coef_scale,
                         spec.rows, n, spec.stride, spec.dim, out.data());
      break;
    case SweepKind::kL2Offset:
      ops.l2_offset_rows(q.data(), spec.v, spec.coef, spec.coef_scale,
                         spec.rows, n, spec.stride, spec.dim, out.data());
      break;
    case SweepKind::kCabs:
      ops.cabs_rows(q.data(), spec.rows, n, spec.stride, spec.dim,
                    out.data());
      break;
  }
  if (spec.bias != nullptr) vec::Axpy(1.0f, spec.bias, out.data(), n);
  if (spec.negate) vec::Negate(out);
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
