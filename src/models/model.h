// KgeModel: the interface all knowledge-graph embedding models implement.
//
// A model scores triples (higher = more plausible) and knows how to apply an
// SGD step given the upstream loss gradient dLoss/dScore computed by the
// Trainer. Batch scorers over all candidate heads / tails are the
// performance-critical path of link-prediction evaluation. Models do not
// write them: each describes its sweep (DescribeSweep) and builds its
// per-anchor query (BuildSweepQuery), and KgeModel runs the one recipe —
// one single-query vecmath kernel per call — for every model. The same
// prepared sweep (PreparedSweep) also scores single rows and bounds every
// row's score through the kernel's float twin, which is how the ranker
// avoids exact scores for the rows a bound already orders. The top-K
// engine (eval/topk.h) runs the same description through the blocked
// kernels, so every model is scored and ranked by the same code.

#ifndef KGC_MODELS_MODEL_H_
#define KGC_MODELS_MODEL_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "kg/link_predictor.h"
#include "kg/triple.h"
#include "models/embedding.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace kgc {

/// Supported model families.
enum class ModelType {
  kTransE = 0,
  kTransH = 1,
  kTransR = 2,
  kTransD = 3,
  kRescal = 4,
  kDistMult = 5,
  kComplEx = 6,
  kRotatE = 7,
  kTuckER = 8,
  kConvE = 9,
};

/// Canonical display name, e.g. "TransE".
const char* ModelTypeName(ModelType type);

/// Parses a display name; returns kInvalidArgument on unknown names.
StatusOr<ModelType> ParseModelType(const std::string& name);

/// Loss used by the trainer for this model.
enum class LossKind {
  kMarginRanking = 0,  ///< max(0, margin - s(pos) + s(neg))
  kLogistic = 1,       ///< softplus(-y * s)
};

/// Model hyperparameters. Defaults are tuned for the scaled synthetic
/// datasets (~2k entities); see models/factory.cc for per-model overrides.
struct ModelHyperParams {
  int32_t dim = 32;
  /// Secondary dimension (relation dim for TuckER / TransR-style models).
  int32_t dim2 = 8;
  double learning_rate = 0.05;
  double margin = 1.0;
  LossKind loss = LossKind::kMarginRanking;
  /// L1 (true) or L2 distance for translational models.
  bool l1_distance = false;
  /// Initialization seed.
  uint64_t seed = 7;
  /// L2 regularization coefficient applied to touched rows (0 = off).
  double l2_reg = 0.0;
  /// Use AdaGrad-scaled updates (the logistic-loss models' reference
  /// implementations all use adaptive optimizers).
  bool adagrad = false;
};

/// The per-(query, row) kernel shape a model's sweep reduces to.
enum class SweepKind {
  kDot,        // score = dot(q, row)
  kL1,         // score = -sum_j |q_j - row_j|
  kL2,         // score = -||q - row||_2
  kL1Offset,   // score = -sum_j |q_j + coef_scale*coef_i*v_j - row_j|
  kL2Offset,   // L2 variant of kL1Offset
  kCabs,       // score = -complex-modulus distance (RotatE layout)
};

/// A model's description of one (direction, relation) sweep: how to score a
/// query vector against every candidate row with vecmath kernels. Pointers
/// alias model-owned (possibly thread-local) storage; they stay valid on the
/// calling thread until the model's next DescribeSweep/Score* call, so the
/// caller must copy what it needs to keep (the engine copies `coef` and `v`
/// immediately and reads `rows` only while it sweeps that group).
struct SweepSpec {
  SweepKind kind = SweepKind::kDot;
  const float* rows = nullptr;  // candidate table, row e = entity e
  size_t num_rows = 0;
  size_t stride = 0;            // floats between consecutive rows
  size_t dim = 0;               // floats reduced per row (half_dim for kCabs)
  size_t query_len = 0;         // floats BuildSweepQuery writes
  const float* v = nullptr;     // offset direction (offset kinds only)
  const float* coef = nullptr;  // per-row offset coefficients (offset kinds)
  float coef_scale = 0.0f;      // sign/scale applied to coef
  const float* bias = nullptr;  // per-row additive bias, or null
  bool negate = false;          // true: score = -kernel(q, row) (distances)
};

/// One anchor's sweep, described and its query built once, for a caller
/// that needs more than the full score row: the ranker bounds every row's
/// score in float and scores exactly only the rows the bounds cannot order.
/// It points at what DescribeSweep and BuildSweepQuery left in scratch and
/// model storage, so it is valid on the creating thread until that thread's
/// next DescribeSweep, Score*, ScoreTails/ScoreHeads or PrepareSweep call
/// on the model.
class PreparedSweep {
 public:
  /// The full score row, the bits ScoreTails / ScoreHeads write.
  void ScoreAll(std::span<float> out) const;

  /// Row e's score: the bits ScoreAll writes at out[e].
  float Score(EntityId e) const;

  /// Fills lo[e] <= ScoreAll's out[e] <= hi[e] for every row from the
  /// kernel's float twin, with the bias and sign folded in as ScoreAll
  /// applies them. Returns false when some bound is not finite (a NaN or
  /// infinite parameter, or an overflow); lo and hi then order nothing.
  bool Bounds(std::span<float> lo, std::span<float> hi) const;

 private:
  friend class KgeModel;
  PreparedSweep() = default;

  SweepSpec spec_;
  const float* q_ = nullptr;
};

/// Abstract embedding model.
class KgeModel : public LinkPredictor {
 public:
  KgeModel(ModelType type, int32_t num_entities, int32_t num_relations,
           ModelHyperParams params)
      : type_(type),
        num_entities_(num_entities),
        num_relations_(num_relations),
        params_(params) {}
  ~KgeModel() override = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  ModelType type() const { return type_; }
  const char* name() const override { return ModelTypeName(type_); }
  int32_t num_entities() const override { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  const ModelHyperParams& params() const { return params_; }

  /// Plausibility score of (h, r, t); higher is more plausible.
  virtual double Score(EntityId h, RelationId r, EntityId t) const = 0;

  /// Applies one SGD step for the triple: every parameter p touched by the
  /// score moves by -lr * d_loss_d_score * dScore/dp.
  virtual void ApplyGradient(const Triple& triple, float d_loss_d_score,
                             float lr) = 0;

  /// Scores the triple, then applies the step ApplyGradient would with
  /// d_loss_d_score(score); returns the score. Same bits as Score followed
  /// by ApplyGradient (the default); a model overrides it to reuse what
  /// Score computed and nothing has changed since.
  virtual double ScoreAndApplyGradient(const Triple& triple,
                                       float (*d_loss_d_score)(double score),
                                       float lr);

  /// Scores (h, r, e) for every entity e into out[e].
  /// out.size() must be num_entities().
  void ScoreTails(EntityId h, RelationId r,
                  std::span<float> out) const final;

  /// Scores (e, r, t) for every entity e into out[e].
  void ScoreHeads(RelationId r, EntityId t,
                  std::span<float> out) const final;

  /// Describes the kernel sweep behind ScoreTails (tails=true) or ScoreHeads
  /// (tails=false) for relation r. It may fill `coef` in vec::GetScratch
  /// slot 1; nothing else it points `spec` at lives in scratch.
  virtual void DescribeSweep(bool tails, RelationId r,
                             SweepSpec* spec) const = 0;

  /// Builds the query vector for one anchor entity of the sweep described
  /// by DescribeSweep(tails, r, ...); `q` holds spec->query_len floats and
  /// is vec::GetScratch slot 0. On the same thread it must leave intact
  /// whatever DescribeSweep pointed `spec` at: it may use scratch slots 1
  /// and up only when DescribeSweep filled no `coef`.
  virtual void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                               std::span<float> q) const = 0;

  /// Describes the sweep behind ScoreTails (tails=true) or ScoreHeads
  /// (tails=false) and builds the anchor's query, once (see PreparedSweep).
  PreparedSweep PrepareSweep(bool tails, RelationId r, EntityId anchor) const;

  /// Hook called by the trainer when an epoch begins (entity normalization
  /// for translational models happens here).
  virtual void OnEpochBegin(int epoch) { (void)epoch; }

  /// Serialization of all parameter tables (type tag handled by ModelStore).
  virtual void Serialize(BinaryWriter& writer) const = 0;
  virtual Status Deserialize(BinaryReader& reader) = 0;

 protected:
  ModelType type_;
  int32_t num_entities_;
  int32_t num_relations_;
  ModelHyperParams params_;
};

/// Creates a freshly initialized model of the given type.
std::unique_ptr<KgeModel> CreateModel(ModelType type, int32_t num_entities,
                                      int32_t num_relations,
                                      const ModelHyperParams& params);

/// Per-model default hyperparameters for the scaled synthetic benchmarks.
ModelHyperParams DefaultHyperParams(ModelType type);

/// All model types evaluated by the paper's main tables, in table order:
/// TransE, TransH, TransR, TransD, DistMult, ComplEx, ConvE, RotatE, TuckER.
/// RESCAL is intentionally excluded: the paper only revisits it in the
/// historical accuracy-evolution discussion, not in the main result tables.
std::span<const ModelType> PaperModelLineup();

/// The six models of the comparison figures (Fig. 1, 5, 6):
/// TransE, DistMult, ComplEx, ConvE, RotatE, TuckER. RESCAL is intentionally
/// excluded here too — the figures track the paper's figure lineup, which
/// drops it along with the remaining translational variants.
std::span<const ModelType> FigureModelLineup();

}  // namespace kgc

#endif  // KGC_MODELS_MODEL_H_
