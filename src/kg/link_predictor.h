// LinkPredictor: anything that can rank candidate entities for a query.
//
// Both latent-feature models (embeddings; models/) and observed-feature
// models (rules; rules/) implement this interface, so the evaluation
// harness treats them uniformly -- exactly the comparison the paper makes.

#ifndef KGC_KG_LINK_PREDICTOR_H_
#define KGC_KG_LINK_PREDICTOR_H_

#include <span>

#include "kg/triple.h"

namespace kgc {

/// The per-(query, row) kernel shape a model's sweep reduces to. The top-K
/// engine (eval/topk.h) uses this to run blocked multi-query kernels.
enum class SweepKind {
  kNone = 0,   // no kernel sweep; engine falls back to full ScoreTails
  kDot,        // score = dot(q, row) (+ optional per-row bias)
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
  SweepKind kind = SweepKind::kNone;
  const float* rows = nullptr;  // candidate table, row e = entity e
  size_t num_rows = 0;
  size_t stride = 0;            // floats between consecutive rows
  size_t dim = 0;               // floats reduced per row (half_dim for kCabs)
  size_t query_len = 0;         // floats BuildSweepQuery writes
  const float* v = nullptr;     // offset direction (offset kinds only)
  const float* coef = nullptr;  // per-row offset coefficients (offset kinds)
  float coef_scale = 0.0f;      // sign/scale applied to coef
  const float* bias = nullptr;  // per-row additive bias (kDot only), or null
  bool negate = false;          // true: score = -kernel(q, row) (distances)
};

class LinkPredictor {
 public:
  virtual ~LinkPredictor() = default;

  /// Display name for reports.
  virtual const char* name() const = 0;

  virtual int32_t num_entities() const = 0;

  /// Fills out[e] with the plausibility of (h, r, e) for every entity e.
  /// out.size() must equal num_entities(). Higher = more plausible.
  virtual void ScoreTails(EntityId h, RelationId r,
                          std::span<float> out) const = 0;

  /// Fills out[e] with the plausibility of (e, r, t) for every entity e.
  virtual void ScoreHeads(RelationId r, EntityId t,
                          std::span<float> out) const = 0;

  /// Describes the kernel sweep behind ScoreTails (tails=true) or ScoreHeads
  /// (tails=false) for relation r. Returns false (the default) when the
  /// model has no kernel-shaped sweep — rule models, say — in which case
  /// the top-K engine falls back to the full Score* path.
  virtual bool DescribeSweep(bool tails, RelationId r,
                             SweepSpec* spec) const {
    (void)tails;
    (void)r;
    (void)spec;
    return false;
  }

  /// Builds the query vector for one anchor entity of the sweep described
  /// by DescribeSweep(tails, r, ...); `q` must hold spec->query_len floats.
  /// Models that return false from DescribeSweep need not override.
  virtual void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                               std::span<float> q) const {
    (void)tails;
    (void)r;
    (void)anchor;
    (void)q;
  }
};

}  // namespace kgc

#endif  // KGC_KG_LINK_PREDICTOR_H_
