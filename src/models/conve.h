// ConvE (Dettmers et al., AAAI 2018) -- from-scratch mini conv net.
//
// The head and relation embeddings are reshaped into 2-D grids, stacked, and
// passed through a 3x3 convolution + ReLU, then a fully-connected projection
// back to embedding space; the score is the dot product with the tail
// embedding plus a per-entity bias:
//
//   score(h, r, t) = (vec(ReLU(conv([h~; r~]))) W + b) . t + b_t
//
// Deviations from the original (documented in DESIGN.md): no batch-norm or
// dropout (we train small models where neither is load-bearing), 8 filters,
// and a linear FC head (without batch-norm a second ReLU collapses to dead
// units under SGD).
// As in the reference implementation, head prediction uses reciprocal
// relations: the model owns 2|R| relation embeddings and scores (?, r, t) as
// tail prediction under r_inverse. Training applies each example in both
// directions, and Score() is the SUM of both directional forms so the
// trainer's loss gradient matches what ApplyGradient applies. Batch scorers
// stay one-sided (each side ranks under its own relation form, the standard
// reciprocal-relation evaluation).

#ifndef KGC_MODELS_CONVE_H_
#define KGC_MODELS_CONVE_H_

#include <span>

#include "models/model.h"

namespace kgc {

class ConvE final : public KgeModel {
 public:
  ConvE(int32_t num_entities, int32_t num_relations,
        const ModelHyperParams& params);

  double Score(EntityId h, RelationId r, EntityId t) const override;
  void ApplyGradient(const Triple& triple, float d_loss_d_score,
                     float lr) override;
  // Hands Score's (head, relation) forward to the first Step.
  double ScoreAndApplyGradient(const Triple& triple,
                               float (*d_loss_d_score)(double score),
                               float lr) override;
  void DescribeSweep(bool tails, RelationId r,
                     SweepSpec* spec) const override;
  void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                       std::span<float> q) const override;

  void Serialize(BinaryWriter& writer) const override;
  Status Deserialize(BinaryReader& reader) override;

  static constexpr int32_t kFilters = 8;
  static constexpr int32_t kKernel = 3;
  static constexpr int32_t kGridWidth = 4;

 private:
  // Views into one of this thread's scratch slots (vec::GetScratch), valid
  // until the thread next uses that slot.
  struct Forward {
    std::span<float> input;  // (2*grid_h) x grid_w
    std::span<float> pre;    // conv pre-activations, filters x oh x ow
    std::span<float> feat;   // ReLU(pre)
    std::span<float> z;      // FC output (the linear head), dim
  };

  // Scratch slots: RunForward writes slot 1 unless told otherwise, and Step
  // keeps its gradients in slot 2. ScoreAndApplyGradient keeps Score's
  // (head, relation) forward in kScoreForwardSlot, which no other ConvE
  // code touches, so it survives the reciprocal forward and reaches the
  // first Step intact.
  static constexpr int kForwardSlot = 1;
  static constexpr int kScoreForwardSlot = 3;

  // Runs the conv stack for (entity_row, relation_row) producing z.
  Forward RunForward(EntityId e, int32_t relation_row,
                     int slot = kForwardSlot) const;

  // Score from the (h, r) forward `fwd`: its form plus the reciprocal one,
  // whose forward goes to kForwardSlot after fwd.z has been read.
  double SumForms(const Forward& fwd, EntityId h, RelationId r,
                  EntityId t) const;

  // One training step for score = z(e_in, rel_row) . e_out + b[e_out],
  // where `fwd` is RunForward(e_in, relation_row) on the current weights.
  void Step(EntityId e_in, int32_t relation_row, EntityId e_out, float g,
            float lr, const Forward& fwd);

  int32_t grid_h_;       // dim / kGridWidth
  int32_t out_h_;        // 2*grid_h - kKernel + 1
  int32_t out_w_;        // kGridWidth - kKernel + 1
  int32_t feat_size_;    // kFilters * out_h_ * out_w_
  EmbeddingTable entities_;
  EmbeddingTable relations_;     // 2*num_relations rows (reciprocals)
  EmbeddingTable kernels_;       // kFilters x (kKernel*kKernel)
  EmbeddingTable conv_bias_;     // 1 x kFilters
  EmbeddingTable fc_;            // feat_size x dim
  EmbeddingTable fc_bias_;       // 1 x dim
  EmbeddingTable entity_bias_;   // num_entities x 1
};

}  // namespace kgc

#endif  // KGC_MODELS_CONVE_H_
