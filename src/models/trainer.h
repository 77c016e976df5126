// SGD training loop with negative sampling.
//
// Implements the two training regimes used by the models the paper compares:
// margin-based ranking (Trans* family, RotatE) and logistic/softplus loss
// over positive + sampled negative triples (RESCAL, DistMult, ComplEx,
// TuckER, ConvE). Negatives are produced by corrupting the head or tail of a
// positive; with `bernoulli` the corrupted side is chosen per-relation based
// on its heads-per-tail / tails-per-head statistics (Wang et al. 2014),
// which reduces false negatives on 1-to-n / n-to-1 relations.

#ifndef KGC_MODELS_TRAINER_H_
#define KGC_MODELS_TRAINER_H_

#include "kg/dataset.h"
#include "models/model.h"

namespace kgc {

struct TrainOptions {
  int epochs = 40;
  /// Negatives sampled per positive.
  int negatives = 2;
  /// Bernoulli (relation-aware) corruption side selection; uniform if false.
  bool bernoulli = true;
  uint64_t seed = 13;
  /// Log epoch losses via LogInfo.
  bool verbose = false;

  /// When set (and checkpoint_every > 0), TrainModel writes an atomic,
  /// checksummed snapshot of the complete training state — model
  /// parameters, optimizer accumulators, RNG state, shuffle order, epoch
  /// counter — to this path every checkpoint_every epochs, resumes from it
  /// if it already exists, and deletes it once training completes. A run
  /// killed mid-training therefore restarts from the last completed
  /// checkpoint epoch and converges bit-exactly to the uninterrupted
  /// result.
  std::string checkpoint_path;
  /// Epochs between checkpoints; <= 0 disables checkpointing.
  int checkpoint_every = 0;
};

struct TrainStats {
  /// Mean per-example loss of the last epoch.
  double final_loss = 0.0;
  double seconds = 0.0;  ///< wall time of this run (excludes pre-resume runs)
  int epochs_run = 0;    ///< total completed epochs, including resumed ones
  /// Epochs restored from a checkpoint (0 = fresh run).
  int resumed_from_epoch = 0;
  /// The phase deadline (util/deadline.h) expired mid-training. A resume
  /// checkpoint was saved first (when checkpointing is configured), so a
  /// retry continues from here bit-exactly. Only observable under a test
  /// deadline handler — the default handler exits the process.
  bool deadline_hit = false;
};

/// Trains `model` on the training split of `dataset` in place.
TrainStats TrainModel(KgeModel& model, const Dataset& dataset,
                      const TrainOptions& options);

/// Per-model-type training defaults tuned for the scaled synthetic
/// benchmarks (margin models: 1 negative; logistic models: several).
TrainOptions DefaultTrainOptions(ModelType type);

}  // namespace kgc

#endif  // KGC_MODELS_TRAINER_H_
