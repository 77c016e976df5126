// ExperimentContext: one-stop shop for the paper's experiment harness.
//
// Owns the three synthetic benchmarks (FB15k-syn, WN18-syn, YAGO3-10-syn),
// their cleaned counterparts (FB15k-237-syn, WN18RR-syn, YAGO3-10-DR-syn),
// trained models and their link-prediction ranks. Everything expensive is
// cached: models and rank tables persist in a cache directory shared by all
// bench binaries, so each (dataset, model) pair is trained and ranked once
// per configuration across the whole harness.

#ifndef KGC_CORE_EXPERIMENT_CONTEXT_H_
#define KGC_CORE_EXPERIMENT_CONTEXT_H_

#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "datagen/presets.h"
#include "eval/ranker.h"
#include "models/model_store.h"
#include "models/trainer.h"
#include "redundancy/cleaner.h"
#include "redundancy/leakage.h"

namespace kgc {

/// A benchmark with everything the experiments derive from it.
struct BenchmarkSuite {
  SyntheticKg kg;               ///< original dataset + world + ground truth
  Dataset cleaned;              ///< the -237 / RR / DR analogue
  RedundancyCatalog catalog;    ///< detected on the original full dataset
  RedundancyCatalog oracle;     ///< from generator metadata (reverse_property)
};

struct ExperimentOptions {
  std::string cache_dir = "kgc_cache";
  uint64_t data_seed = kDefaultDataSeed;
  uint64_t train_seed = 13;
  /// Scales every model's epoch budget (1.0 = defaults); lowered in tests.
  double epoch_scale = 1.0;
  bool verbose_training = false;
  /// Worker threads for ranking, redundancy detection and rule mining
  /// (0 = KGC_THREADS / hardware default; see util/parallel.h). Training
  /// stays serial regardless: bit-exact checkpoint resume depends on a
  /// deterministic serial example order. All parallelized outputs are
  /// bit-identical for any value.
  int threads = 0;

  /// Defaults overlaid with KGC_CACHE_DIR and KGC_EPOCH_SCALE. The whole
  /// scale value must parse as a finite decimal number > 0 (obs/env.h);
  /// anything else warns once on stderr and keeps 1.0, so a typo cannot cut
  /// training to one epoch.
  static ExperimentOptions FromEnv();
};

class ExperimentContext {
 public:
  explicit ExperimentContext(ExperimentOptions options = {});

  ExperimentContext(const ExperimentContext&) = delete;
  ExperimentContext& operator=(const ExperimentContext&) = delete;

  /// Lazily generated benchmark suites.
  const BenchmarkSuite& Fb15k();
  const BenchmarkSuite& Wn18();
  const BenchmarkSuite& Yago3();

  /// Trains (or loads from cache) the model for `dataset`. The dataset's
  /// name participates in the cache key, so pass the suites' datasets.
  const KgeModel& GetModel(const Dataset& dataset, ModelType type);

  /// Filtered+raw ranks of the dataset's test split under the model,
  /// cached in memory and on disk.
  const std::vector<TripleRanks>& GetRanks(const Dataset& dataset,
                                           ModelType type);

  /// Ranks of an arbitrary predictor (rule-based models). `label` must
  /// uniquely identify the predictor's configuration; it keys the cache.
  const std::vector<TripleRanks>& GetPredictorRanks(
      const Dataset& dataset, const LinkPredictor& predictor,
      const std::string& label);

  /// Computes (and caches) the rank tables of every listed model, training
  /// any missing models serially first, then ranking all of them in one
  /// multi-predictor RankTriples sweep whose shards each carry every model.
  /// The sweep runs on the serial path, so its `rank` phase deadline covers
  /// the whole lineup at any thread count. Subsequent GetRanks calls hit
  /// the in-memory cache. Tables are byte-identical to the ones GetRanks
  /// would have produced one at a time.
  void WarmRanks(const Dataset& dataset, std::span<const ModelType> types);

  const ExperimentOptions& options() const { return options_; }
  const ModelStore& store() const { return store_; }

  /// Effective (scaled) training options for a model type.
  TrainOptions ScaledTrainOptions(ModelType type) const;

 private:
  BenchmarkSuite MakeSuite(int which);
  std::string RankCachePath(const std::string& model_key) const;

  /// Loads the on-disk rank cache for `key` into `ranks_` and returns the
  /// entry, or nullptr on a miss. Corrupt cache files are quarantined
  /// (moved to `.corrupt`) so the caller recomputes and overwrites.
  const std::vector<TripleRanks>* TryLoadRankCache(const std::string& key,
                                                   size_t expected_count);

  /// Persists freshly computed ranks for `key` (no-op when the cache
  /// directory is unusable).
  void StoreRankCache(const std::string& key,
                      const std::vector<TripleRanks>& ranks) const;

  ExperimentOptions options_;
  ModelStore store_;
  std::unique_ptr<BenchmarkSuite> fb15k_;
  std::unique_ptr<BenchmarkSuite> wn18_;
  std::unique_ptr<BenchmarkSuite> yago3_;
  std::unordered_map<std::string, std::unique_ptr<KgeModel>> models_;
  std::unordered_map<std::string, std::vector<TripleRanks>> ranks_;
  // Rank-cache keys quarantined by TryLoadRankCache and not yet re-stored;
  // the healing StoreRankCache counts as kgc.cache.regenerated. Mutable
  // because StoreRankCache is const; cache I/O is serial (see
  // util/fault_injector.h), so no lock is needed.
  mutable std::set<std::string> quarantined_rank_keys_;
};

/// Serialization of rank tables (shared with tests).
Status SaveRanks(const std::string& path, const std::vector<TripleRanks>& ranks);
StatusOr<std::vector<TripleRanks>> LoadRanks(const std::string& path);

}  // namespace kgc

#endif  // KGC_CORE_EXPERIMENT_CONTEXT_H_
