#include "core/experiment_context.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/audit.h"

#include "obs/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

// "KRN2": version 2 filters each distinct known fact once. A rank table
// written before then may hold a wrapped filtered rank, so its magic no
// longer loads and it is recomputed.
constexpr uint32_t kRanksMagic = 0x4b524e32U;

}  // namespace

ExperimentOptions ExperimentOptions::FromEnv() {
  ExperimentOptions options;
  const char* cache_dir = std::getenv("KGC_CACHE_DIR");
  if (cache_dir != nullptr) options.cache_dir = cache_dir;
  options.epoch_scale = obs::EnvNumber("KGC_EPOCH_SCALE", options.epoch_scale,
                                       0.0, /*min_exclusive=*/true);
  return options;
}

ExperimentContext::ExperimentContext(ExperimentOptions options)
    : options_(std::move(options)), store_(options_.cache_dir) {
  if (!store_.usable()) {
    // Surface the degraded mode once, loudly: every model and rank table
    // will be regenerated on every run until the cache dir is writable.
    LogWarning(
        "artifact cache '%s' is unusable; models and rank tables will be "
        "retrained/recomputed from scratch each run",
        options_.cache_dir.c_str());
  }
}

BenchmarkSuite ExperimentContext::MakeSuite(int which) {
  obs::TraceSpan span("make_suite");
  span.AddArgInt("which", which);
  BenchmarkSuite suite;
  switch (which) {
    case 0:
      suite.kg = GenerateSynthFb15k(options_.data_seed);
      break;
    case 1:
      suite.kg = GenerateSynthWn18(options_.data_seed);
      break;
    default:
      suite.kg = GenerateSynthYago3(options_.data_seed);
      break;
  }
  // Detect over the whole dataset (the paper's T_r is defined over G).
  DetectorOptions detector_options;
  detector_options.threads = options_.threads;
  suite.catalog =
      RedundancyCatalog::Detect(suite.kg.dataset.all_store(),
                                detector_options);
  suite.oracle = BuildOracleCatalog(suite.kg);
  switch (which) {
    case 0:
      suite.cleaned = MakeFb237Like(suite.kg.dataset, suite.catalog,
                                    "FB15k-237-syn");
      break;
    case 1:
      suite.cleaned = MakeWn18rrLike(suite.kg.dataset, suite.catalog,
                                     "WN18RR-syn");
      break;
    default:
      suite.cleaned = MakeYagoDrLike(suite.kg.dataset, suite.catalog,
                                     "YAGO3-10-DR-syn");
      break;
  }
  return suite;
}

const BenchmarkSuite& ExperimentContext::Fb15k() {
  if (fb15k_ == nullptr) {
    fb15k_ = std::make_unique<BenchmarkSuite>(MakeSuite(0));
  }
  return *fb15k_;
}

const BenchmarkSuite& ExperimentContext::Wn18() {
  if (wn18_ == nullptr) {
    wn18_ = std::make_unique<BenchmarkSuite>(MakeSuite(1));
  }
  return *wn18_;
}

const BenchmarkSuite& ExperimentContext::Yago3() {
  if (yago3_ == nullptr) {
    yago3_ = std::make_unique<BenchmarkSuite>(MakeSuite(2));
  }
  return *yago3_;
}

TrainOptions ExperimentContext::ScaledTrainOptions(ModelType type) const {
  TrainOptions train_options = DefaultTrainOptions(type);
  // Scaled in double and clamped before the cast, so no accepted scale can
  // wrap the count: 1e10 × 60 epochs is INT_MAX epochs, not 1.
  const double epochs =
      std::round(train_options.epochs * options_.epoch_scale);
  train_options.epochs = static_cast<int>(std::clamp(
      epochs, 1.0, static_cast<double>(std::numeric_limits<int>::max())));
  train_options.seed = options_.train_seed;
  train_options.verbose = options_.verbose_training;
  return train_options;
}

const KgeModel& ExperimentContext::GetModel(const Dataset& dataset,
                                            ModelType type) {
  const ModelHyperParams params = DefaultHyperParams(type);
  const TrainOptions train_options = ScaledTrainOptions(type);
  const std::string key =
      ModelStore::MakeKey(dataset.name(), type, params, train_options.epochs,
                          train_options.seed);
  auto it = models_.find(key);
  if (it != models_.end()) return *it->second;

  auto loaded = store_.Load(key);
  if (loaded.ok() &&
      (*loaded)->num_entities() == dataset.num_entities() &&
      (*loaded)->num_relations() == dataset.num_relations()) {
    LogInfo("loaded cached %s for %s", ModelTypeName(type),
            dataset.name().c_str());
    return *models_.emplace(key, std::move(*loaded)).first->second;
  }

  LogInfo("training %s on %s (%zu train triples, %d epochs)...",
          ModelTypeName(type), dataset.name().c_str(), dataset.train().size(),
          train_options.epochs);
  std::unique_ptr<KgeModel> model = CreateModel(
      type, dataset.num_entities(), dataset.num_relations(), params);
  TrainOptions run_options = train_options;
  if (store_.usable()) {
    // Checkpoint alongside the model cache, keyed identically, so a killed
    // bench run resumes from the last completed epoch instead of starting
    // over. Roughly ten snapshots per run keeps the overhead negligible.
    run_options.checkpoint_path = store_.PathFor(key) + ".ckpt";
    run_options.checkpoint_every = std::max(1, train_options.epochs / 10);
  }
  const TrainStats stats = TrainModel(*model, dataset, run_options);
  if (stats.resumed_from_epoch > 0) {
    LogInfo("resumed %s on %s from epoch %d", ModelTypeName(type),
            dataset.name().c_str(), stats.resumed_from_epoch);
  }
  LogInfo("trained %s on %s in %.1fs (final loss %.4f)", ModelTypeName(type),
          dataset.name().c_str(), stats.seconds, stats.final_loss);
  const Status save_status = store_.Save(key, *model);
  if (!save_status.ok()) {
    LogWarning("model cache save failed: %s",
               save_status.ToString().c_str());
  }
  return *models_.emplace(key, std::move(model)).first->second;
}

std::string ExperimentContext::RankCachePath(
    const std::string& model_key) const {
  return options_.cache_dir + "/" + model_key + ".ranks";
}

const std::vector<TripleRanks>* ExperimentContext::TryLoadRankCache(
    const std::string& key, size_t expected_count) {
  static obs::Counter& hits =
      obs::Registry::Get().GetCounter(obs::kCacheRankHits);
  static obs::Counter& misses =
      obs::Registry::Get().GetCounter(obs::kCacheRankMisses);
  if (!store_.usable()) {
    misses.Increment();
    return nullptr;
  }
  const std::string path = RankCachePath(key);
  auto cached = LoadRanks(path);
  if (cached.ok() && cached->size() == expected_count) {
    hits.Increment();
    return &ranks_.emplace(key, std::move(*cached)).first->second;
  }
  misses.Increment();
  if (!cached.ok() && cached.status().code() != StatusCode::kNotFound) {
    QuarantineCorrupt(path, cached.status());
    quarantined_rank_keys_.insert(key);
  } else if (cached.ok()) {
    LogWarning("rank cache %s holds %zu entries, expected %zu; recomputing",
               path.c_str(), cached->size(), expected_count);
  }
  return nullptr;
}

void ExperimentContext::StoreRankCache(
    const std::string& key, const std::vector<TripleRanks>& ranks) const {
  if (!store_.usable()) return;
  const Status save_status = SaveRanks(RankCachePath(key), ranks);
  if (!save_status.ok()) {
    LogWarning("rank cache save failed: %s", save_status.ToString().c_str());
    return;
  }
  if (quarantined_rank_keys_.erase(key) > 0) {
    static obs::Counter& regenerated =
        obs::Registry::Get().GetCounter(obs::kCacheRegenerated);
    regenerated.Increment();
  }
}

const std::vector<TripleRanks>& ExperimentContext::GetRanks(
    const Dataset& dataset, ModelType type) {
  const ModelHyperParams params = DefaultHyperParams(type);
  const TrainOptions train_options = ScaledTrainOptions(type);
  const std::string key =
      ModelStore::MakeKey(dataset.name(), type, params, train_options.epochs,
                          train_options.seed);
  auto it = ranks_.find(key);
  if (it != ranks_.end()) return it->second;

  if (const auto* cached = TryLoadRankCache(key, dataset.test().size())) {
    return *cached;
  }

  const KgeModel& model = GetModel(dataset, type);
  Stopwatch watch;
  RankerOptions ranker_options;
  ranker_options.threads = options_.threads;
  std::vector<TripleRanks> ranks =
      RankTriples(model, dataset, dataset.test(), ranker_options);
  LogInfo("ranked %zu test triples of %s under %s in %.1fs",
          dataset.test().size(), dataset.name().c_str(), ModelTypeName(type),
          watch.ElapsedSeconds());
  StoreRankCache(key, ranks);
  return ranks_.emplace(key, std::move(ranks)).first->second;
}

void ExperimentContext::WarmRanks(const Dataset& dataset,
                                  std::span<const ModelType> types) {
  obs::TraceSpan span("warm_ranks");
  span.AddArgStr("dataset", dataset.name().c_str());
  span.AddArgInt("models", static_cast<long long>(types.size()));
  // Resolve cache state and train missing models serially up front
  // (bit-exact checkpoint resume depends on a deterministic serial training
  // order), leaving only the ranking to run in parallel.
  std::vector<std::string> keys;
  std::vector<const LinkPredictor*> models;
  for (ModelType type : types) {
    const ModelHyperParams params = DefaultHyperParams(type);
    const TrainOptions train_options = ScaledTrainOptions(type);
    const std::string key =
        ModelStore::MakeKey(dataset.name(), type, params,
                            train_options.epochs, train_options.seed);
    if (ranks_.find(key) != ranks_.end()) continue;
    if (TryLoadRankCache(key, dataset.test().size()) != nullptr) continue;
    keys.push_back(key);
    models.push_back(&GetModel(dataset, type));
  }
  if (models.empty()) return;

  Stopwatch watch;
  RankerOptions ranker_options;
  ranker_options.threads = options_.threads;
  // One sweep ranks every pending model: each shard of query groups carries
  // all of them, so the shards stay balanced however much the models'
  // costs differ, and the sweep's phase deadline covers the whole lineup.
  std::vector<std::vector<TripleRanks>> computed =
      RankTriples(models, dataset, dataset.test(), ranker_options);
  LogInfo("ranked %zu models x %zu test triples of %s in %.1fs",
          models.size(), dataset.test().size(), dataset.name().c_str(),
          watch.ElapsedSeconds());
  for (size_t i = 0; i < keys.size(); ++i) {
    StoreRankCache(keys[i], computed[i]);
    ranks_.emplace(keys[i], std::move(computed[i]));
  }
}

const std::vector<TripleRanks>& ExperimentContext::GetPredictorRanks(
    const Dataset& dataset, const LinkPredictor& predictor,
    const std::string& label) {
  std::string key = dataset.name() + "__pred_" + label;
  for (char& c : key) {
    if (c == '/' || c == ' ') c = '_';
  }
  auto it = ranks_.find(key);
  if (it != ranks_.end()) return it->second;

  if (const auto* cached = TryLoadRankCache(key, dataset.test().size())) {
    return *cached;
  }

  Stopwatch watch;
  RankerOptions ranker_options;
  ranker_options.threads = options_.threads;
  std::vector<TripleRanks> ranks =
      RankTriples(predictor, dataset, dataset.test(), ranker_options);
  LogInfo("ranked %zu test triples of %s under %s in %.1fs",
          dataset.test().size(), dataset.name().c_str(), predictor.name(),
          watch.ElapsedSeconds());
  StoreRankCache(key, ranks);
  return ranks_.emplace(key, std::move(ranks)).first->second;
}

Status SaveRanks(const std::string& path,
                 const std::vector<TripleRanks>& ranks) {
  BinaryWriter writer;
  writer.WriteU32(kRanksMagic);
  writer.WriteU64(ranks.size());
  for (const TripleRanks& r : ranks) {
    writer.WriteI32(r.triple.head);
    writer.WriteI32(r.triple.relation);
    writer.WriteI32(r.triple.tail);
    writer.WriteDouble(r.head_raw);
    writer.WriteDouble(r.head_filtered);
    writer.WriteDouble(r.tail_raw);
    writer.WriteDouble(r.tail_filtered);
  }
  return writer.Flush(path);
}

StatusOr<std::vector<TripleRanks>> LoadRanks(const std::string& path) {
  auto reader = BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  auto magic = reader->ReadU32();
  if (!magic.ok() || *magic != kRanksMagic) {
    return Status::IoError("bad rank cache: " + path);
  }
  auto count = reader->ReadU64();
  if (!count.ok()) return count.status();
  // Each entry is 3 x i32 + 4 x f64 = 44 bytes: a count the payload cannot
  // hold is corruption, rejected before it sizes an allocation.
  if (*count > reader->remaining() / 44) {
    return Status::IoError("bad rank cache entry count: " + path);
  }
  std::vector<TripleRanks> ranks;
  ranks.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    TripleRanks r;
    auto h = reader->ReadI32();
    if (!h.ok()) return h.status();
    auto rel = reader->ReadI32();
    if (!rel.ok()) return rel.status();
    auto t = reader->ReadI32();
    if (!t.ok()) return t.status();
    r.triple = Triple{*h, *rel, *t};
    auto hr = reader->ReadDouble();
    if (!hr.ok()) return hr.status();
    auto hf = reader->ReadDouble();
    if (!hf.ok()) return hf.status();
    auto tr = reader->ReadDouble();
    if (!tr.ok()) return tr.status();
    auto tf = reader->ReadDouble();
    if (!tf.ok()) return tf.status();
    r.head_raw = *hr;
    r.head_filtered = *hf;
    r.tail_raw = *tr;
    r.tail_filtered = *tf;
    ranks.push_back(r);
  }
  return ranks;
}

}  // namespace kgc
