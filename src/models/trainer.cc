#include "models/trainer.h"

#include <cmath>
#include <cstdio>

#include "kg/relation_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

constexpr uint32_t kCkptMagic = 0x4b47434bU;  // "KGCK"
constexpr uint32_t kCkptVersion = 1;

// Everything the loop below needs to continue exactly where a killed run
// stopped: progress counters plus the stochastic state (RNG + the shuffle
// permutation, which is reshuffled in place and so carries history).
struct ResumePoint {
  int completed_epochs = 0;
  double last_loss = 0.0;
  Rng::State rng;
  std::vector<size_t> order;
};

Status SaveCheckpoint(const KgeModel& model, const TrainOptions& options,
                      int completed_epochs, double last_loss, const Rng& rng,
                      const std::vector<size_t>& order) {
  BinaryWriter writer;
  writer.WriteU32(kCkptMagic);
  writer.WriteU32(kCkptVersion);
  writer.WriteI32(static_cast<int32_t>(model.type()));
  writer.WriteI32(model.num_entities());
  writer.WriteI32(model.num_relations());
  writer.WriteI32(options.epochs);
  writer.WriteI32(options.negatives);
  writer.WriteU32(options.bernoulli ? 1 : 0);
  writer.WriteU64(options.seed);
  writer.WriteI32(completed_epochs);
  writer.WriteDouble(last_loss);
  const Rng::State rng_state = rng.state();
  for (uint64_t word : rng_state.words) writer.WriteU64(word);
  writer.WriteU32(rng_state.has_cached_normal ? 1 : 0);
  writer.WriteDouble(rng_state.cached_normal);
  writer.WriteU64(order.size());
  for (size_t index : order) writer.WriteU64(index);
  model.Serialize(writer);
  return writer.Flush(options.checkpoint_path);
}

// Restores `model` and the stochastic state from options.checkpoint_path.
// Any mismatch with the current configuration is an error: the checkpoint
// belongs to a different run and must not silently steer this one.
StatusOr<ResumePoint> LoadCheckpoint(KgeModel& model,
                                     const TrainOptions& options,
                                     size_t num_triples) {
  auto reader = BinaryReader::FromFile(options.checkpoint_path);
  if (!reader.ok()) return reader.status();

  auto magic = reader->ReadU32();
  if (!magic.ok() || *magic != kCkptMagic) {
    return Status::IoError("bad checkpoint magic: " + options.checkpoint_path);
  }
  auto version = reader->ReadU32();
  if (!version.ok() || *version != kCkptVersion) {
    return Status::IoError("unsupported checkpoint version: " +
                           options.checkpoint_path);
  }
  auto type_raw = reader->ReadI32();
  if (!type_raw.ok()) return type_raw.status();
  auto num_entities = reader->ReadI32();
  if (!num_entities.ok()) return num_entities.status();
  auto num_relations = reader->ReadI32();
  if (!num_relations.ok()) return num_relations.status();
  auto epochs = reader->ReadI32();
  if (!epochs.ok()) return epochs.status();
  auto negatives = reader->ReadI32();
  if (!negatives.ok()) return negatives.status();
  auto bernoulli = reader->ReadU32();
  if (!bernoulli.ok()) return bernoulli.status();
  auto seed = reader->ReadU64();
  if (!seed.ok()) return seed.status();
  if (*type_raw != static_cast<int32_t>(model.type()) ||
      *num_entities != model.num_entities() ||
      *num_relations != model.num_relations() ||
      *epochs != options.epochs || *negatives != options.negatives ||
      (*bernoulli != 0) != options.bernoulli || *seed != options.seed) {
    return Status::FailedPrecondition(
        "checkpoint does not match the current training configuration: " +
        options.checkpoint_path);
  }

  ResumePoint resume;
  auto completed = reader->ReadI32();
  if (!completed.ok()) return completed.status();
  if (*completed < 1 || *completed > options.epochs) {
    return Status::IoError("implausible epoch count in checkpoint: " +
                           options.checkpoint_path);
  }
  resume.completed_epochs = *completed;
  auto loss = reader->ReadDouble();
  if (!loss.ok()) return loss.status();
  resume.last_loss = *loss;

  for (uint64_t& word : resume.rng.words) {
    auto value = reader->ReadU64();
    if (!value.ok()) return value.status();
    word = *value;
  }
  auto has_cached = reader->ReadU32();
  if (!has_cached.ok()) return has_cached.status();
  resume.rng.has_cached_normal = (*has_cached != 0);
  auto cached = reader->ReadDouble();
  if (!cached.ok()) return cached.status();
  resume.rng.cached_normal = *cached;

  auto order_size = reader->ReadU64();
  if (!order_size.ok()) return order_size.status();
  if (*order_size != num_triples ||
      *order_size > reader->remaining() / sizeof(uint64_t)) {
    return Status::IoError("shuffle order size mismatch in checkpoint: " +
                           options.checkpoint_path);
  }
  resume.order.resize(static_cast<size_t>(*order_size));
  for (size_t& index : resume.order) {
    auto value = reader->ReadU64();
    if (!value.ok()) return value.status();
    if (*value >= num_triples) {
      return Status::IoError("shuffle order index out of range in checkpoint: " +
                             options.checkpoint_path);
    }
    index = static_cast<size_t>(*value);
  }
  // Validate the parameter payload against a scratch model first so a
  // malformed (but checksum-valid) file cannot leave `model` half
  // overwritten — the caller falls back to training from scratch and must
  // start from its pristine initialization.
  BinaryReader payload = *reader;
  std::unique_ptr<KgeModel> scratch =
      CreateModel(model.type(), model.num_entities(), model.num_relations(),
                  model.params());
  KGC_RETURN_IF_ERROR(scratch->Deserialize(*reader));
  KGC_RETURN_IF_ERROR(model.Deserialize(payload));
  return resume;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double Softplus(double x) {
  // Numerically stable log(1 + exp(x)).
  return x > 0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
}

// Samples a corruption of `positive` not present in `train`.
Triple SampleNegative(const Triple& positive, const TripleStore& train,
                      double p_corrupt_head, Rng& rng) {
  const int32_t num_entities = train.num_entities();
  for (int attempt = 0; attempt < 8; ++attempt) {
    Triple corrupted = positive;
    const EntityId replacement =
        static_cast<EntityId>(rng.Uniform(static_cast<uint64_t>(num_entities)));
    if (rng.Bernoulli(p_corrupt_head)) {
      corrupted.head = replacement;
    } else {
      corrupted.tail = replacement;
    }
    if (corrupted != positive && !train.Contains(corrupted)) return corrupted;
  }
  // Statistically unreachable on non-degenerate graphs; fall back to an
  // unchecked corruption.
  Triple corrupted = positive;
  corrupted.tail = static_cast<EntityId>(
      rng.Uniform(static_cast<uint64_t>(num_entities)));
  return corrupted;
}

}  // namespace

TrainStats TrainModel(KgeModel& model, const Dataset& dataset,
                      const TrainOptions& options) {
  Stopwatch watch;
  const TripleStore& train = dataset.train_store();
  const TripleList& triples = dataset.train();
  KGC_CHECK(!triples.empty());

  DeadlinePhase deadline_phase("train");
  obs::TraceSpan train_span("train_model");
  train_span.AddArgStr("model", model.name());
  train_span.AddArgStr("dataset", dataset.name().c_str());
  train_span.AddArgInt("epochs", options.epochs);
  train_span.SetRollupLabel(std::string(model.name()) + "@" + dataset.name());
  static obs::Counter& epochs_counter =
      obs::Registry::Get().GetCounter(obs::kTrainerEpochs);
  static obs::Counter& examples_counter =
      obs::Registry::Get().GetCounter(obs::kTrainerExamples);
  static obs::Counter& negatives_counter =
      obs::Registry::Get().GetCounter(obs::kTrainerNegatives);
  static obs::Counter& checkpoint_saves =
      obs::Registry::Get().GetCounter(obs::kTrainerCheckpointSaves);
  static obs::Counter& resumes =
      obs::Registry::Get().GetCounter(obs::kTrainerResumes);
  static obs::Gauge& last_loss =
      obs::Registry::Get().GetGauge(obs::kTrainerLastLoss);
  static obs::HdrHistogram& epoch_seconds =
      obs::Registry::Get().GetDurationHistogram(obs::kTrainerEpochSeconds);

  // Per-relation head-corruption probability tph / (tph + hpt).
  std::vector<double> p_head(static_cast<size_t>(dataset.num_relations()),
                             0.5);
  if (options.bernoulli) {
    for (RelationId r = 0; r < dataset.num_relations(); ++r) {
      const RelationStats stats = ComputeRelationStats(train, r);
      const double denom = stats.tails_per_head + stats.heads_per_tail;
      if (denom > 0) {
        p_head[static_cast<size_t>(r)] = stats.tails_per_head / denom;
      }
    }
  }

  Rng rng(options.seed);
  const float lr = static_cast<float>(model.params().learning_rate);
  const bool margin_loss =
      model.params().loss == LossKind::kMarginRanking;
  const double margin = model.params().margin;

  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  TrainStats stats;
  int start_epoch = 0;
  const bool checkpointing =
      !options.checkpoint_path.empty() && options.checkpoint_every > 0;
  if (checkpointing && FileExists(options.checkpoint_path)) {
    auto resume = LoadCheckpoint(model, options, triples.size());
    if (resume.ok()) {
      start_epoch = resume->completed_epochs;
      stats.final_loss = resume->last_loss;
      stats.epochs_run = resume->completed_epochs;
      stats.resumed_from_epoch = resume->completed_epochs;
      rng.set_state(resume->rng);
      order = std::move(resume->order);
      resumes.Increment();
      LogInfo("%s: resuming from checkpoint at epoch %d/%d", model.name(),
              start_epoch, options.epochs);
    } else {
      // Never let a bad checkpoint poison the run: quarantine it and train
      // from scratch. (A config mismatch means the file belongs to a
      // different run; corruption means a torn or rotted write.)
      QuarantineCorrupt(options.checkpoint_path, resume.status());
    }
  }

  for (int epoch = start_epoch; epoch < options.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train_epoch");
    epoch_span.AddArgInt("epoch", epoch);
    Stopwatch epoch_watch;
    model.OnEpochBegin(epoch);
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t examples = 0;
    for (size_t idx : order) {
      const Triple& positive = triples[idx];
      const double p = p_head[static_cast<size_t>(positive.relation)];
      if (margin_loss) {
        for (int n = 0; n < options.negatives; ++n) {
          const Triple negative = SampleNegative(positive, train, p, rng);
          const double s_pos = model.Score(positive.head, positive.relation,
                                           positive.tail);
          const double s_neg = model.Score(negative.head, negative.relation,
                                           negative.tail);
          const double violation = margin - s_pos + s_neg;
          ++examples;
          if (violation > 0) {
            epoch_loss += violation;
            model.ApplyGradient(positive, -1.0f, lr);
            model.ApplyGradient(negative, 1.0f, lr);
          }
        }
      } else {
        const double s_pos = model.ScoreAndApplyGradient(
            positive,
            [](double s) { return static_cast<float>(-Sigmoid(-s)); }, lr);
        epoch_loss += Softplus(-s_pos);
        ++examples;
        for (int n = 0; n < options.negatives; ++n) {
          const Triple negative = SampleNegative(positive, train, p, rng);
          const double s_neg = model.ScoreAndApplyGradient(
              negative, [](double s) { return static_cast<float>(Sigmoid(s)); },
              lr);
          epoch_loss += Softplus(s_neg);
          ++examples;
        }
      }
    }
    stats.final_loss = examples > 0 ? epoch_loss / static_cast<double>(examples)
                                    : 0.0;
    stats.epochs_run = epoch + 1;
    epochs_counter.Increment();
    examples_counter.Add(examples);
    // Every positive draws options.negatives corruptions in both loss modes.
    negatives_counter.Add(order.size() *
                          static_cast<size_t>(options.negatives));
    last_loss.Set(stats.final_loss);
    epoch_seconds.Observe(epoch_watch.ElapsedSeconds());
    if (options.verbose && (epoch % 5 == 0 || epoch + 1 == options.epochs)) {
      LogInfo("%s epoch %d/%d loss %.4f (%.1fs)", model.name(), epoch + 1,
              options.epochs, stats.final_loss, watch.ElapsedSeconds());
    }
    const bool final_epoch = epoch + 1 == options.epochs;
    if (checkpointing && !final_epoch &&
        (epoch + 1) % options.checkpoint_every == 0) {
      const Status saved = SaveCheckpoint(model, options, epoch + 1,
                                          stats.final_loss, rng, order);
      if (saved.ok()) {
        checkpoint_saves.Increment();
      } else {
        // Checkpointing is best-effort: a failed snapshot only costs resume
        // granularity, never training correctness.
        LogWarning("checkpoint save failed: %s", saved.ToString().c_str());
      }
    }
    // Cooperative watchdog: the end of an epoch is the trainer's phase
    // boundary. On expiry, persist a resume point at exactly this epoch
    // (the every-N schedule may not have) so the orderly timeout exit
    // loses nothing, then hand off to the deadline handler.
    if (PhaseCheck("train_epoch") && !final_epoch) {
      if (checkpointing) {
        const Status saved = SaveCheckpoint(model, options, epoch + 1,
                                            stats.final_loss, rng, order);
        if (saved.ok()) {
          checkpoint_saves.Increment();
        } else {
          LogWarning("deadline checkpoint save failed: %s",
                     saved.ToString().c_str());
        }
      }
      stats.deadline_hit = true;
      stats.seconds = watch.ElapsedSeconds();
      HandleDeadlineExpiry("train_epoch");
      return stats;  // only reached under a test deadline handler
    }
  }
  if (checkpointing) {
    std::remove(options.checkpoint_path.c_str());
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

TrainOptions DefaultTrainOptions(ModelType type) {
  TrainOptions options;
  switch (type) {
    case ModelType::kTransE:
    case ModelType::kTransH:
    case ModelType::kTransD:
      options.epochs = 60;
      options.negatives = 1;
      break;
    case ModelType::kTransR:
      options.epochs = 40;
      options.negatives = 1;
      break;
    case ModelType::kRotatE:
      options.epochs = 50;
      options.negatives = 2;
      break;
    case ModelType::kRescal:
      options.epochs = 40;
      options.negatives = 4;
      break;
    case ModelType::kDistMult:
    case ModelType::kComplEx:
      options.epochs = 50;
      options.negatives = 4;
      break;
    case ModelType::kTuckER:
      options.epochs = 20;
      options.negatives = 2;
      break;
    case ModelType::kConvE:
      options.epochs = 12;
      options.negatives = 2;
      break;
  }
  return options;
}

}  // namespace kgc
