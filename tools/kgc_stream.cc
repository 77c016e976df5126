// kgc_stream: drives the streaming snapshot lifecycle end to end.
//
// The stream source is the deterministic Tiny synthetic KG: the first 70%
// of its train split (plus valid/test) bootstraps generation 0; the
// remaining train triples are replayed as raw "head<TAB>rel<TAB>tail"
// batches through StreamIngestor, each one validated, warm-start trained,
// incrementally audited, regression-gated and atomically published (or
// rolled back / quarantined). A SnapshotReader rides along and hot-swaps
// to every new generation between batches.
//
// Because the source, the batch split and every training seed are pure
// functions of --seed, re-running after a crash (or a chaos-injected
// SIGKILL) replays the stream, skips already-covered batches, and
// converges to bit-identical generations — which `--verify` fingerprints.
//
// Usage:
//   kgc_stream [--snapshot-dir=DIR] [--seed=N] [--model=NAME]
//              [--batches=N] [--batch-size=N] [--bootstrap-epochs=N]
//              [--epochs=N] [--epsilon=F] [--valid-every=N] [--threads=N]
//              [--strict] [--corrupt-batch=K] [--verify] [--status]
//
//   --snapshot-dir   registry root (default $KGC_SNAPSHOT_DIR, else
//                    "kgc_snapshots")
//   --epsilon        publish gate: candidate needs
//                    valid_fmrr >= parent - epsilon (negative forces
//                    rollback; used by ci/chaos.sh)
//   --strict         quarantine whole batches on any malformed line
//                    (default: lenient — drop and count)
//   --corrupt-batch  mangle every 3rd line of batch K (validator fodder)
//   --verify         print "generation= valid_fmrr= score_crc32=" for the
//                    live generation and exit (no ingestion)
//   --status         print registry state and exit
//
// Exit code: 0 on success, 1 on any ingest/registry error, 2 on usage.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "kg/dataset.h"
#include "obs/exporter.h"
#include "obs/report.h"
#include "snapshot/snapshot_registry.h"
#include "snapshot/stream_ingestor.h"
#include "util/crc32.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using kgc::Dataset;
using kgc::SnapshotReader;
using kgc::SnapshotRegistry;
using kgc::Status;
using kgc::StrFormat;
using kgc::StreamIngestor;
using kgc::StreamIngestorOptions;
using kgc::Triple;
using kgc::TripleList;
using kgc::Vocab;

struct StreamFlags {
  std::string snapshot_dir;
  uint64_t seed = 7;
  std::string model = "TransE";  // case-sensitive, see ModelTypeName()
  int batches = 4;
  int batch_size = 0;  // 0: divide the residual stream evenly
  int bootstrap_epochs = 30;
  int epochs = 12;
  double epsilon = 0.05;
  int valid_every = 8;
  int threads = 1;
  bool strict = false;
  int corrupt_batch = -1;
  bool verify = false;
  bool status = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: kgc_stream [--snapshot-dir=DIR] [--seed=N] "
               "[--model=NAME]\n"
               "                  [--batches=N] [--batch-size=N] "
               "[--bootstrap-epochs=N]\n"
               "                  [--epochs=N] [--epsilon=F] "
               "[--valid-every=N] [--threads=N]\n"
               "                  [--strict] [--corrupt-batch=K] "
               "[--verify] [--status]\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (!kgc::StartsWith(arg, prefix)) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// The deterministic stream: bootstrap dataset (re-interned vocab over the
/// first 70% of train, plus the full valid/test splits) and the residual
/// train triples rendered as raw tab-separated name lines.
struct StreamSource {
  Dataset base;
  std::vector<std::string> residual_lines;
};

StreamSource BuildStream(uint64_t seed) {
  const kgc::SyntheticKg tiny = kgc::GenerateTiny(seed);
  const Dataset& full = tiny.dataset;
  const size_t cut = full.train().size() * 7 / 10;

  Vocab vocab;
  const auto remap = [&](const Triple& t) {
    return Triple{vocab.InternEntity(full.vocab().EntityName(t.head)),
                  vocab.InternRelation(full.vocab().RelationName(t.relation)),
                  vocab.InternEntity(full.vocab().EntityName(t.tail))};
  };
  TripleList train, valid, test;
  for (size_t i = 0; i < cut; ++i) train.push_back(remap(full.train()[i]));
  for (const Triple& t : full.valid()) valid.push_back(remap(t));
  for (const Triple& t : full.test()) test.push_back(remap(t));

  StreamSource source{Dataset(full.name() + "-stream", std::move(vocab),
                              std::move(train), std::move(valid),
                              std::move(test)),
                      {}};
  for (size_t i = cut; i < full.train().size(); ++i) {
    const Triple& t = full.train()[i];
    source.residual_lines.push_back(
        full.vocab().EntityName(t.head) + "\t" +
        full.vocab().RelationName(t.relation) + "\t" +
        full.vocab().EntityName(t.tail));
  }
  return source;
}

/// Deterministic fingerprint of the live generation: CRC-32 over the
/// %.17g-rendered model scores of every valid and test triple, in split
/// order. Bit-identical across clean runs and crash-recovered replays.
uint32_t ScoreFingerprint(const kgc::LoadedGeneration& gen) {
  std::string rendered;
  const auto render = [&](const TripleList& triples) {
    for (const Triple& t : triples) {
      rendered += StrFormat(
          "%.17g\n", gen.model->Score(t.head, t.relation, t.tail));
    }
  };
  render(gen.dataset.valid());
  render(gen.dataset.test());
  return kgc::Crc32(rendered.data(), rendered.size());
}

int RunVerify(const SnapshotRegistry& registry) {
  const auto current = registry.current();
  if (current == nullptr) {
    std::printf("generation=-1 valid_fmrr=0 score_crc32=0\n");
    return 0;
  }
  std::printf("generation=%lld valid_fmrr=%.17g score_crc32=%08x\n",
              static_cast<long long>(current->manifest.generation),
              current->manifest.valid_mrr, ScoreFingerprint(*current));
  return 0;
}

int RunStatus(const SnapshotRegistry& registry) {
  std::printf("root=%s recovered=%d orphans_swept=%d\n",
              registry.root().c_str(), registry.recovered() ? 1 : 0,
              registry.orphans_swept());
  const auto current = registry.current();
  if (current == nullptr) {
    std::printf("current=(empty)\n");
    return 0;
  }
  const kgc::SnapshotManifest& m = current->manifest;
  std::printf(
      "current=gen-%06lld parent=%lld batch=%s index=%lld model=%s "
      "warm=%d\n"
      "  entities=%lld relations=%lld train=%lld valid=%lld test=%lld "
      "delta=%lld rejected=%lld\n"
      "  audited=%lld dup_pairs=%lld rev_pairs=%lld symmetric=%lld "
      "cartesian=%lld\n"
      "  valid_fmrr=%.6f parent_fmrr=%.6f epsilon=%g\n",
      static_cast<long long>(m.generation), static_cast<long long>(m.parent),
      m.source_batch.c_str(), static_cast<long long>(m.source_batch_index),
      m.model.c_str(), m.warm_start ? 1 : 0,
      static_cast<long long>(m.num_entities),
      static_cast<long long>(m.num_relations),
      static_cast<long long>(m.train_triples),
      static_cast<long long>(m.valid_triples),
      static_cast<long long>(m.test_triples),
      static_cast<long long>(m.delta_triples),
      static_cast<long long>(m.rejected_lines),
      static_cast<long long>(m.relations_audited),
      static_cast<long long>(m.duplicate_pairs),
      static_cast<long long>(m.reverse_pairs),
      static_cast<long long>(m.symmetric_relations),
      static_cast<long long>(m.cartesian_relations), m.valid_mrr,
      m.parent_valid_mrr, m.epsilon);
  return 0;
}

int StreamMain(int argc, char** argv) {
  StreamFlags flags;
  if (const char* env = std::getenv("KGC_SNAPSHOT_DIR")) {
    flags.snapshot_dir = env;
  }
  if (flags.snapshot_dir.empty()) flags.snapshot_dir = "kgc_snapshots";

  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--strict") {
      flags.strict = true;
    } else if (arg == "--verify") {
      flags.verify = true;
    } else if (arg == "--status") {
      flags.status = true;
    } else if (ParseFlag(arg, "snapshot-dir", &value)) {
      flags.snapshot_dir = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "model", &value)) {
      flags.model = value;
    } else if (ParseFlag(arg, "batches", &value)) {
      flags.batches = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "batch-size", &value)) {
      flags.batch_size = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "bootstrap-epochs", &value)) {
      flags.bootstrap_epochs = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "epochs", &value)) {
      flags.epochs = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "epsilon", &value)) {
      flags.epsilon = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "valid-every", &value)) {
      flags.valid_every = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "threads", &value)) {
      flags.threads = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "corrupt-batch", &value)) {
      flags.corrupt_batch = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "kgc_stream: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  auto opened = SnapshotRegistry::Open(flags.snapshot_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "kgc_stream: cannot open registry: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SnapshotRegistry> registry = std::move(*opened);
  if (registry->recovered() || registry->orphans_swept() > 0) {
    std::printf("recovery: restored generation %lld (%d orphan dirs swept)\n",
                static_cast<long long>(registry->current_generation()),
                registry->orphans_swept());
  }

  if (flags.verify) return RunVerify(*registry);
  if (flags.status) return RunStatus(*registry);

  StreamIngestorOptions options;
  options.ingest.strict = flags.strict;
  auto model_type = kgc::ParseModelType(flags.model);
  if (!model_type.ok()) {
    std::fprintf(stderr, "kgc_stream: %s\n",
                 model_type.status().ToString().c_str());
    return 2;
  }
  options.model_type = *model_type;
  options.epochs = flags.epochs;
  options.bootstrap_epochs = flags.bootstrap_epochs;
  options.train_seed = flags.seed;
  options.epsilon = flags.epsilon;
  options.valid_every = flags.valid_every;
  options.threads = flags.threads;
  StreamIngestor ingestor(*registry, options);

  const StreamSource source = BuildStream(flags.seed);
  if (registry->current() == nullptr) {
    auto report = ingestor.Bootstrap(source.base);
    if (!report.ok()) {
      std::fprintf(stderr, "kgc_stream: bootstrap failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("bootstrap: generation=%lld train=%zu valid_fmrr=%.6f\n",
                static_cast<long long>(report->generation),
                source.base.train().size(), report->valid_mrr);
  }

  const int batches = flags.batches > 0 ? flags.batches : 1;
  const size_t batch_size =
      flags.batch_size > 0
          ? static_cast<size_t>(flags.batch_size)
          : (source.residual_lines.size() + batches - 1) /
                static_cast<size_t>(batches);

  SnapshotReader reader(*registry);
  int failures = 0;
  for (int b = 0; b < batches; ++b) {
    const size_t begin = static_cast<size_t>(b) * batch_size;
    if (begin >= source.residual_lines.size()) break;
    const size_t end =
        std::min(begin + batch_size, source.residual_lines.size());
    std::vector<std::string> lines(source.residual_lines.begin() + begin,
                                   source.residual_lines.begin() + end);
    if (b == flags.corrupt_batch) {
      // Truncate every 3rd line to two fields so the validator has
      // something to reject (strict: whole batch quarantined).
      for (size_t i = 0; i < lines.size(); i += 3) {
        const size_t tab = lines[i].rfind('\t');
        if (tab != std::string::npos) lines[i].resize(tab);
      }
    }
    const std::string label = StrFormat("batch-%03d", b);
    auto report = ingestor.IngestBatch(lines, label, b);
    if (!report.ok()) {
      std::fprintf(stderr, "kgc_stream: %s: %s\n", label.c_str(),
                   report.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf(
        "%s: %s generation=%lld delta=%zu rejected=%zu "
        "valid_fmrr=%.6f (parent %.6f)\n",
        label.c_str(), report->outcome.c_str(),
        static_cast<long long>(report->generation), report->delta_triples,
        report->rejected_lines, report->valid_mrr, report->parent_valid_mrr);
    if (reader.Repin()) {
      std::printf("reader: hot-swapped to generation %lld\n",
                  static_cast<long long>(reader.generation_number()));
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Same telemetry bracket as the bench binaries: the exporter starts
  // before any work, run report + final time-series record at exit
  // (KGC_METRICS / KGC_METRICS_INTERVAL_MS opt-in, see obs/exporter.h).
  kgc::obs::StartExporterFromEnv("kgc_stream");
  kgc::Stopwatch watch;
  const int rc = StreamMain(argc, argv);
  return kgc::obs::FinishProcessReport("kgc_stream", watch.ElapsedSeconds(),
                                       rc);
}
