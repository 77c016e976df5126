// kgc_serve: long-running online link-prediction server.
//
// Serves head/tail top-K retrieval and triple classification over the
// length-prefixed Unix-socket protocol (src/serve/protocol.h), reading
// model state from a snapshot registry through a refcounted SnapshotReader
// pin that hops generations between batches. Robustness semantics
// (admission control, per-request deadlines, slow-client drops, SIGTERM
// drain) live in src/serve/server.h.
//
// An empty registry can be bootstrapped in-process from a deterministic
// synthetic dataset (--bootstrap=scale:N or --bootstrap=tiny): the dataset
// is streamed to <snapshot-dir>.bootstrap (reused if already generated),
// trained for --bootstrap-epochs, and published as generation 0. Because
// generation 0 is a pure function of (--bootstrap, --seed, --model,
// --bootstrap-epochs), a SIGKILLed server restarted with the same flags
// recovers — or deterministically rebuilds — the exact same model, which
// is what lets ci/chaos.sh assert bit-identical scoring fingerprints
// across a kill.
//
// Usage:
//   kgc_serve [--socket=PATH] [--snapshot-dir=DIR] [--bootstrap=SPEC]
//             [--bootstrap-epochs=N] [--seed=N] [--model=NAME]
//             [--threads=N] [--max-batch=N] [--queue=N] [--deadline-ms=N]
//
//   --socket       listening socket (default $KGC_SERVE_SOCKET, else
//                  "kgc_serve.sock")
//   --bootstrap    "scale:N" | "tiny" — only used when the registry is
//                  empty (default: refuse to serve an empty registry)
//   --threads      bootstrap training threads (serving itself batches on
//                  one sweep thread for bit-determinism)
//
// Queue/batch/deadline knobs come from KGC_SERVE_* env (see
// serve/server.h); the flags above override the corresponding env value.
// Prints "READY socket=... generation=N entities=N model=NAME" followed by
// the resolved serving options ("queue=N max_batch=N deadline_ms=N
// max_connections=N max_k=N") once serving, and a drain summary on
// SIGTERM/SIGINT. Exit: 0 clean drain, 1 error, 2 usage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "datagen/presets.h"
#include "datagen/streaming.h"
#include "kg/kg_io.h"
#include "obs/exporter.h"
#include "obs/report.h"
#include "serve/server.h"
#include "snapshot/snapshot_registry.h"
#include "snapshot/stream_ingestor.h"
#include "util/file_util.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using kgc::SnapshotRegistry;
using kgc::Status;
using kgc::StreamIngestor;
using kgc::StreamIngestorOptions;
using kgc::serve::ServeOptions;
using kgc::serve::Server;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct ServeFlags {
  std::string socket_path;
  std::string snapshot_dir;
  std::string bootstrap;
  int bootstrap_epochs = 6;
  uint64_t seed = 7;
  std::string model = "TransE";
  int threads = 0;
  int max_batch = 0;     // 0: keep env/default
  int queue = 0;         // 0: keep env/default
  int deadline_ms = 0;   // 0: keep env/default
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: kgc_serve [--socket=PATH] [--snapshot-dir=DIR]\n"
               "                 [--bootstrap=scale:N|tiny] "
               "[--bootstrap-epochs=N]\n"
               "                 [--seed=N] [--model=NAME] [--threads=N]\n"
               "                 [--max-batch=N] [--queue=N] "
               "[--deadline-ms=N]\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (!kgc::StartsWith(arg, prefix)) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// Publishes generation 0 from the named deterministic preset. The dataset
/// lands next to the registry (not inside it — the registry root is the
/// recovery sweeper's territory) and is reused when already on disk.
Status BootstrapRegistry(SnapshotRegistry& registry,
                         const ServeFlags& flags) {
  kgc::GeneratorSpec spec;
  if (flags.bootstrap == "tiny") {
    spec = kgc::TinySpec();
  } else if (kgc::StartsWith(flags.bootstrap, "scale:")) {
    const int64_t n =
        std::strtoll(flags.bootstrap.c_str() + 6, nullptr, 10);
    if (n <= 0) {
      return Status::InvalidArgument("bad --bootstrap: " + flags.bootstrap);
    }
    spec = kgc::ScaleSpec(n);
  } else {
    return Status::InvalidArgument("bad --bootstrap: " + flags.bootstrap);
  }

  const std::string data_dir = registry.root() + ".bootstrap";
  if (!kgc::FileExists(data_dir + "/train2id.txt")) {
    kgc::StreamDatagenOptions gen;
    gen.out_dir = data_dir;
    gen.seed = flags.seed;
    gen.write_world = false;  // serving needs the splits, not the world
    auto report = kgc::StreamDataset(spec, gen);
    if (!report.ok()) return report.status();
    std::printf("bootstrap-data: %s train=%llu valid=%llu test=%llu\n",
                data_dir.c_str(),
                static_cast<unsigned long long>(report->num_train),
                static_cast<unsigned long long>(report->num_valid),
                static_cast<unsigned long long>(report->num_test));
  }
  auto dataset = kgc::LoadOpenKeDataset(data_dir, flags.bootstrap);
  if (!dataset.ok()) return dataset.status();

  StreamIngestorOptions options;
  auto model_type = kgc::ParseModelType(flags.model);
  if (!model_type.ok()) return model_type.status();
  options.model_type = *model_type;
  options.bootstrap_epochs = flags.bootstrap_epochs;
  options.train_seed = flags.seed;
  options.threads = flags.threads;
  StreamIngestor ingestor(registry, options);
  auto report = ingestor.Bootstrap(*dataset);
  if (!report.ok()) return report.status();
  std::printf("bootstrap: generation=%lld train=%zu valid_fmrr=%.6f\n",
              static_cast<long long>(report->generation),
              dataset->train().size(), report->valid_mrr);
  return Status::Ok();
}

int ServeMain(int argc, char** argv) {
  ServeFlags flags;
  if (const char* env = std::getenv("KGC_SERVE_SOCKET")) {
    flags.socket_path = env;
  }
  if (flags.socket_path.empty()) flags.socket_path = "kgc_serve.sock";
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
    } else if (ParseFlag(arg, "socket", &value)) {
      flags.socket_path = value;
    } else if (ParseFlag(arg, "snapshot-dir", &value)) {
      flags.snapshot_dir = value;
    } else if (ParseFlag(arg, "bootstrap", &value)) {
      flags.bootstrap = value;
    } else if (ParseFlag(arg, "bootstrap-epochs", &value)) {
      flags.bootstrap_epochs = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "model", &value)) {
      flags.model = value;
    } else if (ParseFlag(arg, "threads", &value)) {
      flags.threads = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "max-batch", &value)) {
      flags.max_batch = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "queue", &value)) {
      flags.queue = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "deadline-ms", &value)) {
      flags.deadline_ms = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "kgc_serve: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  auto opened = SnapshotRegistry::Open(flags.snapshot_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "kgc_serve: cannot open registry: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SnapshotRegistry> registry = std::move(*opened);
  if (registry->recovered() || registry->orphans_swept() > 0) {
    std::printf("recovery: restored generation %lld (%d orphan dirs swept)\n",
                static_cast<long long>(registry->current_generation()),
                registry->orphans_swept());
  }

  if (registry->current() == nullptr) {
    if (flags.bootstrap.empty()) {
      std::fprintf(stderr,
                   "kgc_serve: registry %s is empty (pass --bootstrap)\n",
                   flags.snapshot_dir.c_str());
      return 1;
    }
    Status bootstrapped = BootstrapRegistry(*registry, flags);
    if (!bootstrapped.ok()) {
      std::fprintf(stderr, "kgc_serve: bootstrap failed: %s\n",
                   bootstrapped.ToString().c_str());
      return 1;
    }
  }

  ServeOptions options = ServeOptions::FromEnv();
  options.socket_path = flags.socket_path;
  if (flags.max_batch > 0) options.max_batch = flags.max_batch;
  if (flags.queue > 0) options.queue_capacity = flags.queue;
  if (flags.deadline_ms > 0) options.default_deadline_ms = flags.deadline_ms;

  Server server(*registry, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "kgc_serve: %s\n", started.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  const auto current = registry->current();
  std::printf("READY socket=%s generation=%lld entities=%lld model=%s "
              "queue=%d max_batch=%d deadline_ms=%d max_connections=%d "
              "max_k=%d\n",
              options.socket_path.c_str(),
              static_cast<long long>(server.pinned_generation()),
              static_cast<long long>(current->manifest.num_entities),
              current->manifest.model.c_str(), options.queue_capacity,
              options.max_batch, options.default_deadline_ms,
              options.max_connections, options.max_k);
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("drain: signal received, draining queue\n");
  const kgc::serve::DrainStats stats = server.Shutdown();
  std::printf("drain: answered %llu queued requests across %llu "
              "connections, exiting\n",
              static_cast<unsigned long long>(stats.drained_requests),
              static_cast<unsigned long long>(stats.connections_open));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kgc::obs::StartExporterFromEnv("kgc_serve");
  kgc::Stopwatch watch;
  const int rc = ServeMain(argc, argv);
  return kgc::obs::FinishProcessReport("kgc_serve", watch.ElapsedSeconds(),
                                       rc);
}
