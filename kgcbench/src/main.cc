// kgcbench: the benchmark's C++ binary. run.py builds it next to the
// program and calls one subcommand per step of a workload:
//
//   paper-fill   paper_warm's set-up: the Figure 1 path on an empty cache
//   paper-warm   table iteration on the filled cache (timed)
//   serve-setup  stream scale:10000 and bootstrap a registry
//   serve-load   open-loop load (and rotations) against kgc_serve, then
//                verify every reply
//   selftest     plants faults the output checks must catch
//   provenance   build type, resolved kernel path, thread count, the
//                KGC_SERVE_* values in effect, every setting of config.h
//                and the seeds derived from --seed
//
// Each works in the current directory and prints one JSON object as its
// last stdout line; flags are --name=value. Exit 0 on success, 1 on error,
// 2 on usage.

#include <cstdio>
#include <cstring>

#include "common.h"
#include "config.h"
#include "serve/server.h"
#include "util/parallel.h"
#include "util/vecmath.h"

namespace {

/// Build type, resolved kernel path and thread count, the KGC_SERVE_*
/// settings kgc_serve resolves from this environment, the benchmark's
/// settings and the seeds derived from the benchmark seed.
int PrintProvenance(const kgcbench::Flags& flags) {
  namespace config = kgcbench::config;
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool native = kgc::vec::NativeKernelsAvailable() &&
                      &kgc::vec::Ops() ==
                          &kgc::vec::OpsFor(kgc::vec::KernelPath::kNative);
  const kgc::serve::ServeOptions serve = kgc::serve::ServeOptions::FromEnv();
  kgcbench::JsonOut out;
  out.BeginObject();
  out.Key("kind").Str("provenance");
  out.Key("build_type").Str(KGCBENCH_BUILD_TYPE);
  out.Key("kernel_path").Str(native ? "native" : "generic");
  out.Key("native_kernels_available").Bool(kgc::vec::NativeKernelsAvailable());
  out.Key("threads").Int(kgc::DefaultThreadCount());
  out.Key("serve_options").BeginObject();
  out.Key("max_connections").Int(serve.max_connections);
  out.Key("queue").Int(serve.queue_capacity);
  out.Key("max_batch").Int(serve.max_batch);
  out.Key("linger_us").Int(serve.linger_us);
  out.Key("deadline_ms").Int(serve.default_deadline_ms);
  out.Key("write_timeout_ms").Int(serve.write_timeout_ms);
  out.Key("max_k").Int(serve.max_k);
  out.Key("prune").Bool(serve.prune);
  out.Key("force_oracle").Bool(serve.force_oracle);
  out.EndObject();
  out.Key("config").BeginObject();
  out.Key("epoch_scale").Num(config::kEpochScale);
  out.Key("scale_entities").Int(config::kScaleEntities);
  out.Key("bootstrap_epochs").Int(config::kBootstrapEpochs);
  out.Key("holdout").Num(config::kHoldout);
  out.Key("rotation_batches").Int(config::kRotationBatches);
  out.Key("ingest_epochs").Int(config::kIngestEpochs);
  out.Key("rotation_cadence_s").Num(config::kRotationCadenceS);
  out.Key("nominal_rate").Num(config::kNominalRate);
  out.Key("warmup_s").Num(config::kWarmupS);
  out.Key("search_share").Num(config::kSearchShare);
  out.Key("search_start_rate").Num(config::kSearchStartRate);
  out.Key("search_max_rate").Num(config::kSearchMaxRate);
  out.Key("p99_limit_ms").Num(config::kP99LimitMs);
  out.Key("connections").Int(config::kConnections);
  out.Key("serve_setups").Int(config::kServeSetups);
  out.Key("late_p50_limit_ms").Num(config::kLateP50LimitMs);
  out.Key("late_p99_limit_ms").Num(config::kLateP99LimitMs);
  out.EndObject();
  // Unsigned 64-bit seeds as strings: JSON readers may hold numbers as
  // doubles.
  out.Key("seeds").BeginObject();
  out.Key("seed").Str(std::to_string(seed));
  out.Key("paper_data_seed").Str(std::to_string(seed));
  out.Key("paper_train_seed").Str(std::to_string(config::PaperTrainSeed(seed)));
  out.Key("serve_data_seed").Str(std::to_string(seed));
  out.Key("serve_train_seed").Str(std::to_string(seed));
  out.Key("schedule_seed").Str(std::to_string(config::ScheduleSeed(seed)));
  out.Key("arrival_seed").Str(std::to_string(config::ArrivalSeed(seed)));
  out.EndObject();
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: kgcbench paper-fill|paper-warm|"
                 "serve-setup|serve-load|selftest|provenance [--flag=value...]\n");
    return 2;
  }
  const kgcbench::Flags flags(argc, argv, 2);
  const char* command = argv[1];
  if (std::strcmp(command, "paper-fill") == 0) {
    return kgcbench::RunPaperFill(flags);
  }
  if (std::strcmp(command, "paper-warm") == 0) {
    return kgcbench::RunPaperWarm(flags);
  }
  if (std::strcmp(command, "serve-setup") == 0) {
    return kgcbench::RunServeSetup(flags);
  }
  if (std::strcmp(command, "serve-load") == 0) {
    return kgcbench::RunServeLoad(flags);
  }
  if (std::strcmp(command, "selftest") == 0) return kgcbench::RunSelfTest();
  if (std::strcmp(command, "provenance") == 0) return PrintProvenance(flags);
  std::fprintf(stderr, "kgcbench: unknown command %s\n", command);
  return 2;
}
