// kgc_datagen: streams a synthetic knowledge graph to disk in the OpenKE
// layout (see datagen/streaming.h) without materializing the world in
// memory — the path to million-entity datasets on ordinary machines.
//
// Usage:
//   kgc_datagen --preset=NAME --out=DIR [--seed=N] [--shard-triples=N]
//               [--no-world]
//
//   --preset         tiny | fb15k | wn18 | yago3 | scale:N
//                    (scale:N sizes a ScaleSpec to at least N entities,
//                    e.g. scale:1000000)
//   --out            output directory, created if missing
//   --seed           generation seed (default: the canonical data seed)
//   --shard-triples  max facts per world shard file (default 4M)
//   --no-world       skip the world shards; write only the dataset splits
//
// Prints a one-line-per-field report (entities, relations, world facts,
// split sizes, shards, wall seconds, peak RSS) to stdout.
//
// Exit code: 0 on success, 1 on generation/I/O error, 2 on usage.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/presets.h"
#include "datagen/streaming.h"
#include "obs/exporter.h"
#include "obs/report.h"
#include "util/resource.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using kgc::GeneratorSpec;
using kgc::StartsWith;
using kgc::StreamDatagenOptions;
using kgc::StreamDatagenReport;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: kgc_datagen --preset=NAME --out=DIR [--seed=N]\n"
               "                   [--shard-triples=N] [--no-world]\n"
               "  presets: tiny | fb15k | wn18 | yago3 | scale:N\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *out = arg.substr(prefix.size());
  return true;
}

bool ResolvePreset(const std::string& name, GeneratorSpec* spec) {
  if (name == "tiny") {
    *spec = kgc::TinySpec();
  } else if (name == "fb15k") {
    *spec = kgc::SynthFb15kSpec();
  } else if (name == "wn18") {
    *spec = kgc::SynthWn18Spec();
  } else if (name == "yago3") {
    *spec = kgc::SynthYago3Spec();
  } else if (StartsWith(name, "scale:")) {
    const long long n = std::atoll(name.c_str() + 6);
    if (n <= 0) return false;
    *spec = kgc::ScaleSpec(n);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  kgc::obs::StartExporterFromEnv("kgc_datagen");
  kgc::Stopwatch run_watch;
  std::string preset;
  StreamDatagenOptions options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "preset", &value)) {
      preset = value;
    } else if (ParseFlag(arg, "out", &value)) {
      options.out_dir = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "shard-triples", &value)) {
      options.shard_triples = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--no-world") {
      options.write_world = false;
    } else {
      std::fprintf(stderr, "kgc_datagen: unknown argument %s\n", arg.c_str());
      PrintUsage();
      return kgc::obs::FinishProcessReport("kgc_datagen",
                                           run_watch.ElapsedSeconds(), 2);
    }
  }
  GeneratorSpec spec;
  if (preset.empty() || options.out_dir.empty() ||
      !ResolvePreset(preset, &spec)) {
    PrintUsage();
    return kgc::obs::FinishProcessReport("kgc_datagen",
                                         run_watch.ElapsedSeconds(), 2);
  }

  kgc::Stopwatch watch;
  const auto report = kgc::StreamDataset(spec, options);
  if (!report.ok()) {
    std::fprintf(stderr, "kgc_datagen: %s\n",
                 report.status().ToString().c_str());
    return kgc::obs::FinishProcessReport("kgc_datagen",
                                         run_watch.ElapsedSeconds(), 1);
  }
  std::printf("dataset=%s\n", spec.name.c_str());
  std::printf("out_dir=%s\n", options.out_dir.c_str());
  std::printf("entities=%d\n", report->counts.num_entities);
  std::printf("relations=%d\n", report->counts.num_relations);
  std::printf("world_facts=%llu\n",
              static_cast<unsigned long long>(report->counts.world_facts));
  std::printf("admitted_facts=%llu\n",
              static_cast<unsigned long long>(report->counts.admitted_facts));
  std::printf("train=%llu\nvalid=%llu\ntest=%llu\n",
              static_cast<unsigned long long>(report->num_train),
              static_cast<unsigned long long>(report->num_valid),
              static_cast<unsigned long long>(report->num_test));
  std::printf("world_shards=%llu\n",
              static_cast<unsigned long long>(report->world_shards));
  std::printf("wall_seconds=%.3f\n", watch.ElapsedSeconds());
  std::printf("peak_rss_bytes=%llu\n",
              static_cast<unsigned long long>(kgc::PeakRssBytes()));
  return kgc::obs::FinishProcessReport("kgc_datagen",
                                       run_watch.ElapsedSeconds(), 0);
}
