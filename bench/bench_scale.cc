// Million-scale substrate benchmark: generates ScaleSpec worlds at 10k /
// 100k / 1M entities, builds the CSR TripleStore over each, and measures
//
//   - datagen and store-build wall seconds,
//   - resident index cost (IndexBytes / triple, peak RSS),
//   - filtered-Contains probe latency: scalar Contains, prefetched
//     ContainsBatch, and the pre-CSR baseline (std::unordered_set of packed
//     triple keys — the hash-map substrate this store replaced).
//
// Results go to stdout and to BENCH_scale.json in the working directory.
//
// A second study runs the top-K retrieval fast path (eval/topk) against
// the full-sweep oracle on an untrained 100k-entity TransE table: the K
// ladder in full mode, K=10 only in smoke mode, always with the oracle
// cross-check on (the engine aborts on any bit-level mismatch).
//
// Flags (besides the BenchTelemetry ones):
//   --smoke   run only the 100k-entity size and enforce the CI budget:
//             bytes-per-triple <= 64, batched probes no slower than the
//             unordered_set baseline, and the top-K K=10 run made with
//             the oracle cross-check on. Exit 1 on breach.
//
// The full run also checks the ISSUE acceptance floor at 1M entities
// (<64 bytes/triple, >=3x batched-probe speedup) and reports pass/fail per
// size without failing the process — perf numbers on shared hardware are
// advisory outside CI's smoke budget.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "kg/triple_store.h"
#include "models/model.h"
#include "util/resource.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

// Keeps only what the store build needs; entity names are formulaic and
// dropped on the floor (at 1M entities they would dwarf the triples).
class WorldCollector : public WorldSink {
 public:
  void AddEntity(EntityId, const std::string&) override {}
  void AddRelation(const RelationMeta&) override {}
  void AddReversePair(RelationId, RelationId) override {}
  void AddFact(const Triple& fact, bool) override { world.push_back(fact); }

  TripleList world;
};

struct SizeResult {
  int64_t requested_entities = 0;
  int32_t num_entities = 0;
  int32_t num_relations = 0;
  uint64_t world_facts = 0;
  double datagen_seconds = 0;
  double build_seconds = 0;
  uint64_t index_bytes = 0;
  double bytes_per_triple = 0;
  uint64_t peak_rss_bytes = 0;
  double scalar_ns = 0;
  double batch_ns = 0;
  double baseline_ns = 0;
  double batch_speedup = 0;
};

// Probe keys: half present triples, half misses, shuffled — the filtered
// ranking workload probes a mix of known facts and corrupted candidates.
std::vector<uint64_t> MakeProbeKeys(const TripleList& world,
                                    int32_t num_entities, size_t count) {
  Rng rng(0xbe9c);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      const Triple& t = world[rng.Uniform(world.size())];
      keys.push_back(PackTriple(t.head, t.relation, t.tail));
    } else {
      const Triple& t = world[rng.Uniform(world.size())];
      keys.push_back(PackTriple(
          static_cast<EntityId>(rng.Uniform(static_cast<uint64_t>(num_entities))),
          t.relation, t.tail));
    }
  }
  return keys;
}

// Best-of-3 nanoseconds per probe; `sink` defeats dead-code elimination.
template <typename Body>
double TimeProbes(size_t count, uint64_t* sink, Body body) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    *sink += body();
    const double ns =
        watch.ElapsedSeconds() * 1e9 / static_cast<double>(count);
    if (ns < best) best = ns;
  }
  return best;
}

SizeResult RunSize(int64_t requested) {
  SizeResult result;
  result.requested_entities = requested;
  const GeneratorSpec spec = ScaleSpec(requested);

  WorldCollector collector;
  Stopwatch datagen_watch;
  const WorldCounts counts = GenerateWorld(spec, kDefaultDataSeed, collector);
  result.datagen_seconds = datagen_watch.ElapsedSeconds();
  result.num_entities = counts.num_entities;
  result.num_relations = counts.num_relations;
  result.world_facts = counts.world_facts;

  Stopwatch build_watch;
  const TripleStore store(std::move(collector.world), counts.num_entities,
                          counts.num_relations);
  result.build_seconds = build_watch.ElapsedSeconds();
  result.index_bytes = store.IndexBytes();
  result.bytes_per_triple =
      static_cast<double>(result.index_bytes) /
      static_cast<double>(store.size());
  result.peak_rss_bytes = PeakRssBytes();

  const size_t num_probes =
      std::min<size_t>(2'000'000, store.size());
  const std::vector<uint64_t> keys =
      MakeProbeKeys(store.triples(), counts.num_entities, num_probes);
  uint64_t sink = 0;

  result.batch_ns = TimeProbes(num_probes, &sink, [&] {
    return store.ContainsBatch(keys, nullptr);
  });
  result.scalar_ns = TimeProbes(num_probes, &sink, [&] {
    uint64_t hits = 0;
    for (uint64_t key : keys) {
      hits += store.ContainsPacked(key) ? 1 : 0;
    }
    return hits;
  });

  // The replaced substrate: one std::unordered_set over the same packed
  // keys, probed scalar (it has no batch API — that is the point).
  std::unordered_set<uint64_t> baseline;
  baseline.reserve(store.size());
  for (const Triple& t : store.triples()) {
    baseline.insert(PackTriple(t.head, t.relation, t.tail));
  }
  result.baseline_ns = TimeProbes(num_probes, &sink, [&] {
    uint64_t hits = 0;
    for (uint64_t key : keys) {
      hits += baseline.count(key);
    }
    return hits;
  });
  result.batch_speedup = result.baseline_ns / result.batch_ns;

  std::printf(
      "entities=%d relations=%d facts=%llu datagen=%.2fs build=%.2fs\n"
      "  bytes/triple=%.1f peak_rss=%.1fMiB\n"
      "  probe ns: batch=%.1f scalar=%.1f unordered_set=%.1f "
      "(batch speedup %.2fx)  [checksum %llu]\n",
      result.num_entities, result.num_relations,
      static_cast<unsigned long long>(result.world_facts),
      result.datagen_seconds, result.build_seconds, result.bytes_per_triple,
      static_cast<double>(result.peak_rss_bytes) / (1024.0 * 1024.0),
      result.batch_ns, result.scalar_ns, result.baseline_ns,
      result.batch_speedup, static_cast<unsigned long long>(sink));
  return result;
}

// Top-K retrieval ladder on an untrained 100k-entity TransE table (the
// transe_unit_norm workload of bench_micro_scoring), oracle cross-check
// always on. Smoke mode (CI, often sanitized) runs a reduced query set at
// K=10 only.
std::vector<bench::TopKBenchPoint> RunTopKLadder(bool smoke) {
  constexpr int32_t kEntities = 100'000;
  constexpr size_t kDim = 64;
  constexpr int32_t kRelations = 8;
  const size_t num_queries = smoke ? 48 : 128;
  const int reps = smoke ? 1 : 3;
  const std::vector<int> ks = smoke ? std::vector<int>{10}
                                    : std::vector<int>{1, 10, 100};

  std::printf("\ntop-K retrieval (transe_unit_norm, %d entities, dim %zu, "
              "%zu queries, cross-check on)\n",
              kEntities, kDim, num_queries);
  ModelHyperParams params = DefaultHyperParams(ModelType::kTransE);
  params.dim = kDim;
  const auto model =
      CreateModel(ModelType::kTransE, kEntities, kRelations, params);
  const std::vector<TopKQuery> queries =
      bench::MakeTopKBenchQueries(kEntities, kRelations, num_queries, 17);
  std::vector<bench::TopKBenchPoint> points;
  for (int k : ks) {
    points.push_back(bench::MeasureTopKRetrieval(*model, "transe_unit_norm",
                                                 queries, k,
                                                 /*cross_check=*/true, reps));
    const bench::TopKBenchPoint& p = points.back();
    std::printf("  K=%-3d oracle %.3fs  engine %.3fs  %6.2fx  "
                "scored %5.1f%%\n",
                p.k, p.oracle_seconds, p.engine_seconds, p.speedup,
                p.scored_fraction * 100.0);
  }
  return points;
}

void WriteJson(const std::vector<SizeResult>& results,
               const std::vector<bench::TopKBenchPoint>& topk,
               const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"bench_scale\",\n  \"sizes\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    char line[1024];
    std::snprintf(
        line, sizeof(line),
        "    {\"requested_entities\": %lld, \"num_entities\": %d, "
        "\"num_relations\": %d, \"world_facts\": %llu, "
        "\"datagen_seconds\": %.3f, \"build_seconds\": %.3f, "
        "\"index_bytes\": %llu, \"bytes_per_triple\": %.2f, "
        "\"peak_rss_bytes\": %llu, \"scalar_ns_per_probe\": %.2f, "
        "\"batch_ns_per_probe\": %.2f, "
        "\"unordered_set_ns_per_probe\": %.2f, "
        "\"batch_speedup_vs_unordered_set\": %.3f}%s\n",
        static_cast<long long>(r.requested_entities), r.num_entities,
        r.num_relations, static_cast<unsigned long long>(r.world_facts),
        r.datagen_seconds, r.build_seconds,
        static_cast<unsigned long long>(r.index_bytes), r.bytes_per_triple,
        static_cast<unsigned long long>(r.peak_rss_bytes), r.scalar_ns,
        r.batch_ns, r.baseline_ns, r.batch_speedup,
        i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "  ],\n  \"topk\": [\n";
  for (size_t i = 0; i < topk.size(); ++i) {
    const bench::TopKBenchPoint& p = topk[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"workload\": \"%s\", \"num_entities\": %lld, "
        "\"num_queries\": %zu, \"k\": %d, \"cross_checked\": %s, "
        "\"oracle_seconds\": %.4f, \"engine_seconds\": %.4f, "
        "\"speedup\": %.3f, "
        "\"entities_scored\": %llu, \"scored_fraction\": %.4f}%s\n",
        p.label.c_str(), static_cast<long long>(p.num_entities),
        p.num_queries, p.k, p.cross_checked ? "true" : "false",
        p.oracle_seconds, p.engine_seconds, p.speedup,
        static_cast<unsigned long long>(p.entities_scored),
        p.scored_fraction, i + 1 < topk.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace kgc

int main(int argc, char** argv) {
  kgc::bench::BenchTelemetry telemetry("bench_scale", &argc, argv);
  const bool smoke = kgc::bench::ConsumeBoolFlag(&argc, argv, "--smoke");

  kgc::bench::PrintHeader("Storage substrate at scale",
                          "CSR TripleStore + flat membership probes");
  std::vector<kgc::SizeResult> results;
  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{100'000}
            : std::vector<int64_t>{10'000, 100'000, 1'000'000};
  for (int64_t size : sizes) {
    results.push_back(kgc::RunSize(size));
  }
  const std::vector<kgc::bench::TopKBenchPoint> topk =
      kgc::RunTopKLadder(smoke);
  if (!smoke) {
    // Smoke mode is a CI gate (often under a sanitizer); only the full
    // ladder overwrites the benchmark artifact.
    kgc::WriteJson(results, topk, "BENCH_scale.json");
    std::printf("wrote BENCH_scale.json\n");
  }

  int exit_code = 0;
  if (smoke) {
    // CI budget: the 100k store must stay under the acceptance ceiling and
    // batched probes must not regress below the replaced substrate.
    const kgc::SizeResult& r = results.front();
    if (r.bytes_per_triple > 64.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: %.1f bytes/triple exceeds the 64-byte "
                   "budget\n",
                   r.bytes_per_triple);
      exit_code = 1;
    }
    if (r.batch_speedup < 1.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: batched probes slower than the "
                   "unordered_set baseline (%.2fx)\n",
                   r.batch_speedup);
      exit_code = 1;
    }
    // Top-K: the K=10 run must have passed the oracle cross-check (the
    // engine aborts on a mismatch; this catches a run made without it).
    for (const kgc::bench::TopKBenchPoint& p : topk) {
      if (p.k == 10 && !p.cross_checked) {
        std::fprintf(stderr,
                     "SMOKE FAIL: top-K ladder ran without the oracle "
                     "cross-check\n");
        exit_code = 1;
      }
    }
  } else {
    for (const kgc::SizeResult& r : results) {
      const bool ok = r.bytes_per_triple < 64.0 &&
                      (r.requested_entities < 1'000'000 ||
                       r.batch_speedup >= 3.0);
      std::printf("%s at %lld entities (%.1f B/triple, %.2fx)\n",
                  ok ? "ACCEPTANCE PASS" : "ACCEPTANCE MISS",
                  static_cast<long long>(r.requested_entities),
                  r.bytes_per_triple, r.batch_speedup);
    }
  }
  return telemetry.Finish(exit_code);
}
