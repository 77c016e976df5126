// Micro-benchmarks (google-benchmark): scoring-function and ranking
// throughput per model, plus triple-store lookup costs. These are the
// throughput primitives the whole harness is built on.
//
// After the google-benchmark suite, five sections write machine-readable
// JSON to BENCH_scoring.json in the working directory:
//   - thread_scaling:    the Figure 1 lineup ranked on FB15k-syn in one
//                        RankTriples sweep at 1 / 2 / N / 8 workers;
//   - kernel_paths:      per-model ScoreTails sweeps under the generic vs
//                        the -march native kernel dispatch path;
//   - query_dedup:       RankTriples on a duplicate-heavy test list with
//                        query deduplication off vs on, with the
//                        score_evals deltas;
//   - exporter_overhead: the ScoreTails sweep with the live metrics
//                        exporter off vs running at 100 ms;
//   - topk:              the TopKEngine fast path vs the full-sweep oracle
//                        on untrained 100k-entity TransE and DistMult
//                        tables, plus TransE/H/R/D trained like kgc_serve's
//                        scale:10000 generation, one query per run and all
//                        in one.
//
// Flags: the telemetry flags (--report/--trace/--log-level) and --topk
// (run only the topk post-suite section) accept both --flag=value and
// --flag value spellings and are stripped from argv before
// benchmark::Initialize, so they compose with --benchmark_filter and the
// rest of google-benchmark's flags in any order.

#include <benchmark/benchmark.h>

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "datagen/presets.h"
#include "datagen/streaming.h"
#include "eval/ranker.h"
#include "kg/kg_io.h"
#include "models/model.h"
#include "models/trainer.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/resource_stats.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

const SyntheticKg& SharedKg() {
  static const SyntheticKg* kg = new SyntheticKg(GenerateTiny(11));
  return *kg;
}

std::unique_ptr<KgeModel> MakeModel(ModelType type) {
  const SyntheticKg& kg = SharedKg();
  return CreateModel(type, kg.dataset.num_entities(),
                     kg.dataset.num_relations(), DefaultHyperParams(type));
}

void BM_Score(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const auto model = MakeModel(type);
  EntityId h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Score(h, 1, (h + 7) % 100));
    h = (h + 1) % 100;
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_Score)->DenseRange(0, 9, 1);

void BM_ScoreTails(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const auto model = MakeModel(type);
  std::vector<float> scores(static_cast<size_t>(model->num_entities()));
  EntityId h = 0;
  for (auto _ : state) {
    model->ScoreTails(h, 1, scores);
    benchmark::DoNotOptimize(scores.data());
    h = (h + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations() * model->num_entities());
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_ScoreTails)->DenseRange(0, 9, 1);

void BM_ApplyGradient(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const auto model = MakeModel(type);
  EntityId h = 0;
  for (auto _ : state) {
    model->ApplyGradient(Triple{h, 1, (h + 7) % 100}, -0.5f, 0.01f);
    h = (h + 1) % 100;
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_ApplyGradient)->DenseRange(0, 9, 1);

void BM_TripleStoreContains(benchmark::State& state) {
  const TripleStore& store = SharedKg().dataset.train_store();
  const TripleList& triples = SharedKg().dataset.train();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Contains(triples[i % triples.size()]));
    ++i;
  }
}
BENCHMARK(BM_TripleStoreContains);

void BM_TripleStoreTails(benchmark::State& state) {
  const TripleStore& store = SharedKg().dataset.train_store();
  const TripleList& triples = SharedKg().dataset.train();
  size_t i = 0;
  for (auto _ : state) {
    const Triple& t = triples[i % triples.size()];
    benchmark::DoNotOptimize(store.Tails(t.head, t.relation).size());
    ++i;
  }
}
BENCHMARK(BM_TripleStoreTails);

void BM_RankOneTriple(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const SyntheticKg& kg = SharedKg();
  const auto model = MakeModel(type);
  TripleList one = {kg.dataset.test().front()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(RankTriples(*model, kg.dataset, one));
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_RankOneTriple)->Arg(0)->Arg(6)->Arg(8)->Arg(9);

// --- Thread scaling --------------------------------------------------------

struct ScalingPoint {
  int threads = 0;
  double seconds = 0.0;
  /// Ranked (model, test triple) pairs per second.
  double triples_per_sec = 0.0;
};

/// Best-of-3 wall time of one multi-predictor RankTriples sweep over
/// `models` at `threads` workers; `tables` receives the last run's output.
ScalingPoint MeasureRankingThroughput(
    std::span<const LinkPredictor* const> models, const Dataset& dataset,
    int threads, std::vector<std::vector<TripleRanks>>* tables) {
  RankerOptions options;
  options.threads = threads;
  ScalingPoint point;
  point.threads = threads;
  point.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    *tables = RankTriples(models, dataset, dataset.test(), options);
    benchmark::DoNotOptimize(tables->data());
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    point.seconds = std::min(point.seconds, elapsed.count());
  }
  point.triples_per_sec = static_cast<double>(models.size()) *
                          static_cast<double>(dataset.test().size()) /
                          point.seconds;
  return point;
}

/// Times the paper-size ranking sweep — the six-model Figure 1 lineup on
/// FB15k-syn in one multi-predictor RankTriples call, as WarmRanks runs it
/// — at 1 / 2 / N threads (N = the KGC_THREADS / hardware default) plus 8
/// as a fixed reference point, checks every table stays bit-identical to
/// the 1-thread run, and writes the thread_scaling JSON section. The
/// models are untrained: training does not change what a model costs to
/// score or to rank.
int RunThreadScaling(std::ostream& out) {
  const SyntheticKg kg = GenerateSynthFb15k();
  const Dataset& dataset = kg.dataset;
  std::vector<std::unique_ptr<KgeModel>> owned;
  std::vector<const LinkPredictor*> models;
  std::string names;
  for (ModelType type : FigureModelLineup()) {
    owned.push_back(CreateModel(type, dataset.num_entities(),
                                dataset.num_relations(),
                                DefaultHyperParams(type)));
    models.push_back(owned.back().get());
    if (!names.empty()) names += ", ";
    names += std::string("\"") + ModelTypeName(type) + "\"";
  }
  // Build the filter store up front so the first timed run is not charged
  // for it.
  dataset.all_store();

  std::vector<int> thread_counts = {1, 2, DefaultThreadCount(), 8};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  std::vector<ScalingPoint> points;
  std::vector<std::vector<TripleRanks>> baseline;
  bool bit_identical = true;
  for (int threads : thread_counts) {
    std::vector<std::vector<TripleRanks>> tables;
    points.push_back(
        MeasureRankingThroughput(models, dataset, threads, &tables));
    if (baseline.empty()) {
      baseline = std::move(tables);
      continue;
    }
    for (size_t m = 0; m < tables.size(); ++m) {
      for (size_t i = 0; i < tables[m].size(); ++i) {
        const TripleRanks& a = tables[m][i];
        const TripleRanks& b = baseline[m][i];
        if (a.head_raw != b.head_raw || a.head_filtered != b.head_filtered ||
            a.tail_raw != b.tail_raw || a.tail_filtered != b.tail_filtered) {
          bit_identical = false;
        }
      }
    }
  }

  const double base_rate = points.front().triples_per_sec;
  out << "  \"thread_scaling\": {\n"
      << "    \"dataset\": \"" << dataset.name() << "\",\n"
      << "    \"num_entities\": " << dataset.num_entities() << ",\n"
      << "    \"num_test_triples\": " << dataset.test().size() << ",\n"
      << "    \"models\": [" << names << "],\n"
      << "    \"trained\": false,\n"
      << "    \"bit_identical_across_thread_counts\": "
      << (bit_identical ? "true" : "false") << ",\n"
      << "    \"results\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    out << "      {\"threads\": " << points[i].threads
        << ", \"seconds\": " << points[i].seconds
        << ", \"triples_per_sec\": " << points[i].triples_per_sec
        << ", \"speedup_vs_1\": " << points[i].triples_per_sec / base_rate
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }";

  std::printf("\nthread scaling (RankTriples, %zu models x %zu test triples "
              "of %s)\n",
              models.size(), dataset.test().size(), dataset.name().c_str());
  for (const ScalingPoint& p : points) {
    std::printf("  threads=%d  %.3fs  %.0f triples/s  (%.2fx)\n", p.threads,
                p.seconds, p.triples_per_sec, p.triples_per_sec / base_rate);
  }
  if (!bit_identical) {
    std::fprintf(stderr, "ERROR: ranks differ across thread counts\n");
    return 1;
  }
  return 0;
}

// --- Kernel dispatch paths -------------------------------------------------

/// Best-of-3 time of `reps` full ScoreTails sweeps under the active kernel
/// path, in nanoseconds per scored entity.
double MeasureSweepNsPerEntity(const KgeModel& model, int reps) {
  std::vector<float> scores(static_cast<size_t>(model.num_entities()));
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      model.ScoreTails(static_cast<EntityId>(i % 100), 1, scores);
      benchmark::DoNotOptimize(scores.data());
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best / (static_cast<double>(reps) *
                 static_cast<double>(model.num_entities()));
}

/// The kernel path the dispatcher resolved (the default, or KGC_KERNEL's
/// choice); sections that pin a path restore it when they finish.
vec::KernelPath ActiveKernelPath() {
  return std::strcmp(vec::Ops().name, "native") == 0
             ? vec::KernelPath::kNative
             : vec::KernelPath::kGeneric;
}

/// Times every model's ScoreTails sweep under the generic and (when
/// available) the -march native kernel path and writes the kernel_paths
/// JSON section. The active path is restored afterwards.
void RunKernelPaths(std::ostream& out) {
  const vec::KernelPath active = ActiveKernelPath();
  const bool native = vec::NativeKernelsAvailable();
  out << "  \"kernel_paths\": {\n"
      << "    \"native_available\": " << (native ? "true" : "false") << ",\n"
      << "    \"models\": [\n";
  std::printf("\nkernel paths (ScoreTails ns/entity, native %s)\n",
              native ? "available" : "unavailable");
  const int reps = 50;
  for (int m = 0; m <= 9; ++m) {
    const auto type = static_cast<ModelType>(m);
    const auto model = MakeModel(type);
    vec::SetKernelPathForTest(vec::KernelPath::kGeneric);
    MeasureSweepNsPerEntity(*model, 5);  // warm caches before timing
    const double generic_ns = MeasureSweepNsPerEntity(*model, reps);
    double native_ns = 0.0;
    if (native) {
      vec::SetKernelPathForTest(vec::KernelPath::kNative);
      MeasureSweepNsPerEntity(*model, 5);
      native_ns = MeasureSweepNsPerEntity(*model, reps);
    }
    out << "      {\"model\": \"" << ModelTypeName(type)
        << "\", \"generic_ns_per_entity\": " << generic_ns;
    if (native) {
      out << ", \"native_ns_per_entity\": " << native_ns
          << ", \"native_speedup\": " << generic_ns / native_ns;
    }
    out << "}" << (m < 9 ? "," : "") << "\n";
    if (native) {
      std::printf("  %-10s generic %8.2f  native %8.2f  (%.2fx)\n",
                  ModelTypeName(type), generic_ns, native_ns,
                  generic_ns / native_ns);
    } else {
      std::printf("  %-10s generic %8.2f\n", ModelTypeName(type), generic_ns);
    }
  }
  vec::SetKernelPathForTest(active);
  out << "    ]\n  }";
}

// --- Query deduplication ---------------------------------------------------

/// Times RankTriples on a duplicate-heavy test list with query dedup off vs
/// on (under each compiled kernel path), records the score_evals counter
/// delta for each run, verifies ranks are bit-identical, and writes the
/// query_dedup JSON section. Returns non-zero if ranks diverge.
int RunQueryDedup(std::ostream& out) {
  const vec::KernelPath active = ActiveKernelPath();
  const SyntheticKg& kg = SharedKg();
  const auto model = MakeModel(ModelType::kTransE);
  // A few anchors fanned out over many tails: most triples share their
  // (head, relation) query, and the shared tails make the reverse
  // (relation, tail) queries heavily duplicated too.
  TripleList dup;
  for (size_t i = 0; i < 5; ++i) {
    const Triple& base = kg.dataset.test()[i % kg.dataset.test().size()];
    for (EntityId t = 0; t < 40; ++t) {
      dup.push_back({base.head, base.relation, t});
    }
  }
  obs::Counter& score_evals =
      obs::Registry::Get().GetCounter(obs::kRankerScoreEvals);

  struct DedupPoint {
    const char* kernel;
    bool dedup;
    double seconds;
    uint64_t evals;
  };
  std::vector<DedupPoint> points;
  std::vector<TripleRanks> baseline;
  bool bit_identical = true;
  const std::vector<vec::KernelPath> paths =
      vec::NativeKernelsAvailable()
          ? std::vector<vec::KernelPath>{vec::KernelPath::kGeneric,
                                         vec::KernelPath::kNative}
          : std::vector<vec::KernelPath>{vec::KernelPath::kGeneric};
  for (vec::KernelPath path : paths) {
    vec::SetKernelPathForTest(path);
    for (bool dedup : {false, true}) {
      RankerOptions options;
      options.threads = 1;
      options.dedup_queries = dedup;
      DedupPoint point;
      point.kernel = vec::OpsFor(path).name;
      point.dedup = dedup;
      point.seconds = std::numeric_limits<double>::infinity();
      std::vector<TripleRanks> ranks;
      for (int rep = 0; rep < 3; ++rep) {
        const uint64_t evals_before = score_evals.value();
        const auto start = std::chrono::steady_clock::now();
        ranks = RankTriples(*model, kg.dataset, dup, options);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        point.seconds = std::min(point.seconds, elapsed.count());
        point.evals = score_evals.value() - evals_before;
      }
      if (baseline.empty()) {
        baseline = ranks;
      } else {
        for (size_t i = 0; i < ranks.size(); ++i) {
          if (ranks[i].head_raw != baseline[i].head_raw ||
              ranks[i].head_filtered != baseline[i].head_filtered ||
              ranks[i].tail_raw != baseline[i].tail_raw ||
              ranks[i].tail_filtered != baseline[i].tail_filtered) {
            bit_identical = false;
          }
        }
      }
      points.push_back(point);
    }
  }
  vec::SetKernelPathForTest(active);

  out << "  \"query_dedup\": {\n"
      << "    \"model\": \"" << ModelTypeName(ModelType::kTransE) << "\",\n"
      << "    \"num_test_triples\": " << dup.size() << ",\n"
      << "    \"bit_identical_dedup_on_vs_off\": "
      << (bit_identical ? "true" : "false") << ",\n"
      << "    \"results\": [\n";
  std::printf("\nquery dedup (RankTriples, %zu duplicate-heavy triples)\n",
              dup.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const DedupPoint& p = points[i];
    out << "      {\"kernel\": \"" << p.kernel << "\", \"dedup\": "
        << (p.dedup ? "true" : "false") << ", \"seconds\": " << p.seconds
        << ", \"score_evals\": " << p.evals << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
    std::printf("  kernel=%-7s dedup=%-5s  %.4fs  %llu score evals\n",
                p.kernel, p.dedup ? "on" : "off", p.seconds,
                static_cast<unsigned long long>(p.evals));
  }
  out << "    ]\n  }";
  if (!bit_identical) {
    std::fprintf(stderr, "ERROR: ranks differ between dedup on and off\n");
    return 1;
  }
  return 0;
}

// --- Exporter overhead -----------------------------------------------------

struct SweepWindow {
  double process_cpu_seconds = 0.0;  ///< all threads, user+sys
  double thread_cpu_seconds = 0.0;   ///< the measuring thread alone
  double wall_ns_per_entity = 0.0;
  int64_t sweeps = 0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs `sweeps` full ScoreTails sweeps and measures both the process CPU
/// (every thread, via getrusage) and this thread's CPU for the window.
/// With only the measuring thread and (optionally) the exporter thread
/// alive, process minus thread CPU is *exactly* the exporter's cost: the
/// sweep's own run-to-run variance appears identically in both clocks and
/// cancels, and CPU burned by unrelated processes on a loaded machine is
/// charged to neither.
SweepWindow MeasureSweepWindow(const KgeModel& model, int64_t sweeps) {
  std::vector<float> scores(static_cast<size_t>(model.num_entities()));
  const obs::ResourceUsage before = obs::SampleProcessResources();
  const double thread_before = ThreadCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < sweeps; ++i) {
    model.ScoreTails(static_cast<EntityId>(i % 100), 1, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const double thread_after = ThreadCpuSeconds();
  const obs::ResourceUsage after = obs::SampleProcessResources();
  SweepWindow window;
  window.process_cpu_seconds =
      (after.cpu_user_seconds + after.cpu_sys_seconds) -
      (before.cpu_user_seconds + before.cpu_sys_seconds);
  window.thread_cpu_seconds = thread_after - thread_before;
  window.wall_ns_per_entity =
      elapsed.count() / (static_cast<double>(sweeps) *
                         static_cast<double>(model.num_entities()));
  window.sweeps = sweeps;
  return window;
}

/// Times the DistMult ScoreTails sweep with the metrics exporter off and
/// then running at a 100 ms interval, and writes the exporter_overhead
/// JSON section. The overhead is attributed directly: per on-window,
/// exporter CPU = process CPU - measuring-thread CPU (the only other
/// thread alive is the exporter's), and overhead% = exporter CPU /
/// thread CPU. The same difference over the off-windows (~0) is
/// subtracted as a baseline for accounting skew. Unlike comparing wall
/// or even process CPU between off and on windows — which differences
/// two large numbers whose cache- and scheduler-induced variance dwarfs
/// the exporter's cost on a busy single-core box — each round here
/// measures the exporter's ticks exactly. The budget is <= 1% overhead.
void RunExporterOverhead(std::ostream& out) {
  const auto model = MakeModel(ModelType::kDistMult);
  const bool already_running = obs::ExporterRunning();
  const int rounds = 5;

  obs::ExporterOptions options;
  options.run_name = "bench_micro_scoring.overhead";
  options.interval_ms = 100;
  options.timeseries_path = "kgc_timeseries_overhead.jsonl";
  options.exposition_path = "kgc_metrics_overhead.prom";

  // Calibrate the per-window sweep count to ~500 ms of work, so each
  // window spans several exporter ticks; then warm the caches.
  const SweepWindow probe = MeasureSweepWindow(*model, 200);
  const double sweep_ns = probe.wall_ns_per_entity *
                          static_cast<double>(model->num_entities());
  const int64_t sweeps_per_window =
      std::max<int64_t>(200, static_cast<int64_t>(0.5e9 / sweep_ns));

  double off_ns = std::numeric_limits<double>::infinity();
  double on_ns = std::numeric_limits<double>::infinity();
  std::vector<double> on_pcts;   // exporter CPU share per on-window, %
  std::vector<double> off_pcts;  // same difference with exporter off, ~0
  uint64_t records = 0;
  if (already_running) {
    on_ns = MeasureSweepWindow(*model, sweeps_per_window).wall_ns_per_entity;
  } else {
    for (int round = 0; round < rounds; ++round) {
      const SweepWindow off = MeasureSweepWindow(*model, sweeps_per_window);
      obs::StartExporter(options);
      const uint64_t before = obs::ExporterRecordsWritten();
      const SweepWindow on = MeasureSweepWindow(*model, sweeps_per_window);
      records += obs::ExporterRecordsWritten() - before;
      obs::StopGlobalExporter();
      off_ns = std::min(off_ns, off.wall_ns_per_entity);
      on_ns = std::min(on_ns, on.wall_ns_per_entity);
      if (on.thread_cpu_seconds > 0.0 && off.thread_cpu_seconds > 0.0) {
        on_pcts.push_back(
            (on.process_cpu_seconds - on.thread_cpu_seconds) /
            on.thread_cpu_seconds * 100.0);
        off_pcts.push_back(
            (off.process_cpu_seconds - off.thread_cpu_seconds) /
            off.thread_cpu_seconds * 100.0);
      }
    }
    std::sort(on_pcts.begin(), on_pcts.end());
    std::sort(off_pcts.begin(), off_pcts.end());
  }

  out << "  \"exporter_overhead\": {\n"
      << "    \"model\": \"" << ModelTypeName(ModelType::kDistMult) << "\",\n"
      << "    \"interval_ms\": 100,\n";
  if (already_running) {
    // An env-started exporter covers the whole process; there is no
    // exporter-off baseline to compare against in this configuration.
    out << "    \"exporter_already_running\": true,\n"
        << "    \"exporter_on_ns_per_entity\": " << on_ns << "\n  }";
    std::printf("\nexporter overhead: skipped baseline (exporter already "
                "running via KGC_METRICS_INTERVAL_MS)\n");
    return;
  }
  const double overhead_pct =
      on_pcts.empty()
          ? 0.0
          : on_pcts[on_pcts.size() / 2] - off_pcts[off_pcts.size() / 2];
  out << "    \"exporter_off_ns_per_entity\": " << off_ns << ",\n"
      << "    \"exporter_on_ns_per_entity\": " << on_ns << ",\n"
      << "    \"overhead_percent\": " << overhead_pct << ",\n"
      << "    \"records_written_during_measurement\": " << records
      << "\n  }";
  std::printf("\nexporter overhead (ScoreTails ns/entity, 100 ms interval)\n"
              "  off %.2f  on %.2f  overhead %.2f%%  (%llu records)\n",
              off_ns, on_ns, overhead_pct,
              static_cast<unsigned long long>(records));
}

// --- Top-K retrieval -------------------------------------------------------

/// The engine on the models kgc_serve would serve: TransE, TransH, TransR
/// and TransD trained the way `kgc_serve --bootstrap=scale:10000` trains
/// generation 0 (the streamed preset at kgc_serve's default --seed, default
/// hyper-parameters and TrainOptions, 6 epochs), asked filtered top-10
/// head/tail queries drawn from the test split the way served traffic draws
/// them. Each model runs once with one query per Run (a server batch at the
/// serving defaults) and once with all queries in one Run. Every row is
/// oracle cross-checked. Appends the rows to `points`; returns false if the
/// dataset could not be made.
bool MeasureTrainedTopK(int reps, std::vector<bench::TopKBenchPoint>* points) {
  constexpr int64_t kScaleEntities = 10000;
  constexpr uint64_t kSeed = 7;  // kgc_serve's --seed default
  constexpr int kEpochs = 6;     // kgc_serve's --bootstrap-epochs default
  constexpr size_t kQueries = 128;
  constexpr int kK = 10;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("kgc_bench_topk_trained_" + std::to_string(::getpid())))
          .string();
  StreamDatagenOptions gen;
  gen.out_dir = dir;
  gen.seed = kSeed;
  gen.write_world = false;  // as kgc_serve: the splits, not the world
  const auto streamed = StreamDataset(ScaleSpec(kScaleEntities), gen);
  auto dataset = streamed.ok() ? LoadOpenKeDataset(dir, "scale:10000")
                               : StatusOr<Dataset>(streamed.status());
  std::filesystem::remove_all(dir);
  if (!dataset.ok()) {
    std::fprintf(stderr, "topk trained rows: %s\n",
                 dataset.status().ToString().c_str());
    return false;
  }

  const TripleList& test = dataset->test();
  Rng rng(kSeed);
  std::vector<TopKQuery> queries(kQueries);
  for (TopKQuery& query : queries) {
    const Triple& t = test[rng.Uniform(test.size())];
    query.tails = rng.Bernoulli(0.5);
    query.relation = t.relation;
    query.anchor = query.tails ? t.head : t.tail;
  }

  const std::pair<ModelType, const char*> kModels[] = {
      {ModelType::kTransE, "transe_trained"},
      {ModelType::kTransH, "transh_trained"},
      {ModelType::kTransR, "transr_trained"},
      {ModelType::kTransD, "transd_trained"}};
  for (const auto& [type, label] : kModels) {
    const auto model =
        CreateModel(type, dataset->num_entities(), dataset->num_relations(),
                    DefaultHyperParams(type));
    TrainOptions train;
    train.epochs = kEpochs;
    train.seed = kSeed;
    TrainModel(*model, *dataset, train);
    for (const size_t per_run : {size_t{1}, kQueries}) {
      points->push_back(bench::MeasureTopKRetrieval(
          *model, label, queries, kK, /*cross_check=*/true, reps,
          &dataset->all_store(), per_run));
    }
  }
  return true;
}

/// Times the TopKEngine fast path against the per-query full-sweep oracle
/// and writes the topk JSON section. Untrained tables at 100k entities:
///   - transe_unit_norm: a fresh TransE table (the model projects its
///     entities to the unit sphere), a negated L2 distance sweep;
///   - distmult_dot: a dot-product sweep;
/// and the trained models of MeasureTrainedTopK
/// ({transe,transh,transr,transd}_trained). Every row first runs an oracle
/// cross-check (aborts on a bit-level mismatch).
int RunTopKRetrieval(std::ostream& out) {
  constexpr int32_t kEntities = 100000;
  constexpr size_t kDim = 64;
  constexpr int32_t kRelations = 8;
  constexpr size_t kQueries = 128;
  constexpr int kReps = 3;

  const std::vector<TopKQuery> queries =
      bench::MakeTopKBenchQueries(kEntities, kRelations, kQueries, 17);
  std::vector<bench::TopKBenchPoint> points;
  const std::pair<ModelType, const char*> kTables[] = {
      {ModelType::kTransE, "transe_unit_norm"},
      {ModelType::kDistMult, "distmult_dot"}};
  for (const auto& [type, label] : kTables) {
    ModelHyperParams params = DefaultHyperParams(type);
    params.dim = kDim;
    const auto model = CreateModel(type, kEntities, kRelations, params);
    points.push_back(bench::MeasureTopKRetrieval(
        *model, label, queries, 10, /*cross_check=*/true, kReps));
  }
  const int rc = MeasureTrainedTopK(kReps, &points) ? 0 : 1;

  out << "  \"topk\": {\n"
      << "    \"num_entities\": " << kEntities << ",\n"
      << "    \"dim\": " << kDim << ",\n"
      << "    \"num_queries\": " << kQueries << ",\n"
      << "    \"results\": [\n";
  std::printf("\ntop-K retrieval (engine threads=1 vs full-sweep oracle; "
              "untrained rows: %d entities, dim %zu, %zu queries)\n",
              kEntities, kDim, kQueries);
  for (size_t i = 0; i < points.size(); ++i) {
    const bench::TopKBenchPoint& p = points[i];
    const double engine_us_per_query =
        p.engine_seconds * 1e6 / static_cast<double>(p.num_queries);
    out << "      {\"workload\": \"" << p.label << "\", \"k\": " << p.k
        << ", \"cross_checked\": " << (p.cross_checked ? "true" : "false")
        << ", \"num_entities\": " << p.num_entities
        << ", \"num_queries\": " << p.num_queries
        << ", \"queries_per_run\": " << p.queries_per_run
        << ", \"filtered\": " << (p.filtered ? "true" : "false")
        << ", \"oracle_seconds\": " << p.oracle_seconds
        << ", \"engine_seconds\": " << p.engine_seconds
        << ", \"engine_us_per_query\": " << engine_us_per_query
        << ", \"speedup\": " << p.speedup
        << ", \"entities_scored\": " << p.entities_scored
        << ", \"scored_fraction\": " << p.scored_fraction
        << ", \"heap_pushes\": " << p.heap_pushes
        << ", \"queries_batched\": " << p.queries_batched << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
    std::printf("  %-16s K=%-3d run=%-3zu  oracle %.3fs  engine %.3fs "
                "(%7.1f us/query)  %6.2fx  scored %5.1f%%%s\n",
                p.label.c_str(), p.k, p.queries_per_run, p.oracle_seconds,
                p.engine_seconds, engine_us_per_query, p.speedup,
                p.scored_fraction * 100.0,
                p.cross_checked ? "  [cross-checked]" : "");
  }
  out << "    ]\n  }";
  return rc;
}

/// Runs the post-suite sections and composes BENCH_scoring.json. With
/// --topk only the topk section is produced (and the JSON holds just that
/// section).
int RunPostSuiteSections(bool topk_only) {
  const SyntheticKg& kg = SharedKg();
  std::ofstream out("BENCH_scoring.json");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_scoring.json\n");
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"micro_scoring\",\n"
      << "  \"dataset\": \"" << kg.dataset.name() << "\",\n"
      << "  \"num_test_triples\": " << kg.dataset.test().size() << ",\n"
      << "  \"num_entities\": " << kg.dataset.num_entities() << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"default_threads\": " << DefaultThreadCount() << ",\n";
  int rc = 0;
  if (!topk_only) {
    rc = RunThreadScaling(out);
    out << ",\n";
    RunKernelPaths(out);
    out << ",\n";
    rc |= RunQueryDedup(out);
    out << ",\n";
    RunExporterOverhead(out);
    out << ",\n";
  }
  rc |= RunTopKRetrieval(out);
  out << "\n}\n";
  std::printf("-> BENCH_scoring.json\n");
  return rc;
}

}  // namespace
}  // namespace kgc

int main(int argc, char** argv) {
  // Telemetry flags and --topk must come off argv before google-benchmark
  // sees them, or ReportUnrecognizedArguments rejects the invocation. Both
  // strippers accept the --flag=value and --flag value forms, so e.g.
  //   bench_micro_scoring --benchmark_filter=NONE --topk --report out.jsonl
  // works in any argument order.
  kgc::bench::BenchTelemetry telemetry("bench_micro_scoring", &argc, argv);
  const bool topk_only = kgc::bench::ConsumeBoolFlag(&argc, argv, "--topk");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return telemetry.Finish(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return telemetry.Finish(kgc::RunPostSuiteSections(topk_only));
}
