// Shared helpers for the bench harness.
//
// Every bench binary regenerates one table or figure of the paper. They all
// share one ExperimentContext (and thus one on-disk cache of trained models
// and rank tables), so the whole suite trains each (dataset, model) pair
// exactly once regardless of execution order.

#ifndef KGC_BENCH_BENCH_COMMON_H_
#define KGC_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/experiment_context.h"
#include "eval/comparison.h"
#include "eval/topk.h"
#include "rules/amie.h"
#include "rules/simple_rule_model.h"
#include "util/stopwatch.h"

namespace kgc::bench {

/// Telemetry bracket for a bench binary.
///
/// Construction parses and strips the telemetry flags from argv (updating
/// *argc in place, so later argument parsers never see them):
///
///   --report=PATH     append a run report line to PATH (overrides
///                     KGC_METRICS for this run)
///   --trace=PATH      write a Chrome trace to PATH (overrides KGC_TRACE)
///   --log-level=L     debug | info | warning | error
///
/// `Finish(exit_code)` appends the machine-readable run report — when a
/// report path came from --report or KGC_METRICS — and flushes the trace,
/// then returns `exit_code` unchanged so it can wrap a return statement.
///
/// Construction also installs crash hooks: fatal-signal handlers (SEGV,
/// ABRT, TERM, ...) and an atexit fallback that flush the run report with
/// the real exit cause (`exit_cause`: "signal:SIGABRT",
/// "deadline:<phase>", ...) when the binary dies before reaching the
/// normal Finish call — so every run, crashed or not, leaves exactly one
/// attributed report line.
class BenchTelemetry {
 public:
  BenchTelemetry(const char* name, int* argc, char** argv);
  int Finish(int exit_code);

 private:
  std::string name_;
  std::string report_path_;
  Stopwatch watch_;
  bool finished_ = false;
};

/// Standard main() body for table/figure benches: wraps `run` in a
/// BenchTelemetry bracket. Usage:
///   int main(int argc, char** argv) {
///     return kgc::bench::RunBench(argc, argv, "bench_table5_fb15k", Run);
///   }
int RunBench(int argc, char** argv, const char* name, int (*run)());

/// Argv flag consumption for bench binaries that also hand argv to
/// google-benchmark. Both helpers accept the `--name=value` and the
/// `--name value` spellings, remove every matched token from argv
/// (compacting in place and updating *argc), and must therefore run
/// BEFORE benchmark::Initialize — whatever is left over is what
/// ReportUnrecognizedArguments sees, so stripped flags compose freely
/// with --benchmark_filter and friends.
///
/// ConsumeValueFlag returns true and stores the last occurrence's value
/// when the flag appears; ConsumeBoolFlag returns true when the bare
/// flag (or `--name=true`/`--name=1`) appears.
bool ConsumeValueFlag(int* argc, char** argv, const char* name,
                      std::string* value);
bool ConsumeBoolFlag(int* argc, char** argv, const char* name);

/// Deterministic mixed head/tail top-K queries over a model's id space.
std::vector<TopKQuery> MakeTopKBenchQueries(int32_t num_entities,
                                            int32_t num_relations,
                                            size_t count, uint64_t seed);

/// One measured point of the top-K fast path against the full-sweep oracle.
struct TopKBenchPoint {
  std::string label;        // workload name, e.g. "transe_unit_norm"
  int64_t num_entities = 0;
  size_t num_queries = 0;
  int k = 0;
  bool filtered = false;       // scored against a filter store
  size_t queries_per_run = 0;  // queries per TopKEngine::Run call
  double oracle_seconds = 0;  // best-of-reps, serial OracleTopK per query
  double engine_seconds = 0;  // best-of-reps, TopKEngine threads=1
  double speedup = 0;         // oracle_seconds / engine_seconds
  // kgc.topk.* counter deltas over one engine run.
  uint64_t entities_scored = 0;
  uint64_t heap_pushes = 0;
  uint64_t queries_batched = 0;
  double scored_fraction = 0;  // entities_scored / (num_queries * entities)
  bool cross_checked = false;  // an oracle cross-check run passed
};

/// Times the engine against the per-query oracle on `queries`, best-of-
/// `reps` wall clock for each side, engine pinned to one thread so the
/// comparison is core-for-core. `filter` (may be null) is passed to both
/// sides. The engine gets `queries_per_run` queries per Run call (0: all of
/// them in one), as a server runs it once per batch. When `cross_check` is
/// set, one extra (untimed) engine pass executes with
/// TopKOptions::cross_check — it aborts the process on any bit-level
/// disagreement with the oracle.
TopKBenchPoint MeasureTopKRetrieval(const KgeModel& model,
                                    const std::string& label,
                                    std::span<const TopKQuery> queries, int k,
                                    bool cross_check, int reps,
                                    const TripleStore* filter = nullptr,
                                    size_t queries_per_run = 0);

/// Builds the canonical context: cache dir from $KGC_CACHE_DIR (default
/// "kgc_cache"), default seeds, quiet training logs.
ExperimentContext MakeContext();

/// AMIE predictor over a dataset's training split. The returned predictor
/// references `dataset`; keep the dataset alive.
std::unique_ptr<RulePredictor> BuildAmie(const Dataset& dataset);

/// Ranks for the AMIE predictor, through the context's rank cache.
const std::vector<TripleRanks>& AmieRanks(ExperimentContext& context,
                                          const Dataset& dataset);

/// The paper's simple rule model (>0.8 intersection), detected on the full
/// dataset as in §4.2.1. References `dataset`.
std::unique_ptr<SimpleRuleModel> BuildSimpleModel(const Dataset& dataset);

/// Formatting helpers.
std::string Mr(double value);        // mean rank, 1 decimal
std::string Pct(double fraction);    // percentage, 1 decimal
std::string Mrr(double value);       // reciprocal rank, 3 decimals

/// Eight-column row "MR H10 MRR FMR FH10 FMRR" (paper Tables 5/6 layout).
std::vector<std::string> RawAndFilteredRow(const std::string& label,
                                           const LinkPredictionMetrics& m);

/// Marks a bench header so outputs are self-describing.
void PrintHeader(const std::string& title, const std::string& paper_ref);

}  // namespace kgc::bench

#endif  // KGC_BENCH_BENCH_COMMON_H_
