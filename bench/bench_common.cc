#include "bench/bench_common.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgc::bench {
namespace {

// Matches argv[*i] against `--name=value` or the two-token `--name value`
// form (advancing *i past the consumed value token). The shared primitive
// behind BenchTelemetry's flag stripping and the public Consume*Flag
// helpers, so every bench flag accepts both spellings.
bool MatchValueFlag(char** argv, int argc, int* i, const char* name,
                    std::string* value) {
  const std::string arg = argv[*i];
  const std::string prefix = std::string(name) + "=";
  if (arg.starts_with(prefix)) {
    *value = arg.substr(prefix.size());
    return true;
  }
  if (arg == name && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

// The telemetry bracket the crash hooks flush. One per process: bench
// binaries construct exactly one BenchTelemetry, and the hooks are only
// meaningful for it.
BenchTelemetry* g_active_telemetry = nullptr;

struct SignalName {
  int signal;
  const char* name;
};
constexpr SignalName kFatalSignals[] = {
    {SIGSEGV, "SIGSEGV"}, {SIGBUS, "SIGBUS"}, {SIGFPE, "SIGFPE"},
    {SIGILL, "SIGILL"},   {SIGABRT, "SIGABRT"}, {SIGTERM, "SIGTERM"},
    {SIGINT, "SIGINT"},
};

// Fatal-signal hook: attribute the run, flush report + trace, then die
// with the original signal so the parent (tools/kgc_suite) still sees the
// true exit status. Rendering JSON is not async-signal-safe; on a crash
// path a best-effort report beats none, and the re-raise below bounds the
// damage to losing the report line.
void CrashSignalHandler(int signal) {
  const char* name = "unknown";
  for (const SignalName& s : kFatalSignals) {
    if (s.signal == signal) name = s.name;
  }
  obs::SetRunExitCause(std::string("signal:") + name);
  if (g_active_telemetry != nullptr) {
    g_active_telemetry->Finish(128 + signal);
  }
  std::signal(signal, SIG_DFL);
  std::raise(signal);
}

// atexit fallback: a library called std::exit without going through
// RunBench (the deadline handler does exactly that). Finish is idempotent,
// so the normal path — where RunBench already finished — is a no-op.
void FlushReportAtExit() {
  if (g_active_telemetry == nullptr) return;
  const std::string cause = obs::RunExitCause();
  if (cause.empty()) obs::SetRunExitCause("early_exit");
  const int exit_code =
      cause.starts_with("deadline:") ? kDeadlineExitCode : -1;
  g_active_telemetry->Finish(exit_code);
}

void InstallCrashHooks(BenchTelemetry* telemetry) {
  g_active_telemetry = telemetry;
  static const bool installed = [] {
    for (const SignalName& s : kFatalSignals) {
      std::signal(s.signal, CrashSignalHandler);
    }
    std::atexit(FlushReportAtExit);
    return true;
  }();
  (void)installed;
}

}  // namespace

BenchTelemetry::BenchTelemetry(const char* name, int* argc, char** argv)
    : name_(name), report_path_(obs::MetricsPathFromEnv()) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string value;
    if (MatchValueFlag(argv, *argc, &i, "--report", &value)) {
      report_path_ = value;
    } else if (MatchValueFlag(argv, *argc, &i, "--trace", &value)) {
      obs::StartTracing(value);
    } else if (MatchValueFlag(argv, *argc, &i, "--log-level", &value)) {
      LogLevel level;
      if (ParseLogLevel(value, &level)) {
        SetLogLevel(level);
      } else {
        LogWarning("unknown --log-level value '%s' ignored", value.c_str());
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  if (!report_path_.empty()) obs::EnableSpanRollups();
  obs::StartExporterFromEnv(name_);
  InstallCrashHooks(this);
}

int BenchTelemetry::Finish(int exit_code) {
  if (finished_) return exit_code;
  finished_ = true;
  // After a completed Finish the crash hooks must not touch this object
  // again: it lives on RunBench's stack, which is gone by atexit time.
  // (On the std::exit / signal paths the stack is never unwound, so the
  // pointer is still valid when the hooks fire.)
  g_active_telemetry = nullptr;
  // Stop the exporter before rendering the report so its final record is
  // on disk and its sampling cannot race the snapshot. On a fatal-signal
  // path joining the exporter thread could deadlock (it may be mid-write
  // or the signal may have landed on it), so abort without joining there —
  // the time-series file stays valid because records are whole lines.
  if (obs::RunExitCause().starts_with("signal:")) {
    obs::AbortGlobalExporter();
  } else {
    obs::StopGlobalExporter();
  }
  if (!report_path_.empty()) {
    obs::RunInfo info;
    info.name = name_;
    info.threads = DefaultThreadCount();
    info.wall_seconds = watch_.ElapsedSeconds();
    info.exit_code = exit_code;
    if (obs::AppendRunReport(report_path_, info)) {
      LogInfo("run report appended to %s", report_path_.c_str());
    } else {
      LogWarning("could not append run report to %s", report_path_.c_str());
    }
  }
  obs::FlushTrace();
  return exit_code;
}

int RunBench(int argc, char** argv, const char* name, int (*run)()) {
  BenchTelemetry telemetry(name, &argc, argv);
  return telemetry.Finish(run());
}

ExperimentContext MakeContext() {
  return ExperimentContext(ExperimentOptions::FromEnv());
}

std::unique_ptr<RulePredictor> BuildAmie(const Dataset& dataset) {
  const AmieOptions options;
  std::vector<Rule> rules = MineRules(dataset.train_store(), options);
  return std::make_unique<RulePredictor>(std::move(rules),
                                         dataset.train_store(), options);
}

const std::vector<TripleRanks>& AmieRanks(ExperimentContext& context,
                                          const Dataset& dataset) {
  const auto amie = BuildAmie(dataset);
  return context.GetPredictorRanks(dataset, *amie, "amie");
}

std::unique_ptr<SimpleRuleModel> BuildSimpleModel(const Dataset& dataset) {
  // Rules come from full-dataset pair statistics (the paper's simple model,
  // §4.2.1); predictions read the training adjacency only.
  DetectorOptions options;
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(dataset.all_store(), options);
  return std::make_unique<SimpleRuleModel>(dataset.train_store(), catalog);
}

std::string Mr(double value) { return FormatDouble(value, 1); }
std::string Pct(double fraction) { return FormatDouble(fraction * 100.0, 1); }
std::string Mrr(double value) { return FormatDouble(value, 3); }

std::vector<std::string> CategoryHeader() {
  std::vector<std::string> header = {"Model"};
  for (int c = 0; c < 4; ++c) {
    header.push_back(RelationCategoryName(static_cast<RelationCategory>(c)));
  }
  return header;
}

std::vector<std::string> RawAndFilteredRow(const std::string& label,
                                           const LinkPredictionMetrics& m) {
  return {label,        Mr(m.mr),      Pct(m.hits10),  Mrr(m.mrr),
          Mr(m.fmr),    Pct(m.fhits10), Mrr(m.fmrr)};
}

bool ConsumeValueFlag(int* argc, char** argv, const char* name,
                      std::string* value) {
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string v;
    if (MatchValueFlag(argv, *argc, &i, name, &v)) {
      *value = v;
      found = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

bool ConsumeBoolFlag(int* argc, char** argv, const char* name) {
  bool found = false;
  int kept = 1;
  const std::string bare = name;
  const std::string prefix = bare + "=";
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == bare) {
      found = true;
    } else if (arg.starts_with(prefix)) {
      const std::string v = arg.substr(prefix.size());
      found = (v == "true" || v == "1");
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

std::vector<TopKQuery> MakeTopKBenchQueries(int32_t num_entities,
                                            int32_t num_relations,
                                            size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopKQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TopKQuery q;
    q.tails = (i % 2) == 0;
    q.relation =
        static_cast<RelationId>(rng.Uniform(static_cast<uint64_t>(num_relations)));
    q.anchor =
        static_cast<EntityId>(rng.Uniform(static_cast<uint64_t>(num_entities)));
    queries.push_back(std::move(q));
  }
  return queries;
}

TopKBenchPoint MeasureTopKRetrieval(const KgeModel& model,
                                    const std::string& label,
                                    std::span<const TopKQuery> queries, int k,
                                    bool cross_check, int reps,
                                    const TripleStore* filter,
                                    size_t queries_per_run) {
  TopKBenchPoint point;
  point.label = label;
  point.num_entities = model.num_entities();
  point.num_queries = queries.size();
  point.k = k;
  point.filtered = filter != nullptr;
  point.queries_per_run =
      queries_per_run > 0 ? std::min(queries_per_run, queries.size())
                          : queries.size();

  TopKOptions options;
  options.k = k;
  options.threads = 1;  // oracle is serial; compare core-for-core
  const TopKEngine engine(model, options);
  const auto run_all = [&](const TopKEngine& e) {
    for (size_t begin = 0; begin < queries.size();
         begin += point.queries_per_run) {
      e.Run(queries.subspan(begin, std::min(point.queries_per_run,
                                            queries.size() - begin)),
            filter);
    }
  };

  if (cross_check) {
    TopKOptions checked = options;
    checked.cross_check = true;  // aborts on any engine/oracle mismatch
    run_all(TopKEngine(model, checked));
    point.cross_checked = true;
  }

  // Counter deltas over exactly one engine pass (counters are cumulative
  // per process and thread-count independent).
  auto& registry = obs::Registry::Get();
  obs::Counter& scored = registry.GetCounter(obs::kTopKEntitiesScored);
  obs::Counter& pushes = registry.GetCounter(obs::kTopKHeapPushes);
  obs::Counter& batched = registry.GetCounter(obs::kTopKQueriesBatched);
  const uint64_t scored0 = scored.value();
  const uint64_t pushes0 = pushes.value();
  const uint64_t batched0 = batched.value();
  run_all(engine);
  point.entities_scored = scored.value() - scored0;
  point.heap_pushes = pushes.value() - pushes0;
  point.queries_batched = batched.value() - batched0;
  const double swept = static_cast<double>(point.num_queries) *
                       static_cast<double>(point.num_entities);
  point.scored_fraction =
      swept > 0 ? static_cast<double>(point.entities_scored) / swept : 0.0;

  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    run_all(engine);
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < point.engine_seconds) {
      point.engine_seconds = seconds;
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (const TopKQuery& query : queries) {
      TopKEngine::OracleTopK(model, query, k, filter);
    }
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < point.oracle_seconds) {
      point.oracle_seconds = seconds;
    }
  }
  point.speedup = point.engine_seconds > 0
                      ? point.oracle_seconds / point.engine_seconds
                      : 0.0;
  return point;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Datasets are synthetic analogues (see DESIGN.md); compare the\n"
              "shape of the numbers with the paper, not absolute values.\n");
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace kgc::bench
