// The paper workload. Its set-up (paper-fill) runs the Figure 1 path on an
// empty artifact cache; its timed part (paper-warm) runs the
// table-iteration path (WarmRanks, rule models, Table 7) on the filled one.
//
// Every pass prints what run.py needs to score it: the pass wall time, the
// time at which each rank table became available (a table answers two
// link-prediction queries per test triple), CRC-32 fingerprints of every
// trained model and rank table, and program counter deltas. Traced passes
// add the benchmark's spans and the program's own span rollups. The
// fingerprints are taken after the pass is timed, from the models and
// tables the context holds, so they cost the timed part nothing. Each
// subcommand works in the current directory; settings are in config.h.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common.h"
#include "config.h"
#include "core/experiment_context.h"
#include "eval/comparison.h"
#include "obs/trace.h"
#include "redundancy/detectors.h"
#include "redundancy/leakage.h"
#include "rules/amie.h"
#include "rules/cartesian_predictor.h"
#include "rules/simple_rule_model.h"
#include "util/crc32.h"

namespace kgcbench {
namespace {

namespace fs = std::filesystem;
using kgc::Dataset;
using kgc::ExperimentContext;
using kgc::ModelType;
using kgc::TripleRanks;

struct PaperConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

PaperConfig ReadConfig(const Flags& flags) {
  PaperConfig c;
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  c.seconds = flags.GetDouble("seconds", c.seconds);
  c.trace = flags.GetInt("trace", 0) != 0;
  return c;
}

// Files of a paper workload, relative to the working directory.
constexpr char kCacheDir[] = "cache";
constexpr char kColdTables[] = "cold_tables.bin";

/// The benchmark seed is the only input: it picks the synthetic datasets
/// and the training seed.
kgc::ExperimentOptions ContextOptions(const PaperConfig& c,
                                      const std::string& cache_dir) {
  kgc::ExperimentOptions options;
  options.cache_dir = cache_dir;
  options.data_seed = c.seed;
  options.train_seed = config::PaperTrainSeed(c.seed);
  options.epoch_scale = config::kEpochScale;
  return options;
}

/// One rank table produced by a pass.
struct Table {
  std::string name;   ///< "<Model>@<dataset>"
  double done = 0.0;  ///< seconds from pass start until it was available
  size_t queries = 0;
  /// The context's cached table; after the pass, its canonical bytes.
  const std::vector<TripleRanks>* ranks = nullptr;
  std::string bytes;
  double fmrr = 0.0;
};

struct Pass {
  bool traced = false;
  double wall = 0.0;
  std::vector<Table> tables;
  /// The context's cached models; after the pass, their fingerprints.
  std::vector<std::pair<std::string, const kgc::KgeModel*>> model_refs;
  std::vector<std::pair<std::string, uint32_t>> models;
  std::vector<std::pair<std::string, uint32_t>> outputs;  ///< other results
  std::map<std::string, uint64_t> counters;
  std::vector<std::string> failures;
  std::vector<SpanRecorder::Span> spans;
  double origin = 0.0;
};

std::string Label(ModelType type, const Dataset& d) {
  return std::string(kgc::ModelTypeName(type)) + "@" + d.name();
}

void AddTable(Pass& pass, std::string name,
              const std::vector<TripleRanks>& ranks, double done) {
  Table t;
  t.name = std::move(name);
  t.done = done;
  t.queries = 2 * ranks.size();
  t.ranks = &ranks;
  {
    KGCBENCH_SPAN(span, "eval.metrics");
    t.fmrr = kgc::ComputeMetrics(ranks).fmrr;
  }
  pass.tables.push_back(std::move(t));
}

/// The Figure 1 path: build the FB suite, then per lineup model and
/// dataset GetModel (trains on a cold cache), GetRanks, ComputeMetrics.
void ColdPass(ExperimentContext& context, Pass& pass) {
  const double t0 = pass.origin;
  const kgc::BenchmarkSuite* suite = nullptr;
  {
    KGCBENCH_SPAN(span, "core.make_suite");
    suite = &context.Fb15k();
  }
  const Dataset* datasets[] = {&suite->kg.dataset, &suite->cleaned};
  for (ModelType type : kgc::FigureModelLineup()) {
    for (const Dataset* d : datasets) {
      const kgc::KgeModel* model = nullptr;
      {
        KGCBENCH_SPAN(span, std::string("models.train.") +
                                kgc::ModelTypeName(type));
        model = &context.GetModel(*d, type);
      }
      const std::vector<TripleRanks>* ranks = nullptr;
      {
        KGCBENCH_SPAN(span, std::string("eval.rank.") +
                                kgc::ModelTypeName(type));
        ranks = &context.GetRanks(*d, type);
      }
      pass.model_refs.emplace_back(Label(type, *d), model);
      AddTable(pass, Label(type, *d), *ranks, Now() - t0);
    }
  }
}

/// The table-iteration path on a warm model cache: load the lineup, rank it
/// through WarmRanks (as the Table 5/6/11 benches do), mine and rank AMIE,
/// rank the simple rule model and the Cartesian predictor, then run the
/// Table 7 per-triple comparison.
void WarmPass(ExperimentContext& context, Pass& pass) {
  const double t0 = pass.origin;
  const kgc::BenchmarkSuite* suite = nullptr;
  {
    KGCBENCH_SPAN(span, "core.make_suite");
    suite = &context.Fb15k();
  }
  const Dataset* datasets[] = {&suite->kg.dataset, &suite->cleaned};
  const auto lineup = kgc::FigureModelLineup();
  for (const Dataset* d : datasets) {
    for (ModelType type : lineup) {
      KGCBENCH_SPAN(span, std::string("models.load.") +
                              kgc::ModelTypeName(type));
      pass.model_refs.emplace_back(Label(type, *d),
                                   &context.GetModel(*d, type));
    }
  }
  for (const Dataset* d : datasets) {
    {
      KGCBENCH_SPAN(span, "core.warm_ranks");
      context.WarmRanks(*d, lineup);
    }
    const double done = Now() - t0;
    for (ModelType type : lineup) {
      const std::vector<TripleRanks>* ranks = nullptr;
      {
        KGCBENCH_SPAN(span, "core.get_ranks");
        ranks = &context.GetRanks(*d, type);
      }
      AddTable(pass, Label(type, *d), *ranks, done);
    }
  }
  for (const Dataset* d : datasets) {
    std::vector<kgc::Rule> rules;
    {
      KGCBENCH_SPAN(span, "rules.amie_mine");
      rules = kgc::MineRules(d->train_store(), kgc::AmieOptions{});
    }
    const kgc::RulePredictor amie(std::move(rules), d->train_store());
    const std::vector<TripleRanks>* ranks = nullptr;
    {
      KGCBENCH_SPAN(span, "rules.rank.AMIE");
      ranks = &context.GetPredictorRanks(*d, amie, "amie");
    }
    AddTable(pass, "AMIE@" + d->name(), *ranks, Now() - t0);
  }
  for (const Dataset* d : datasets) {
    kgc::RedundancyCatalog catalog;
    {
      KGCBENCH_SPAN(span, "redundancy.detect");
      catalog = kgc::RedundancyCatalog::Detect(d->all_store(),
                                               kgc::DetectorOptions{});
    }
    const kgc::SimpleRuleModel simple(d->train_store(), std::move(catalog));
    const std::vector<TripleRanks>* ranks = nullptr;
    {
      KGCBENCH_SPAN(span, "rules.rank.SimpleModel");
      ranks = &context.GetPredictorRanks(*d, simple, "simple_rule");
    }
    AddTable(pass, "SimpleModel@" + d->name(), *ranks, Now() - t0);
  }
  for (const Dataset* d : datasets) {
    std::vector<kgc::RelationId> relations;
    {
      KGCBENCH_SPAN(span, "redundancy.find_cartesian");
      for (const auto& e : kgc::FindCartesianRelations(d->all_store())) {
        relations.push_back(e.relation);
      }
    }
    const kgc::CartesianPredictor cartesian(d->train_store(), relations);
    const std::vector<TripleRanks>* ranks = nullptr;
    {
      KGCBENCH_SPAN(span, "rules.rank.Cartesian");
      ranks = &context.GetPredictorRanks(*d, cartesian, "cartesian");
    }
    AddTable(pass, "Cartesian@" + d->name(), *ranks, Now() - t0);
  }
  // Table 7 on the leaky dataset: which triples the TransE successors win
  // on, and how many of them have train-set redundancy.
  KGCBENCH_SPAN(compare_span, "eval.compare");
  const Dataset& leaky = suite->kg.dataset;
  kgc::RedundancyBitmap bitmap;
  {
    KGCBENCH_SPAN(span, "redundancy.bitmap");
    bitmap = kgc::ComputeRedundancyBitmap(leaky, suite->oracle);
  }
  std::vector<bool> redundant(bitmap.cases.size());
  for (size_t i = 0; i < bitmap.cases.size(); ++i) {
    redundant[i] = kgc::HasTrainRedundancy(bitmap.cases[i]);
  }
  const auto& baseline = context.GetRanks(leaky, ModelType::kTransE);
  std::vector<double> shares;
  for (ModelType type : lineup) {
    if (type == ModelType::kTransE) continue;
    const kgc::OutperformRedundancyShare share =
        kgc::ComputeOutperformRedundancy(context.GetRanks(leaky, type),
                                         baseline, redundant);
    shares.insert(shares.end(),
                  {share.fmr, share.fhits10, share.fhits1, share.fmrr});
  }
  pass.outputs.emplace_back(
      "table7@" + leaky.name(),
      kgc::Crc32(shares.data(), shares.size() * sizeof(double)));
}

/// Creates an empty artifact cache and opens a context on it.
std::unique_ptr<ExperimentContext> OpenEmptyCache(const PaperConfig& c,
                                                  const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  KGCBENCH_SPAN(span, "core.context");
  return std::make_unique<ExperimentContext>(ContextOptions(c, dir));
}

void RemoveRankCache(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ranks") fs::remove(entry.path());
  }
}

void WritePass(JsonOut& out, const Pass& pass) {
  out.BeginObject();
  out.Key("traced").Bool(pass.traced);
  out.Key("wall_s").Num(pass.wall);
  out.Key("tables").BeginArray();
  for (const Table& t : pass.tables) {
    out.BeginObject();
    out.Key("name").Str(t.name);
    out.Key("done_s").Num(t.done);
    out.Key("queries").Int(static_cast<int64_t>(t.queries));
    out.Key("crc").Str(CrcHex(kgc::Crc32(t.bytes.data(), t.bytes.size())));
    out.Key("fmrr").Num(t.fmrr);
    out.EndObject();
  }
  out.EndArray();
  out.Key("models").BeginObject();
  for (const auto& [name, crc] : pass.models) out.Key(name).Str(CrcHex(crc));
  out.EndObject();
  out.Key("outputs").BeginObject();
  for (const auto& [name, crc] : pass.outputs) out.Key(name).Str(CrcHex(crc));
  out.EndObject();
  out.Key("counters").BeginObject();
  for (const auto& [name, value] : pass.counters) {
    out.Key(name).Int(static_cast<int64_t>(value));
  }
  out.EndObject();
  out.Key("failures").BeginArray();
  for (const std::string& f : pass.failures) out.Str(f);
  out.EndArray();
  if (pass.traced) {
    out.Key("spans").SpanArray(pass.spans, pass.origin);
    out.Key("program_spans").ProgramRollups();
  }
  out.EndObject();
}

/// Fingerprints of the pass's models and tables, taken after it is timed.
void Fingerprint(Pass& pass) {
  for (const auto& [name, model] : pass.model_refs) {
    pass.models.emplace_back(name, ModelCrc(*model));
  }
  pass.model_refs.clear();
  for (Table& t : pass.tables) {
    t.bytes = RankTableBytes(*t.ranks);
    t.ranks = nullptr;
  }
}

/// Runs `body` as one pass, recording wall time, counter deltas and (when
/// traced) spans, then fingerprints it. The context `body` uses must
/// outlive this call.
template <typename Body>
Pass RunPass(bool traced, Body body) {
  if (traced) {
    Spans().Enable();
    kgc::obs::EnableSpanRollups();
  }
  Pass pass;
  pass.traced = traced;
  const auto before = CounterSnapshot();
  pass.origin = Now();
  body(pass);
  pass.wall = Now() - pass.origin;
  const auto after = CounterSnapshot();
  for (const auto& [name, value] : after) {
    const uint64_t delta = CounterDelta(before, after, name);
    if (delta != 0) pass.counters[name] = delta;
  }
  pass.spans = Spans().Take();
  Fingerprint(pass);
  return pass;
}

/// Untraced passes until `seconds` have elapsed (at least one); a traced
/// run makes one untraced and one traced pass so their difference is the
/// tracing overhead.
template <typename MakePass>
std::vector<Pass> RunPasses(const PaperConfig& c, MakePass make_pass) {
  std::vector<Pass> passes;
  const double start = Now();
  if (c.trace) {
    passes.push_back(make_pass(false));
    passes.push_back(make_pass(true));
    return passes;
  }
  do {
    passes.push_back(make_pass(false));
  } while (Now() - start < c.seconds);
  return passes;
}

void Emit(const std::string& kind, const std::vector<double>& setup_s,
          const std::vector<Pass>& passes) {
  JsonOut out;
  out.BeginObject();
  out.Key("kind").Str(kind);
  out.Key("setup_s").BeginArray();
  for (double s : setup_s) out.Num(s);
  out.EndArray();
  out.Key("peak_rss_mb").Num(PeakRssMb());
  out.Key("passes").BeginArray();
  for (const Pass& p : passes) WritePass(out, p);
  out.EndArray();
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
}

kgc::Status WriteTables(const std::string& path, const Pass& pass) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  for (const Table& t : pass.tables) {
    file << t.name << '\n' << t.bytes.size() << '\n';
    file.write(t.bytes.data(), static_cast<std::streamsize>(t.bytes.size()));
  }
  file.close();
  return file ? kgc::Status::Ok()
              : kgc::Status::IoError("cannot write " + path);
}

std::map<std::string, std::string> ReadTables(const std::string& path) {
  std::map<std::string, std::string> tables;
  std::ifstream file(path, std::ios::binary);
  std::string name;
  size_t size = 0;
  while (std::getline(file, name) && file >> size && file.get() == '\n') {
    std::string bytes(size, '\0');
    file.read(bytes.data(), static_cast<std::streamsize>(size));
    if (!file) break;
    tables[name] = std::move(bytes);
  }
  return tables;
}

}  // namespace

std::vector<std::string> DifferingTables(
    const std::map<std::string, std::string>& reference,
    const std::vector<std::pair<std::string, std::string>>& tables) {
  std::vector<std::string> differing;
  for (const auto& [name, bytes] : reference) {
    const auto it = std::find_if(tables.begin(), tables.end(),
                                 [&](const auto& t) { return t.first == name; });
    if (it == tables.end() || it->second != bytes) differing.push_back(name);
  }
  return differing;
}

/// paper_warm's set-up, run as its own process so the warm process's peak
/// RSS is its own: the Figure 1 path on an empty cache, whose rank tables
/// are then saved for the cross-path check and deleted from the cache.
/// When traced, its spans give the training layer's figures.
int RunPaperFill(const Flags& flags) {
  const PaperConfig c = ReadConfig(flags);
  const double t = Now();
  auto context = OpenEmptyCache(c, kCacheDir);
  Pass pass = RunPass(c.trace, [&](Pass& p) { ColdPass(*context, p); });
  context.reset();
  RemoveRankCache(kCacheDir);
  const double setup_s = Now() - t;
  const kgc::Status wrote = WriteTables(kColdTables, pass);
  if (!wrote.ok()) {
    std::fprintf(stderr, "kgcbench: %s\n", wrote.ToString().c_str());
    return 1;
  }
  Emit("paper_fill", {setup_s}, {pass});
  return 0;
}

/// paper_warm: every pass opens a fresh context on the filled model cache
/// with an empty rank cache. Model rank tables must equal the set-up's
/// GetRanks tables byte for byte.
int RunPaperWarm(const Flags& flags) {
  const PaperConfig c = ReadConfig(flags);
  const auto cold = ReadTables(kColdTables);
  if (cold.empty()) {
    std::fprintf(stderr, "kgcbench: no cold tables in %s\n", kColdTables);
    return 1;
  }
  std::vector<Pass> passes = RunPasses(c, [&](bool traced) {
    RemoveRankCache(kCacheDir);
    std::unique_ptr<ExperimentContext> context;
    Pass pass = RunPass(traced, [&](Pass& pass) {
      {
        KGCBENCH_SPAN(span, "core.context");
        context =
            std::make_unique<ExperimentContext>(ContextOptions(c, kCacheDir));
      }
      WarmPass(*context, pass);
    });
    std::vector<std::pair<std::string, std::string>> tables;
    for (const Table& t : pass.tables) tables.emplace_back(t.name, t.bytes);
    for (const std::string& name : DifferingTables(cold, tables)) {
      pass.failures.push_back(name + ": WarmRanks table differs from the "
                              "cold GetRanks table");
    }
    return pass;
  });
  Emit("paper_warm", {}, passes);
  return 0;
}

}  // namespace kgcbench
