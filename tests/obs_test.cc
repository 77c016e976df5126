// Tests for the observability layer: metrics registry, trace spans and run
// reports, plus the counter bit-identity contract across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "eval/ranker.h"
#include "models/trainer.h"
#include "obs/env.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "redundancy/leakage.h"
#include "rules/amie.h"

namespace kgc {
namespace {

// --- Registry --------------------------------------------------------------

TEST(MetricsTest, CounterGaugeBasics) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.ResetForTest();
  EXPECT_EQ(counter.value(), 0u);

  obs::Gauge gauge;
  EXPECT_FALSE(gauge.is_set());
  gauge.Set(0.25);
  EXPECT_TRUE(gauge.is_set());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.25);
}

TEST(MetricsTest, HistogramBucketEdges) {
  // Bucket i counts v <= edges[i]; the 4th bucket is overflow.
  obs::Histogram histogram({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.bucket_count(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(histogram.bucket_count(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(histogram.bucket_count(2), 1u);  // 3.0
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // 5.0 -> overflow
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_NEAR(histogram.sum(), 13.0, 1e-6);
}

TEST(MetricsTest, ExponentialBuckets) {
  const std::vector<double> edges = obs::ExponentialBuckets(0.001, 10.0, 4);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_NEAR(edges[0], 0.001, 1e-12);
  EXPECT_NEAR(edges[3], 1.0, 1e-9);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(MetricsTest, RegistryPreRegistersCanonicalSchema) {
  const obs::MetricsSnapshot snapshot = obs::Registry::Get().Snapshot();
  auto has_counter = [&](const char* name) {
    for (const obs::CounterSample& c : snapshot.counters) {
      if (c.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_counter(obs::kTrainerEpochs));
  EXPECT_TRUE(has_counter(obs::kRankerTriplesRanked));
  EXPECT_TRUE(has_counter(obs::kRedundancyPairsCompared));
  EXPECT_TRUE(has_counter(obs::kAmieCandidates));
  EXPECT_TRUE(has_counter(obs::kCacheModelHits));
  EXPECT_TRUE(has_counter(obs::kCacheQuarantined));
  EXPECT_TRUE(has_counter(obs::kFaultsInjected));
}

TEST(MetricsTest, RegistryIsThreadSafe) {
  // Concurrent registration and updates from 4 threads; run under the TSan
  // mode of ci/sanitize.sh. The total must come out exact.
  obs::Counter& shared = obs::Registry::Get().GetCounter("test.concurrent");
  shared.ResetForTest();
  constexpr int kThreads = 4;
  constexpr int kIterations = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        obs::Registry::Get().GetCounter("test.concurrent").Increment();
        // Rotate through a few names so map insertion races are exercised.
        obs::Registry::Get()
            .GetCounter("test.rotating." + std::to_string((t + i) % 8))
            .Increment();
        obs::Registry::Get()
            .GetHistogram("test.hist", {1.0, 2.0})
            .Observe(0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shared.value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_GE(obs::Registry::Get().GetHistogram("test.hist").count(),
            static_cast<uint64_t>(kThreads) * kIterations);
}

// --- Trace spans -----------------------------------------------------------

TEST(TraceTest, SpanNestingAndChromeExport) {
  obs::ResetTracingForTest();
  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  obs::StartTracing(path);
  {
    obs::TraceSpan outer("outer");
    outer.AddArgStr("kind", "test");
    {
      obs::TraceSpan inner("inner");
      inner.AddArgInt("value", 7);
    }
  }
  const std::vector<obs::RecordedSpan> spans = obs::SnapshotSpansForTest();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record at destruction, so the inner span lands first.
  const obs::RecordedSpan& inner = spans[0];
  const obs::RecordedSpan& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(outer.duration_us, inner.duration_us);

  ASSERT_TRUE(obs::FlushTrace());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  // Incremental drain writes a Chrome trace in JSON-array form: events
  // stream out as the run progresses and FlushTrace closes the array.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"kgc_clock_sync\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":" + std::to_string(outer.id)),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"test\""), std::string::npos);
  // Balanced braces is a cheap structural validity proxy (the smoke script
  // ci/obs_smoke.sh runs a real JSON parser over the same output).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  obs::ResetTracingForTest();
}

TEST(TraceTest, RollupsAggregateByName) {
  obs::ResetTracingForTest();
  obs::EnableSpanRollups();
  for (int i = 0; i < 3; ++i) {
    obs::TraceSpan span("rollup_unit");
  }
  const std::vector<obs::SpanRollup> rollups = obs::CollectSpanRollups();
  ASSERT_EQ(rollups.size(), 1u);
  EXPECT_EQ(rollups[0].name, "rollup_unit");
  EXPECT_EQ(rollups[0].count, 3u);
  EXPECT_GE(rollups[0].total_seconds, 0.0);
  EXPECT_LE(rollups[0].min_seconds, rollups[0].max_seconds);
  obs::ResetTracingForTest();
}

// A labeled span rolls up twice: under its name, which layer attribution
// keys on, and under "<name>/<label>". TrainModel labels its span with the
// model and the dataset, so a run report has one training row per model.
TEST(TraceTest, TrainModelRollsUpPerModelAndDataset) {
  obs::ResetTracingForTest();
  obs::EnableSpanRollups();
  const SyntheticKg kg = GenerateTiny(5);
  TrainOptions options;
  options.epochs = 1;
  for (const ModelType type : {ModelType::kTransE, ModelType::kDistMult}) {
    ModelHyperParams params = DefaultHyperParams(type);
    params.dim = 8;
    auto model = CreateModel(type, kg.dataset.num_entities(),
                             kg.dataset.num_relations(), params);
    TrainModel(*model, kg.dataset, options);
  }
  std::map<std::string, uint64_t> counts;
  for (const obs::SpanRollup& r : obs::CollectSpanRollups()) {
    counts[r.name] = r.count;
  }
  const std::string dataset = kg.dataset.name();
  EXPECT_EQ(counts["train_model"], 2u);
  EXPECT_EQ(counts["train_model/TransE@" + dataset], 1u);
  EXPECT_EQ(counts["train_model/DistMult@" + dataset], 1u);
  EXPECT_EQ(counts["train_epoch"], 2u);  // unlabeled spans roll up once
  obs::ResetTracingForTest();
}

// One rank_triples sweep carries several models; each shard times its
// share of each, and the sweep rolls the sums up per model and dataset.
TEST(TraceTest, RankTriplesRollsUpPerModelAndDataset) {
  obs::ResetTracingForTest();
  obs::EnableSpanRollups();
  const SyntheticKg kg = GenerateTiny(5);
  std::vector<std::unique_ptr<KgeModel>> models;
  std::vector<const LinkPredictor*> predictors;
  for (const ModelType type : {ModelType::kTransE, ModelType::kDistMult}) {
    models.push_back(CreateModel(type, kg.dataset.num_entities(),
                                 kg.dataset.num_relations(),
                                 DefaultHyperParams(type)));
    predictors.push_back(models.back().get());
  }
  RankerOptions options;
  options.threads = 2;
  RankTriples(predictors, kg.dataset, kg.dataset.test(), options);
  std::map<std::string, obs::SpanRollup> rollups;
  for (const obs::SpanRollup& r : obs::CollectSpanRollups()) {
    rollups[r.name] = r;
  }
  const std::string dataset = kg.dataset.name();
  EXPECT_EQ(rollups["rank_triples"].count, 1u);
  for (const char* model : {"TransE", "DistMult"}) {
    const obs::SpanRollup& r =
        rollups["rank_triples/" + std::string(model) + "@" + dataset];
    EXPECT_EQ(r.count, 1u) << model;
    EXPECT_GT(r.total_seconds, 0.0) << model;
  }
  obs::ResetTracingForTest();
}

// --- Counter bit-identity across thread counts -----------------------------

// Constant-score predictor over the synthetic KG (ranking output does not
// matter here, only the instrumentation totals).
class FlatPredictor final : public LinkPredictor {
 public:
  explicit FlatPredictor(int32_t num_entities) : num_entities_(num_entities) {}
  const char* name() const override { return "Flat"; }
  int32_t num_entities() const override { return num_entities_; }
  void ScoreTails(EntityId, RelationId, std::span<float> out) const override {
    std::fill(out.begin(), out.end(), 0.5f);
  }
  void ScoreHeads(RelationId, EntityId, std::span<float> out) const override {
    std::fill(out.begin(), out.end(), 0.5f);
  }

 private:
  int32_t num_entities_;
};

obs::MetricsSnapshot RunInstrumentedPipeline(const SyntheticKg& kg,
                                             int threads) {
  obs::Registry::Get().ResetAllForTest();

  RankerOptions ranker_options;
  ranker_options.threads = threads;
  // A rule-like predictor ranks through its exact scores, a model through
  // bounded pre-passes and exact rescores.
  const FlatPredictor predictor(kg.dataset.num_entities());
  const auto model =
      CreateModel(ModelType::kTransE, kg.dataset.num_entities(),
                  kg.dataset.num_relations(),
                  DefaultHyperParams(ModelType::kTransE));
  const LinkPredictor* const predictors[] = {&predictor, model.get()};
  RankTriples(predictors, kg.dataset, kg.dataset.test(), ranker_options);

  DetectorOptions detector_options;
  detector_options.threads = threads;
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(kg.dataset.train_store(), detector_options);
  ComputeRedundancyBitmap(kg.dataset, catalog, threads);

  AmieOptions amie_options;
  amie_options.threads = threads;
  MineRules(kg.dataset.train_store(), amie_options);

  return obs::Registry::Get().Snapshot();
}

TEST(DeterminismTest, CountersBitIdenticalAcrossThreadCounts) {
  const SyntheticKg kg = GenerateTiny(19);
  const obs::MetricsSnapshot serial = RunInstrumentedPipeline(kg, 1);
  const obs::MetricsSnapshot parallel = RunInstrumentedPipeline(kg, 4);
  ASSERT_EQ(serial.counters.size(), parallel.counters.size());
  for (size_t i = 0; i < serial.counters.size(); ++i) {
    EXPECT_EQ(serial.counters[i].name, parallel.counters[i].name);
    EXPECT_EQ(serial.counters[i].value, parallel.counters[i].value)
        << "counter " << serial.counters[i].name
        << " differs between 1 and 4 threads";
  }
  // And the work counters actually counted something. score_evals counts
  // the sweeps (exact or bounded) the query-deduplicated ranker performed
  // per predictor: one per unique (relation, head) tail query plus one per
  // unique (relation, tail) head query, each over num_entities candidates.
  // exact_rescores counts the model's single-row scores, at least its true
  // entity's for each of a triple's two ranks.
  std::set<std::pair<RelationId, EntityId>> tail_queries;
  std::set<std::pair<RelationId, EntityId>> head_queries;
  for (const Triple& t : kg.dataset.test()) {
    tail_queries.emplace(t.relation, t.head);
    head_queries.emplace(t.relation, t.tail);
  }
  const uint64_t unique_queries = tail_queries.size() + head_queries.size();
  for (const obs::CounterSample& c : serial.counters) {
    if (c.name == obs::kRankerTriplesRanked) {
      EXPECT_EQ(c.value, 2u * kg.dataset.test().size());
    }
    if (c.name == obs::kRankerExactRescores) {
      EXPECT_GE(c.value, 2u * kg.dataset.test().size());
    }
    if (c.name == obs::kRedundancyTriplesClassified) {
      EXPECT_EQ(c.value, kg.dataset.test().size());
    }
    if (c.name == obs::kRankerScoreEvals) {
      EXPECT_EQ(c.value, 2u * unique_queries *
                             static_cast<uint64_t>(kg.dataset.num_entities()));
    }
    if (c.name == obs::kRankerQueryCacheMisses) {
      EXPECT_EQ(c.value, 2u * unique_queries);
    }
    if (c.name == obs::kRankerQueryCacheHits) {
      EXPECT_EQ(c.value, 2u * (2u * kg.dataset.test().size() - unique_queries));
    }
    if (c.name == obs::kAmiePathPairs) {
      EXPECT_GT(c.value, 0u);
    }
  }
  obs::Registry::Get().ResetAllForTest();
}

// --- Run report ------------------------------------------------------------

TEST(ReportTest, RenderedReportIsSingleLineJson) {
  obs::RunInfo info;
  info.name = "obs \"quoted\" test";
  info.timestamp = "2026-08-06T00:00:00Z";
  info.threads = 4;
  info.wall_seconds = 1.25;
  info.exit_code = 0;
  const std::string json = obs::RenderRunReport(info);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"schema\":\"kgc.run_report.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs \\\"quoted\\\" test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(json.find(obs::kTrainerEpochs), std::string::npos);
  EXPECT_NE(json.find(obs::kCacheQuarantined), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ReportTest, ExitCauseIsRecordedOrDerived) {
  obs::SetRunExitCause("");
  obs::RunInfo info;
  info.name = "cause_test";

  // No explicit cause, exit 0: derived "ok".
  info.exit_code = 0;
  EXPECT_NE(obs::RenderRunReport(info).find("\"exit_cause\":\"ok\""),
            std::string::npos);

  // No explicit cause, nonzero exit: derived "exit:<n>".
  info.exit_code = 3;
  EXPECT_NE(obs::RenderRunReport(info).find("\"exit_cause\":\"exit:3\""),
            std::string::npos);

  // Explicit per-report cause wins.
  info.exit_cause = "deadline:train_epoch";
  EXPECT_NE(obs::RenderRunReport(info).find(
                "\"exit_cause\":\"deadline:train_epoch\""),
            std::string::npos);

  // Process-global cause (what crash handlers set) backs an empty field.
  info.exit_cause.clear();
  obs::SetRunExitCause("signal:SIGTERM");
  EXPECT_EQ(obs::RunExitCause(), "signal:SIGTERM");
  EXPECT_NE(obs::RenderRunReport(info).find(
                "\"exit_cause\":\"signal:SIGTERM\""),
            std::string::npos);
  obs::SetRunExitCause("");
}

TEST(ReportTest, AppendAccumulatesJsonlLines) {
  const std::string path = testing::TempDir() + "/obs_test_report.jsonl";
  std::remove(path.c_str());
  obs::RunInfo info;
  info.name = "run_a";
  ASSERT_TRUE(obs::AppendRunReport(path, info));
  info.name = "run_b";
  ASSERT_TRUE(obs::AppendRunReport(path, info));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema\":\"kgc.run_report.v1\""),
              std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// --- Numeric environment variables ----------------------------------------

TEST(EnvTest, NumbersParseWholeOrNotAtAll) {
  EXPECT_EQ(obs::ParseNumber<int>("4"), 4);
  EXPECT_EQ(obs::ParseNumber<int>("-1"), -1);
  EXPECT_EQ(obs::ParseNumber<int>("0"), 0);
  for (const char* text : {"4x", "abc", "1e3", " 4", "+4", "", "99999999999"}) {
    EXPECT_FALSE(obs::ParseNumber<int>(text).has_value()) << text;
  }
  EXPECT_EQ(obs::ParseNumber<double>("1e3"), 1000.0);
  EXPECT_EQ(obs::ParseNumber<double>("0.01"), 0.01);
  for (const char* text : {"nan", "inf", "0.5x", " 1"}) {
    EXPECT_FALSE(obs::ParseNumber<double>(text).has_value()) << text;
  }
}

// Sets OBS_ENV_TEST_NUMBER to `value`, reads it with EnvNumber, and returns
// the value read plus what EnvNumber printed on stderr.
template <typename T>
std::pair<T, std::string> ReadTestNumber(const char* value, T fallback, T min,
                                         bool min_exclusive = false) {
  ::setenv("OBS_ENV_TEST_NUMBER", value, 1);
  ::testing::internal::CaptureStderr();
  const T read = obs::EnvNumber("OBS_ENV_TEST_NUMBER", fallback, min,
                                min_exclusive);
  std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("OBS_ENV_TEST_NUMBER");
  return {read, std::move(err)};
}

TEST(EnvTest, BadValuesWarnOnceAndKeepTheDefault) {
  EXPECT_EQ(ReadTestNumber("4", 7, 1), std::make_pair(4, std::string()));
  EXPECT_EQ(ReadTestNumber("", 7, 1), std::make_pair(7, std::string()));
  // A prefix parse (atoi, atof) reads "4x" as 4 threads, "abc" as a
  // watchdog switched off and "1e3" as an exporter tick every millisecond.
  for (const char* value : {"4x", "abc", "1e3", "-1", "0", " 4"}) {
    const auto [read, err] = ReadTestNumber(value, 7, 1);
    EXPECT_EQ(read, 7) << value;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << value;
  }
  EXPECT_EQ(ReadTestNumber("4x", 7, 1).second,
            "[kgc] ignoring OBS_ENV_TEST_NUMBER=\"4x\" (expected an integer "
            ">= 1); using 7\n");

  EXPECT_EQ(ReadTestNumber("1e3", 0.0, 0.0).first, 1000.0);
  EXPECT_EQ(ReadTestNumber("0", 5.0, 0.0).first, 0.0);
  EXPECT_EQ(ReadTestNumber("0", 1.0, 0.0, /*min_exclusive=*/true).second,
            "[kgc] ignoring OBS_ENV_TEST_NUMBER=\"0\" (expected a finite "
            "number > 0); using 1\n");
}

}  // namespace
}  // namespace kgc
