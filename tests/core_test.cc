// Tests for the experiment context, caches, audit and oracle catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>

#include "core/audit.h"
#include "core/experiment_context.h"
#include "util/deadline.h"
#include "util/file_util.h"
#include "util/serialize.h"

namespace kgc {
namespace {

std::string TempCacheDir(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(RankIoTest, SaveLoadRoundTrip) {
  const std::string path = TempCacheDir("kgc_ranks_test.bin");
  std::vector<TripleRanks> ranks(3);
  for (size_t i = 0; i < ranks.size(); ++i) {
    ranks[i].triple = {static_cast<EntityId>(i), 0,
                       static_cast<EntityId>(i + 1)};
    ranks[i].head_raw = 1.0 + static_cast<double>(i);
    ranks[i].head_filtered = 1.0;
    ranks[i].tail_raw = 7.5;
    ranks[i].tail_filtered = 2.5;
  }
  ASSERT_TRUE(SaveRanks(path, ranks).ok());
  auto loaded = LoadRanks(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[2].triple, ranks[2].triple);
  EXPECT_DOUBLE_EQ((*loaded)[1].head_raw, 2.0);
  EXPECT_DOUBLE_EQ((*loaded)[0].tail_filtered, 2.5);
  std::remove(path.c_str());
}

TEST(RankIoTest, CorruptFileIsError) {
  const std::string path = TempCacheDir("kgc_ranks_corrupt.bin");
  ASSERT_TRUE(WriteStringToFile(path, "not a rank file").ok());
  EXPECT_FALSE(LoadRanks(path).ok());
  std::remove(path.c_str());
}

TEST(RankIoTest, OversizedEntryCountIsError) {
  // A well-formed file (valid CRC footer) whose header declares 2^40
  // entries over a one-entry payload: the loader must reject the count
  // instead of sizing an allocation by it.
  const std::string path = TempCacheDir("kgc_ranks_oversized.bin");
  BinaryWriter writer;
  writer.WriteU32(0x4b524e32U);  // "KRN2", the current rank cache magic
  writer.WriteU64(uint64_t{1} << 40);
  for (int i = 0; i < 3; ++i) writer.WriteI32(i);
  for (int i = 0; i < 4; ++i) writer.WriteDouble(1.0);
  ASSERT_TRUE(writer.Flush(path).ok());
  EXPECT_FALSE(LoadRanks(path).ok());
  std::remove(path.c_str());
}

TEST(OracleCatalogTest, MirrorsGeneratorMetadata) {
  const SyntheticKg kg = GenerateSynthWn18();
  const RedundancyCatalog oracle = BuildOracleCatalog(kg);
  EXPECT_EQ(oracle.reverse_pairs.size(), 7u);
  EXPECT_EQ(oracle.symmetric_relations.size(), 3u);
  EXPECT_TRUE(oracle.duplicate_pairs.empty());

  const SyntheticKg fb = GenerateSynthFb15k();
  const RedundancyCatalog fb_oracle = BuildOracleCatalog(fb);
  EXPECT_EQ(fb_oracle.reverse_pairs.size(), 52u);
  EXPECT_EQ(fb_oracle.duplicate_pairs.size(), 7u);
  EXPECT_EQ(fb_oracle.reverse_duplicate_pairs.size(), 5u);
}

TEST(AuditTest, ReportHasExpectedShape) {
  const SyntheticKg kg = GenerateTiny();
  const AuditReport report = RunAudit(kg.dataset);
  EXPECT_EQ(report.dataset_name, "tiny-syn");
  EXPECT_EQ(report.num_train, kg.dataset.train().size());
  EXPECT_EQ(report.bitmap.cases.size(), kg.dataset.test().size());
  // The tiny preset plants two reverse pairs and one Cartesian relation.
  EXPECT_GE(report.catalog.reverse_pairs.size(), 1u);
  EXPECT_GE(report.cartesian.size(), 1u);
  const std::string rendered = RenderAudit(report, kg.dataset.vocab());
  EXPECT_NE(rendered.find("Reverse leakage"), std::string::npos);
  EXPECT_NE(rendered.find("tiny/cart"), std::string::npos);
}

TEST(ExperimentContextTest, ModelAndRankCachesWork) {
  const std::string dir = TempCacheDir("kgc_ctx_test");
  std::filesystem::remove_all(dir);

  ExperimentOptions options;
  options.cache_dir = dir;
  options.epoch_scale = 0.02;  // 1-2 epochs: fast
  {
    ExperimentContext context(options);
    const SyntheticKg tiny = GenerateTiny();
    const KgeModel& model =
        context.GetModel(tiny.dataset, ModelType::kTransE);
    EXPECT_EQ(model.num_entities(), tiny.dataset.num_entities());
    const auto& ranks = context.GetRanks(tiny.dataset, ModelType::kTransE);
    EXPECT_EQ(ranks.size(), tiny.dataset.test().size());
  }
  // A fresh context must load both caches from disk (same scores => same
  // ranks) rather than retraining.
  {
    ExperimentContext context(options);
    const SyntheticKg tiny = GenerateTiny();
    const auto& ranks = context.GetRanks(tiny.dataset, ModelType::kTransE);
    EXPECT_EQ(ranks.size(), tiny.dataset.test().size());
  }
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);  // one model file + one rank file
  std::filesystem::remove_all(dir);
}

std::vector<std::string> g_warm_deadline_phases;
void RecordWarmDeadline(const char* phase) {
  g_warm_deadline_phases.emplace_back(phase);
}

// WarmRanks ranks its whole lineup in one sweep on the serial path, so the
// sweep's phase boundaries check the deadline at every thread count (a
// sweep nested in a ParallelFor worker would check it at none).
TEST(ExperimentContextTest, WarmRanksHonoursPhaseDeadlineAtEveryThreadCount) {
  const ModelType types[] = {ModelType::kTransE, ModelType::kDistMult};
  const SyntheticKg tiny = GenerateTiny();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::string dir = TempCacheDir("kgc_ctx_warm_deadline");
    std::filesystem::remove_all(dir);
    ExperimentOptions options;
    options.cache_dir = dir;
    options.epoch_scale = 0.02;
    options.threads = threads;
    ExperimentContext context(options);
    // Train before the budget is set: only the ranking is under test.
    for (ModelType type : types) context.GetModel(tiny.dataset, type);

    g_warm_deadline_phases.clear();
    SetDeadlineHandlerForTest(RecordWarmDeadline);
    // One nanosecond: every boundary observes an already-expired clock.
    Deadline::Global().SetPhaseBudgetForTest(1e-9);
    context.WarmRanks(tiny.dataset, types);
    Deadline::Global().SetPhaseBudgetForTest(0);
    SetDeadlineHandlerForTest(nullptr);

    ASSERT_FALSE(g_warm_deadline_phases.empty());
    EXPECT_EQ(g_warm_deadline_phases.front(), "rank_pass");
    EXPECT_EQ(g_warm_deadline_phases.back(), "rank_done");
    for (ModelType type : types) {
      EXPECT_EQ(context.GetRanks(tiny.dataset, type).size(),
                tiny.dataset.test().size());
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(ExperimentContextTest, SuitesAreConsistent) {
  ExperimentOptions options;
  options.cache_dir = TempCacheDir("kgc_ctx_suites");
  ExperimentContext context(options);
  const BenchmarkSuite& wn = context.Wn18();
  EXPECT_EQ(wn.kg.dataset.name(), "WN18-syn");
  EXPECT_EQ(wn.cleaned.name(), "WN18RR-syn");
  EXPECT_EQ(wn.cleaned.CountUsedRelations(), 11);
  EXPECT_EQ(wn.oracle.reverse_pairs.size(), 7u);
  EXPECT_LT(wn.cleaned.train().size(), wn.kg.dataset.train().size());
  std::filesystem::remove_all(options.cache_dir);
}

TEST(ScaledTrainOptionsTest, EpochScaleApplies) {
  ExperimentOptions options;
  options.cache_dir = TempCacheDir("kgc_ctx_scale");
  options.epoch_scale = 0.5;
  ExperimentContext context(options);
  const TrainOptions scaled =
      context.ScaledTrainOptions(ModelType::kTransE);
  const TrainOptions defaults = DefaultTrainOptions(ModelType::kTransE);
  EXPECT_EQ(scaled.epochs, defaults.epochs / 2);
  std::filesystem::remove_all(options.cache_dir);
}

TEST(ScaledTrainOptionsTest, EpochCountIsClampedNotWrapped) {
  ExperimentOptions options;
  options.cache_dir = TempCacheDir("kgc_ctx_clamp");
  ASSERT_EQ(DefaultTrainOptions(ModelType::kTransE).epochs, 60);
  const auto epochs = [&](double scale) {
    options.epoch_scale = scale;
    return ExperimentContext(options)
        .ScaledTrainOptions(ModelType::kTransE)
        .epochs;
  };
  EXPECT_EQ(epochs(0.01), 1);
  EXPECT_EQ(epochs(1.0), 60);
  EXPECT_EQ(epochs(1e10), std::numeric_limits<int>::max());
  EXPECT_EQ(epochs(1e300), std::numeric_limits<int>::max());
  std::filesystem::remove_all(options.cache_dir);
}

TEST(ExperimentOptionsTest, FromEnvParsesEpochScaleStrictly) {
  // Sets KGC_EPOCH_SCALE (unset when null), parses, and returns the scale
  // plus the number of warning lines FromEnv printed.
  const auto parse = [](const char* value) {
    if (value != nullptr) {
      ::setenv("KGC_EPOCH_SCALE", value, 1);
    } else {
      ::unsetenv("KGC_EPOCH_SCALE");
    }
    ::testing::internal::CaptureStderr();
    const ExperimentOptions options = ExperimentOptions::FromEnv();
    const std::string err = ::testing::internal::GetCapturedStderr();
    ::unsetenv("KGC_EPOCH_SCALE");
    return std::make_pair(
        options.epoch_scale,
        static_cast<int>(std::count(err.begin(), err.end(), '\n')));
  };
  {
    const auto [scale, warnings] = parse(nullptr);
    EXPECT_EQ(scale, 1.0);
    EXPECT_EQ(warnings, 0);
  }
  {
    const auto [scale, warnings] = parse("0.01");
    EXPECT_EQ(scale, 0.01);
    EXPECT_EQ(warnings, 0);
  }
  // atof used to read each of these as a scale <= 0 (or a partial number),
  // which silently trained every model for one epoch.
  for (const char* value : {"abc", "0", "-1", "0.5x", "nan", "inf"}) {
    const auto [scale, warnings] = parse(value);
    EXPECT_EQ(scale, 1.0) << value;
    EXPECT_EQ(warnings, 1) << value;
  }
}

}  // namespace
}  // namespace kgc
