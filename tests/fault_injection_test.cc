// Fault-injection suite: drives the artifact cache, the trainer and the
// experiment context through torn writes, short reads, ENOSPC, rename
// failures, file corruption and mid-training crashes, and asserts
// that every bench-facing API degrades gracefully — clean Status errors,
// quarantined artifacts, transparent regeneration, and checkpoint resume
// that reproduces the uninterrupted run bit-for-bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "core/experiment_context.h"
#include "datagen/presets.h"
#include "eval/ranker.h"
#include "models/model_store.h"
#include "models/trainer.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/file_util.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Reads a file's raw bytes without going through the injectable I/O layer.
std::vector<uint8_t> RawRead(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

// Writes raw bytes directly (simulating what a crash or bit-rot left
// behind), bypassing the atomic-write + checksum protocol.
void RawWrite(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

// Every test starts and ends with all failpoints disarmed.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Get().DisarmAllForTest(); }
  void TearDown() override { FaultInjector::Get().DisarmAllForTest(); }
};

// --- FaultInjector itself ----------------------------------------------

TEST_F(FaultInjectionTest, SpecParsing) {
  FaultInjector& faults = FaultInjector::Get();
  EXPECT_TRUE(faults.ArmFromSpec("torn_write:bytes=64,short_read:times=2"));
  EXPECT_EQ(faults.TimesRemainingForTest(FaultKind::kTornWrite), 1);
  EXPECT_EQ(faults.TimesRemainingForTest(FaultKind::kShortRead), 2);
  int64_t payload = 0;
  EXPECT_TRUE(faults.ShouldFail(FaultKind::kTornWrite, &payload));
  EXPECT_EQ(payload, 64);
  EXPECT_FALSE(faults.ShouldFail(FaultKind::kTornWrite));
  faults.DisarmAllForTest();

  EXPECT_FALSE(faults.ArmFromSpec("no_such_fault"));
  EXPECT_FALSE(faults.ArmFromSpec("enospc:bogus"));
  EXPECT_TRUE(faults.ArmFromSpec("enospc:times=1:skip=2"));
  // skip=2: two operations pass before the armed failure fires.
  EXPECT_FALSE(faults.ShouldFail(FaultKind::kEnospc));
  EXPECT_FALSE(faults.ShouldFail(FaultKind::kEnospc));
  EXPECT_TRUE(faults.ShouldFail(FaultKind::kEnospc));
  EXPECT_FALSE(faults.ShouldFail(FaultKind::kEnospc));
}

TEST_F(FaultInjectionTest, StallAndCrashSpecsParse) {
  FaultInjector& faults = FaultInjector::Get();
  EXPECT_TRUE(faults.ArmFromSpec("stall:times=2:ms=40,crash:times=1"));
  EXPECT_EQ(faults.TimesRemainingForTest(FaultKind::kStall), 2);
  EXPECT_EQ(faults.TimesRemainingForTest(FaultKind::kCrash), 1);
  int64_t payload = 0;
  EXPECT_TRUE(faults.ShouldFail(FaultKind::kStall, &payload));
  EXPECT_EQ(payload, 40);
  faults.DisarmAllForTest();
  EXPECT_TRUE(faults.ArmFromSpec("mkdir_fail:times=1"));
  EXPECT_EQ(faults.TimesRemainingForTest(FaultKind::kMkdirFail), 1);
}

// --- Phase-boundary failpoints (stall / crash) ---------------------------

TEST_F(FaultInjectionTest, StallFailpointDelaysPhaseBoundaryOnce) {
  ASSERT_TRUE(FaultInjector::Get().ArmFromSpec("stall:times=1:ms=60"));
  Stopwatch stalled;
  PhaseBoundary("stall_here");
  EXPECT_GE(stalled.ElapsedSeconds(), 0.05);
  Stopwatch clean;
  PhaseBoundary("no_stall");  // failpoint exhausted
  EXPECT_LT(clean.ElapsedSeconds(), 0.05);
}

TEST_F(FaultInjectionTest, CrashFailpointAbortsAtPhaseBoundary) {
  EXPECT_DEATH(
      {
        FaultInjector::Get().Arm(FaultKind::kCrash, /*times=*/1);
        PhaseBoundary("boom");
      },
      "");
}

// --- Directory create / quarantine rename paths --------------------------

TEST_F(FaultInjectionTest, MkdirFailureSurfacesAsCleanIoError) {
  const std::string root = TempPath("kgc_fi_mkdir");
  std::filesystem::remove_all(root);
  FaultInjector::Get().Arm(FaultKind::kMkdirFail, /*times=*/1);
  const Status status = MakeDirectories(root + "/new/deep");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(root + "/new/deep"));
  // Failpoint exhausted: the same call now succeeds.
  EXPECT_TRUE(MakeDirectories(root + "/new/deep").ok());
  std::filesystem::remove_all(root);
}

TEST_F(FaultInjectionTest, QuarantineRenameFailureFallsBackToRemoval) {
  const std::string path = TempPath("kgc_fi_qrename.bin");
  ASSERT_TRUE(WriteStringToFile(path, "bad artifact").ok());
  FaultInjector::Get().Arm(FaultKind::kRenameFail, /*times=*/1);
  QuarantineCorrupt(path, Status::Internal("injected quarantine"));
  // The rename was injected to fail; the artifact must still be gone (the
  // caller regenerates), just without the .corrupt evidence file.
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".corrupt"));

  // And with the failpoint clear, quarantine preserves the evidence.
  ASSERT_TRUE(WriteStringToFile(path, "bad artifact").ok());
  QuarantineCorrupt(path, Status::Internal("injected quarantine"));
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".corrupt"));
  std::remove((path + ".corrupt").c_str());
}

// --- Atomic writes under injected faults --------------------------------

// Distinct 8-byte payloads; a torn write of either leaves a bad footer.
constexpr uint64_t kGoodArtifact = 0x600d600d600d600dULL;
constexpr uint64_t kNewerArtifact = 0x9e3779b97f4a7c15ULL;

TEST_F(FaultInjectionTest, TornWriteNeverReplacesGoodArtifact) {
  const std::string path = TempPath("kgc_fi_torn.bin");
  BinaryWriter good;
  good.WriteU64(kGoodArtifact);
  ASSERT_TRUE(good.Flush(path).ok());

  BinaryWriter update;
  update.WriteU64(kNewerArtifact);
  // Three failures exhaust Flush's retry budget.
  FaultInjector::Get().Arm(FaultKind::kTornWrite, /*times=*/3, /*skip=*/0,
                           /*payload=*/4);
  EXPECT_FALSE(update.Flush(path).ok());

  // The destination still holds the complete previous artifact.
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->ReadU64(), kGoodArtifact);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(FaultInjectionTest, TransientTornWriteIsRetried) {
  const std::string path = TempPath("kgc_fi_torn_transient.bin");
  FaultInjector::Get().Arm(FaultKind::kTornWrite, /*times=*/2, /*skip=*/0,
                           /*payload=*/4);
  BinaryWriter writer;
  writer.WriteU64(kNewerArtifact);
  EXPECT_TRUE(writer.Flush(path).ok());
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->ReadU64(), kNewerArtifact);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, EnospcSurfacesAsCleanError) {
  const std::string path = TempPath("kgc_fi_enospc.bin");
  FaultInjector::Get().Arm(FaultKind::kEnospc, /*times=*/3);
  BinaryWriter writer;
  writer.WriteU32(7);
  const Status status = writer.Flush(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
}

TEST_F(FaultInjectionTest, RenameFailureLeavesNoPartialFile) {
  const std::string path = TempPath("kgc_fi_rename.bin");
  FaultInjector::Get().Arm(FaultKind::kRenameFail, /*times=*/3);
  BinaryWriter writer;
  writer.WriteU32(7);
  EXPECT_FALSE(writer.Flush(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, ShortReadIsRetriedThenFails) {
  const std::string path = TempPath("kgc_fi_short_read.bin");
  BinaryWriter writer;
  writer.WriteU64(kGoodArtifact);
  ASSERT_TRUE(writer.Flush(path).ok());

  // One transient short read: the retry succeeds.
  FaultInjector::Get().Arm(FaultKind::kShortRead, /*times=*/1);
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->ReadU64(), kGoodArtifact);

  // A persistently failing device exhausts the retries.
  FaultInjector::Get().Arm(FaultKind::kShortRead, /*times=*/5);
  auto failed = BinaryReader::FromFile(path);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// --- Corruption matrix ---------------------------------------------------

// Truncations and bit-flips at header / body / footer offsets, applied to
// both cached artifact kinds. Loads must fail with a clean Status (no
// crash, no garbage data) and the harness must regenerate the artifact.
TEST_F(FaultInjectionTest, CorruptionMatrixDetectedAndRegenerated) {
  const std::string dir = TempPath("kgc_fi_matrix");
  std::filesystem::remove_all(dir);

  ExperimentOptions options;
  options.cache_dir = dir;
  options.epoch_scale = 0.05;  // ~3 epochs: fast but non-trivial
  const SyntheticKg tiny = GenerateTiny();
  size_t expected_ranks = 0;
  {
    ExperimentContext context(options);
    context.GetModel(tiny.dataset, ModelType::kTransE);
    expected_ranks =
        context.GetRanks(tiny.dataset, ModelType::kTransE).size();
    ASSERT_EQ(expected_ranks, tiny.dataset.test().size());
  }

  // Locate the two artifacts.
  std::string model_path, ranks_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.ends_with(".kgcm")) model_path = path;
    if (path.ends_with(".ranks")) ranks_path = path;
  }
  ASSERT_FALSE(model_path.empty());
  ASSERT_FALSE(ranks_path.empty());

  struct Mutation {
    const char* name;
    std::vector<uint8_t> (*apply)(const std::vector<uint8_t>&);
  };
  const Mutation kMutations[] = {
      {"truncate_header",
       [](const std::vector<uint8_t>& b) {
         return std::vector<uint8_t>(b.begin(), b.begin() + 3);
       }},
      {"truncate_body",
       [](const std::vector<uint8_t>& b) {
         return std::vector<uint8_t>(b.begin(),
                                     b.begin() + static_cast<long>(b.size() / 2));
       }},
      {"truncate_footer",
       [](const std::vector<uint8_t>& b) {
         return std::vector<uint8_t>(b.begin(), b.end() - 4);
       }},
      {"bitflip_header",
       [](const std::vector<uint8_t>& b) {
         std::vector<uint8_t> out = b;
         out[5] ^= 0x40;
         return out;
       }},
      {"bitflip_body",
       [](const std::vector<uint8_t>& b) {
         std::vector<uint8_t> out = b;
         out[out.size() / 2] ^= 0x01;
         return out;
       }},
      {"bitflip_footer",
       [](const std::vector<uint8_t>& b) {
         std::vector<uint8_t> out = b;
         out[out.size() - 1] ^= 0x80;
         return out;
       }},
  };

  const std::vector<uint8_t> model_pristine = RawRead(model_path);
  const std::vector<uint8_t> ranks_pristine = RawRead(ranks_path);
  const std::string key =
      std::filesystem::path(model_path).stem().string();

  for (const Mutation& mutation : kMutations) {
    SCOPED_TRACE(mutation.name);

    // Model artifact: direct load fails cleanly and quarantines...
    RawWrite(model_path, mutation.apply(model_pristine));
    {
      ModelStore store(dir);
      auto loaded = store.Load(key);
      EXPECT_FALSE(loaded.ok());
      EXPECT_FALSE(FileExists(model_path));  // moved aside
      EXPECT_TRUE(FileExists(model_path + ".corrupt"));
    }
    // ...and the harness regenerates it transparently.
    RawWrite(model_path, mutation.apply(model_pristine));
    {
      ExperimentContext context(options);
      const KgeModel& model =
          context.GetModel(tiny.dataset, ModelType::kTransE);
      EXPECT_EQ(model.num_entities(), tiny.dataset.num_entities());
    }
    ModelStore store(dir);
    EXPECT_TRUE(store.Load(key).ok());  // cache healthy again
    std::remove((model_path + ".corrupt").c_str());

    // Rank artifact: same drill.
    RawWrite(ranks_path, mutation.apply(ranks_pristine));
    EXPECT_FALSE(LoadRanks(ranks_path).ok());
    {
      ExperimentContext context(options);
      const auto& ranks =
          context.GetRanks(tiny.dataset, ModelType::kTransE);
      EXPECT_EQ(ranks.size(), expected_ranks);
    }
    EXPECT_TRUE(LoadRanks(ranks_path).ok());  // rewritten healthy
    std::remove((ranks_path + ".corrupt").c_str());
  }

  std::filesystem::remove_all(dir);
}

// --- Malformed headers ---------------------------------------------------

TEST_F(FaultInjectionTest, HostileModelHeaderIsRejectedBeforeAllocation) {
  const std::string dir = TempPath("kgc_fi_hostile");
  std::filesystem::remove_all(dir);
  ModelStore store(dir);
  ASSERT_TRUE(store.usable());

  constexpr uint32_t kKgcmMagic = 0x4b47434dU;
  constexpr uint32_t kKgcmVersion = 2;
  const auto write_header = [&](int32_t entities, int32_t relations,
                                int32_t dim) {
    BinaryWriter writer;
    writer.WriteU32(kKgcmMagic);
    writer.WriteU32(kKgcmVersion);
    writer.WriteI32(0);  // TransE
    writer.WriteI32(entities);
    writer.WriteI32(relations);
    writer.WriteI32(dim);
    writer.WriteI32(8);
    writer.WriteDouble(0.05);
    writer.WriteDouble(1.0);
    writer.WriteI32(0);
    // No parameter payload at all: any declared shape is a lie.
    ASSERT_TRUE(writer.Flush(store.PathFor("hostile")).ok());
  };

  // Counts far beyond any plausible dataset must be rejected up front —
  // not fed to CreateModel, which would allocate entities x dim floats.
  write_header(1 << 30, 10, 32);
  EXPECT_FALSE(store.Load("hostile").ok());

  // Negative counts likewise.
  write_header(-5, 10, 32);
  EXPECT_FALSE(store.Load("hostile").ok());

  // Plausible-looking counts that exceed the actual payload size.
  write_header(10000, 10, 64);
  EXPECT_FALSE(store.Load("hostile").ok());

  std::filesystem::remove_all(dir);
}

// --- Checkpoint / resume -------------------------------------------------

// A killed-then-resumed run must reproduce the uninterrupted run exactly:
// same final loss, bit-identical parameters, identical metrics.
class ResumeTest : public FaultInjectionTest,
                   public ::testing::WithParamInterface<ModelType> {};

TEST_P(ResumeTest, KilledRunResumesToIdenticalResult) {
  const ModelType type = GetParam();
  const SyntheticKg kg = GenerateTiny(5);
  ModelHyperParams params = DefaultHyperParams(type);
  params.dim = 8;

  TrainOptions options;
  options.epochs = 6;
  options.seed = 9;

  // Reference: uninterrupted run.
  auto uninterrupted =
      CreateModel(type, kg.dataset.num_entities(),
                  kg.dataset.num_relations(), params);
  const TrainStats reference = TrainModel(*uninterrupted, kg.dataset, options);

  // Killed run: checkpoint every epoch, and a child process that aborts at
  // the third epoch's phase boundary, right after that epoch's checkpoint
  // landed. Then resume in this process with a brand-new model instance.
  const std::string ckpt = TempPath("kgc_fi_resume.ckpt");
  std::remove(ckpt.c_str());
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;
  EXPECT_DEATH(
      {
        FaultInjector::Get().Arm(FaultKind::kCrash, /*times=*/1, /*skip=*/2);
        auto killed = CreateModel(type, kg.dataset.num_entities(),
                                  kg.dataset.num_relations(), params);
        TrainModel(*killed, kg.dataset, options);
      },
      "");
  EXPECT_TRUE(FileExists(ckpt));
  auto resumed = CreateModel(type, kg.dataset.num_entities(),
                             kg.dataset.num_relations(), params);
  const TrainStats stats = TrainModel(*resumed, kg.dataset, options);
  EXPECT_EQ(stats.resumed_from_epoch, 3);
  EXPECT_EQ(stats.epochs_run, reference.epochs_run);
  EXPECT_EQ(stats.final_loss, reference.final_loss);
  EXPECT_FALSE(FileExists(ckpt));  // consumed on success

  // Bit-identical parameters: identical scores everywhere we look...
  for (const Triple& t : kg.dataset.test()) {
    EXPECT_EQ(resumed->Score(t.head, t.relation, t.tail),
              uninterrupted->Score(t.head, t.relation, t.tail));
  }
  // ...and therefore identical evaluation metrics.
  const LinkPredictionMetrics a =
      EvaluatePredictor(*uninterrupted, kg.dataset);
  const LinkPredictionMetrics b = EvaluatePredictor(*resumed, kg.dataset);
  EXPECT_EQ(a.fmrr, b.fmrr);
  EXPECT_EQ(a.fhits10, b.fhits10);
}

// One margin/SGD model and one logistic/AdaGrad model: the AdaGrad case
// proves optimizer accumulators survive the checkpoint.
INSTANTIATE_TEST_SUITE_P(Models, ResumeTest,
                         ::testing::Values(ModelType::kTransE,
                                           ModelType::kDistMult),
                         [](const auto& info) {
                           return ModelTypeName(info.param);
                         });

TEST_F(FaultInjectionTest, MismatchedCheckpointIsQuarantinedNotTrusted) {
  const SyntheticKg kg = GenerateTiny(5);
  ModelHyperParams params = DefaultHyperParams(ModelType::kTransE);
  params.dim = 8;

  const std::string ckpt = TempPath("kgc_fi_mismatch.ckpt");
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".corrupt").c_str());

  // Leave a checkpoint behind from a run with a different seed, killed at
  // the second epoch's phase boundary.
  TrainOptions options;
  options.epochs = 6;
  options.seed = 9;
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;
  EXPECT_DEATH(
      {
        FaultInjector::Get().Arm(FaultKind::kCrash, /*times=*/1, /*skip=*/1);
        auto model = CreateModel(ModelType::kTransE,
                                 kg.dataset.num_entities(),
                                 kg.dataset.num_relations(), params);
        TrainModel(*model, kg.dataset, options);
      },
      "");
  ASSERT_TRUE(FileExists(ckpt));

  // A run with a different seed must not resume from it; it trains from
  // scratch and matches a checkpoint-free run with its own seed.
  options.seed = 77;
  auto fresh = CreateModel(ModelType::kTransE, kg.dataset.num_entities(),
                           kg.dataset.num_relations(), params);
  TrainOptions no_ckpt = options;
  no_ckpt.checkpoint_path.clear();
  no_ckpt.checkpoint_every = 0;
  const TrainStats fresh_stats = TrainModel(*fresh, kg.dataset, no_ckpt);

  auto guarded = CreateModel(ModelType::kTransE, kg.dataset.num_entities(),
                             kg.dataset.num_relations(), params);
  const TrainStats guarded_stats = TrainModel(*guarded, kg.dataset, options);
  EXPECT_EQ(guarded_stats.resumed_from_epoch, 0);
  EXPECT_EQ(guarded_stats.final_loss, fresh_stats.final_loss);
  EXPECT_TRUE(FileExists(ckpt + ".corrupt"));  // evidence preserved

  std::remove((ckpt + ".corrupt").c_str());
  std::remove(ckpt.c_str());
}

// --- Degraded cache directory -------------------------------------------

TEST_F(FaultInjectionTest, UnusableCacheDirIsReportedAndHarnessStillWorks) {
  // A regular file where the cache directory should be makes mkdir fail.
  const std::string blocker = TempPath("kgc_fi_blocker");
  ASSERT_TRUE(WriteStringToFile(blocker, "in the way").ok());

  ExperimentOptions options;
  options.cache_dir = blocker + "/cache";
  options.epoch_scale = 0.02;
  ExperimentContext context(options);
  EXPECT_FALSE(context.store().usable());

  const SyntheticKg tiny = GenerateTiny();
  const KgeModel& model = context.GetModel(tiny.dataset, ModelType::kTransE);
  EXPECT_EQ(model.num_entities(), tiny.dataset.num_entities());
  const auto& ranks = context.GetRanks(tiny.dataset, ModelType::kTransE);
  EXPECT_EQ(ranks.size(), tiny.dataset.test().size());

  std::remove(blocker.c_str());
}

// --- End-to-end: faults armed while the harness runs ---------------------

TEST_F(FaultInjectionTest, HarnessSurvivesFaultsAndStaysCorrect) {
  const std::string dir = TempPath("kgc_fi_e2e");
  std::filesystem::remove_all(dir);

  ExperimentOptions options;
  options.cache_dir = dir;
  options.epoch_scale = 0.05;
  const SyntheticKg tiny = GenerateTiny();

  // Reference metrics from a clean run.
  double reference_fmrr = 0.0;
  {
    ExperimentContext context(options);
    reference_fmrr =
        ComputeMetrics(context.GetRanks(tiny.dataset, ModelType::kTransE))
            .fmrr;
  }

  // Same query under persistent injected read failures: the cache is
  // unreadable, so the harness recomputes — and gets the same answer.
  {
    FaultInjector::Get().Arm(FaultKind::kShortRead, /*times=*/1000);
    ExperimentContext context(options);
    const double fmrr =
        ComputeMetrics(context.GetRanks(tiny.dataset, ModelType::kTransE))
            .fmrr;
    FaultInjector::Get().DisarmAllForTest();
    EXPECT_EQ(fmrr, reference_fmrr);
  }

  // Same query under persistent injected write failures: nothing persists,
  // but the in-memory result is still correct.
  std::filesystem::remove_all(dir);
  {
    FaultInjector::Get().Arm(FaultKind::kEnospc, /*times=*/1000);
    ExperimentContext context(options);
    const double fmrr =
        ComputeMetrics(context.GetRanks(tiny.dataset, ModelType::kTransE))
            .fmrr;
    FaultInjector::Get().DisarmAllForTest();
    EXPECT_EQ(fmrr, reference_fmrr);
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kgc
