// Snapshot lifecycle tests: manifest round-trips, the rotation protocol
// (publish / rollback / quarantine), crash-shaped I/O faults at every
// failpoint site with recovery to a consistent generation, replay
// idempotence, and zero-downtime reader pinning.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kg/dataset.h"
#include "obs/metrics.h"
#include "snapshot/manifest.h"
#include "snapshot/snapshot_registry.h"
#include "snapshot/stream_ingestor.h"
#include "util/fault_injector.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace kgc {
namespace {

namespace fs = std::filesystem;

SnapshotManifest FullManifest() {
  SnapshotManifest m;
  m.generation = 42;
  m.parent = 41;
  m.status = "rolled_back";
  m.source_batch = "batch with \"quotes\"\tand tabs";
  m.source_batch_index = 17;
  m.dataset_name = "tiny-stream";
  m.num_entities = 150;
  m.num_relations = 8;
  m.train_triples = 400;
  m.valid_triples = 66;
  m.test_triples = 51;
  m.delta_triples = 40;
  m.rejected_lines = 3;
  m.warm_start = true;
  m.epochs = 12;
  m.train_seed = 0xdeadbeefcafef00dULL;
  m.model = "TransE";
  m.model_crc32 = 0x89abcdefu;
  m.model_bytes = 123456;
  m.data_crc32 = 0xfedcba98u;
  m.relations_audited = 8;
  m.duplicate_pairs = 1;
  m.reverse_pairs = 2;
  m.symmetric_relations = 3;
  m.cartesian_relations = 4;
  m.valid_mrr = 0.1 + 0.2;  // 0.30000000000000004: needs %.17g to survive
  m.parent_valid_mrr = 1.0 / 3.0;
  m.epsilon = -2.0;
  m.rollback_reason = "regressed\nbadly";
  return m;
}

TEST(SnapshotManifestTest, RoundTripsEveryFieldBitExactly) {
  const SnapshotManifest m = FullManifest();
  auto parsed = ParseManifest(RenderManifest(m));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->generation, m.generation);
  EXPECT_EQ(parsed->parent, m.parent);
  EXPECT_EQ(parsed->status, m.status);
  EXPECT_EQ(parsed->source_batch, m.source_batch);
  EXPECT_EQ(parsed->source_batch_index, m.source_batch_index);
  EXPECT_EQ(parsed->dataset_name, m.dataset_name);
  EXPECT_EQ(parsed->num_entities, m.num_entities);
  EXPECT_EQ(parsed->num_relations, m.num_relations);
  EXPECT_EQ(parsed->train_triples, m.train_triples);
  EXPECT_EQ(parsed->valid_triples, m.valid_triples);
  EXPECT_EQ(parsed->test_triples, m.test_triples);
  EXPECT_EQ(parsed->delta_triples, m.delta_triples);
  EXPECT_EQ(parsed->rejected_lines, m.rejected_lines);
  EXPECT_EQ(parsed->warm_start, m.warm_start);
  EXPECT_EQ(parsed->epochs, m.epochs);
  EXPECT_EQ(parsed->train_seed, m.train_seed);
  EXPECT_EQ(parsed->model, m.model);
  EXPECT_EQ(parsed->model_crc32, m.model_crc32);
  EXPECT_EQ(parsed->model_bytes, m.model_bytes);
  EXPECT_EQ(parsed->data_crc32, m.data_crc32);
  EXPECT_EQ(parsed->relations_audited, m.relations_audited);
  EXPECT_EQ(parsed->duplicate_pairs, m.duplicate_pairs);
  EXPECT_EQ(parsed->reverse_pairs, m.reverse_pairs);
  EXPECT_EQ(parsed->symmetric_relations, m.symmetric_relations);
  EXPECT_EQ(parsed->cartesian_relations, m.cartesian_relations);
  // Bit-exact double round-trip (the %.17g contract).
  EXPECT_EQ(parsed->valid_mrr, m.valid_mrr);
  EXPECT_EQ(parsed->parent_valid_mrr, m.parent_valid_mrr);
  EXPECT_EQ(parsed->epsilon, m.epsilon);
  EXPECT_EQ(parsed->rollback_reason, m.rollback_reason);
}

TEST(SnapshotManifestTest, RejectsWrongSchemaAndGarbage) {
  EXPECT_FALSE(ParseManifest("{\"schema\":\"other.v1\"}").ok());
  EXPECT_FALSE(ParseManifest("not json").ok());
  EXPECT_FALSE(ParseManifest("{\"schema\":\"kgc.snapshot_manifest.v1\"").ok());
  EXPECT_FALSE(ParseCurrentPointer("{\"schema\":\"wrong\"}").ok());
}

TEST(SnapshotManifestTest, CurrentPointerRoundTrips) {
  CurrentPointer p;
  p.generation = 7;
  p.manifest_crc32 = 0x12345678u;
  auto parsed = ParseCurrentPointer(RenderCurrentPointer(p));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->generation, 7);
  EXPECT_EQ(parsed->manifest_crc32, 0x12345678u);
}

// ---------------------------------------------------------------------------
// Lifecycle fixture: a small handcrafted KG, fast training settings.

class SnapshotLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Get().DisarmAllForTest();
    root_ = (fs::temp_directory_path() /
             ("kgc_snap_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override {
    FaultInjector::Get().DisarmAllForTest();
    fs::remove_all(root_);
  }

  static Dataset MakeBase() {
    Vocab vocab;
    TripleList train, valid, test;
    const auto add = [&vocab](TripleList& dst, const std::string& h,
                              const std::string& r, const std::string& t) {
      dst.push_back(Triple{vocab.InternEntity(h), vocab.InternRelation(r),
                           vocab.InternEntity(t)});
    };
    for (int i = 0; i < 10; ++i) {
      const std::string a = StrFormat("e%d", i);
      const std::string b = StrFormat("e%d", (i + 1) % 10);
      add(train, a, "r0", b);
      add(train, b, "r1", a);
    }
    add(valid, "e0", "r0", "e2");
    add(valid, "e5", "r1", "e3");
    add(test, "e1", "r0", "e4");
    add(test, "e6", "r1", "e2");
    return Dataset("snap-base", std::move(vocab), std::move(train),
                   std::move(valid), std::move(test));
  }

  static StreamIngestorOptions FastOptions(double epsilon = 1.0) {
    StreamIngestorOptions options;
    options.epochs = 2;
    options.bootstrap_epochs = 3;
    options.epsilon = epsilon;  // generous: tiny models jitter
    options.valid_every = 4;
    options.threads = 1;
    return options;
  }

  /// Lines over existing entity names only -> warm start.
  static std::vector<std::string> WarmBatch() {
    return {"e0\tr0\te5", "e2\tr1\te7", "e3\tr0\te8", "e9\tr1\te4",
            "e1\tr0\te6"};
  }

  /// Lines introducing a new entity -> vocab grows -> cold start.
  static std::vector<std::string> ColdBatch() {
    return {"x0\tr0\te1", "e2\tr1\tx0", "x1\tr0\tx0"};
  }

  std::unique_ptr<SnapshotRegistry> MustOpen() {
    auto opened = SnapshotRegistry::Open(root_);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(*opened);
  }

  IngestReport MustIngest(StreamIngestor& ingestor,
                          const std::vector<std::string>& lines,
                          const std::string& label, int64_t index) {
    auto report = ingestor.IngestBatch(lines, label, index);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : IngestReport{};
  }

  std::string root_;
};

TEST_F(SnapshotLifecycleTest, BootstrapPublishesGenerationZero) {
  auto registry = MustOpen();
  EXPECT_EQ(registry->current_generation(), -1);
  EXPECT_EQ(registry->current(), nullptr);

  StreamIngestor ingestor(*registry, FastOptions());
  auto report = ingestor.Bootstrap(MakeBase());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, "published");
  EXPECT_EQ(report->generation, 0);
  EXPECT_EQ(registry->current_generation(), 0);
  EXPECT_TRUE(fs::exists(registry->GenerationDir(0) + "/manifest.json"));
  EXPECT_TRUE(fs::exists(registry->GenerationDir(0) + "/model.kgcm"));
  EXPECT_TRUE(fs::exists(registry->GenerationDir(0) + "/data/train2id.txt"));
  EXPECT_TRUE(fs::exists(registry->CurrentPath()));

  // A second bootstrap must refuse: the registry is no longer empty.
  EXPECT_FALSE(ingestor.Bootstrap(MakeBase()).ok());

  const auto current = registry->current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->manifest.status, "published");
  EXPECT_EQ(current->manifest.parent, -1);
  EXPECT_EQ(current->manifest.source_batch, "bootstrap");
  EXPECT_FALSE(current->manifest.warm_start);
  EXPECT_EQ(current->manifest.train_triples, 20);
  // Bootstrap audits every relation.
  EXPECT_EQ(current->manifest.relations_audited, 2);
}

TEST_F(SnapshotLifecycleTest, ReopenLoadsPublishedChainWithoutRecovery) {
  {
    auto registry = MustOpen();
    StreamIngestor ingestor(*registry, FastOptions());
    ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
    EXPECT_EQ(MustIngest(ingestor, WarmBatch(), "b0", 0).outcome,
              "published");
  }
  auto reopened = MustOpen();
  EXPECT_FALSE(reopened->recovered());
  EXPECT_EQ(reopened->orphans_swept(), 0);
  EXPECT_EQ(reopened->current_generation(), 1);
  const auto current = reopened->current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->manifest.source_batch, "b0");
  EXPECT_EQ(current->manifest.source_batch_index, 0);
  EXPECT_NE(current->model, nullptr);
}

TEST_F(SnapshotLifecycleTest, WarmAndColdStartsFollowVocabShape) {
  auto registry = MustOpen();
  StreamIngestor ingestor(*registry, FastOptions());
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());

  const IngestReport warm = MustIngest(ingestor, WarmBatch(), "warm", 0);
  EXPECT_EQ(warm.outcome, "published");
  auto manifest1 = registry->ReadManifest(1);
  ASSERT_TRUE(manifest1.ok());
  EXPECT_TRUE(manifest1->warm_start);
  EXPECT_EQ(manifest1->delta_triples, 5);

  const IngestReport cold = MustIngest(ingestor, ColdBatch(), "cold", 1);
  EXPECT_EQ(cold.outcome, "published");
  auto manifest2 = registry->ReadManifest(2);
  ASSERT_TRUE(manifest2.ok());
  EXPECT_FALSE(manifest2->warm_start);
  EXPECT_EQ(manifest2->num_entities, 12);  // 10 base + x0 + x1
}

TEST_F(SnapshotLifecycleTest, ReplaySkipsCoveredBatchesAndDedupes) {
  auto registry = MustOpen();
  StreamIngestor ingestor(*registry, FastOptions());
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
  ASSERT_EQ(MustIngest(ingestor, WarmBatch(), "b0", 0).outcome, "published");

  // Same index again: replay after recovery must be a no-op.
  const IngestReport replay = MustIngest(ingestor, WarmBatch(), "b0", 0);
  EXPECT_EQ(replay.outcome, "skipped");
  EXPECT_EQ(registry->current_generation(), 1);

  // New index but every triple already lives in the graph: empty delta.
  const IngestReport dup = MustIngest(ingestor, WarmBatch(), "b1", 1);
  EXPECT_EQ(dup.outcome, "empty");
  EXPECT_EQ(registry->current_generation(), 1);
}

TEST_F(SnapshotLifecycleTest, StrictModeQuarantinesBatchLenientCounts) {
  auto registry = MustOpen();
  StreamIngestorOptions strict = FastOptions();
  strict.ingest.strict = true;
  StreamIngestor ingestor(*registry, strict);
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());

  std::vector<std::string> bad = WarmBatch();
  bad.push_back("only_two\tfields");
  const IngestReport quarantined = MustIngest(ingestor, bad, "bad", 0);
  EXPECT_EQ(quarantined.outcome, "quarantined");
  EXPECT_EQ(registry->current_generation(), 0);  // nothing published
  EXPECT_TRUE(fs::exists(registry->QuarantineDir() + "/bad.lines"));
  EXPECT_TRUE(fs::exists(registry->QuarantineDir() + "/bad.reason"));

  // Lenient ingestor over the same batch: drops the bad line, publishes
  // the rest, and the manifest records the reject count.
  StreamIngestor lenient(*registry, FastOptions());
  const IngestReport published = MustIngest(lenient, bad, "bad2", 0);
  EXPECT_EQ(published.outcome, "published");
  EXPECT_EQ(published.rejected_lines, 1u);
  EXPECT_EQ(published.delta_triples, 5u);
  auto manifest = registry->ReadManifest(1);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->rejected_lines, 1);
}

TEST_F(SnapshotLifecycleTest, RegressionGateRollsBackAndRecords) {
  auto registry = MustOpen();
  // A negative epsilon can never be satisfied: every candidate regresses.
  StreamIngestor ingestor(*registry, FastOptions(/*epsilon=*/-2.0));
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());

  const IngestReport report = MustIngest(ingestor, WarmBatch(), "b0", 0);
  EXPECT_EQ(report.outcome, "rolled_back");
  EXPECT_EQ(registry->current_generation(), 0);  // old generation stays live
  EXPECT_FALSE(fs::exists(registry->StagingDir(1)));
  EXPECT_FALSE(fs::exists(registry->GenerationDir(1)));

  // The verdict lands in rotation.log as a rolled_back manifest.
  auto log_bytes = ReadFileBytes(registry->RotationLogPath());
  ASSERT_TRUE(log_bytes.ok());
  const std::string log(log_bytes->begin(), log_bytes->end());
  EXPECT_NE(log.find("\"status\":\"rolled_back\""), std::string::npos);
  EXPECT_NE(log.find("regressed"), std::string::npos);

  // The next batch reuses the generation number the rollback freed.
  StreamIngestor permissive(*registry, FastOptions());
  EXPECT_EQ(MustIngest(permissive, WarmBatch(), "b1", 1).generation, 1);
}

TEST_F(SnapshotLifecycleTest, ReaderPinsOldGenerationAcrossRotation) {
  auto registry = MustOpen();
  StreamIngestor ingestor(*registry, FastOptions());
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());

  SnapshotReader reader(*registry);
  EXPECT_EQ(reader.generation_number(), 0);
  const auto pinned = reader.generation();

  ASSERT_EQ(MustIngest(ingestor, WarmBatch(), "b0", 0).outcome, "published");
  // The rotation must not disturb the pinned generation.
  EXPECT_EQ(reader.generation_number(), 0);
  EXPECT_EQ(reader.generation(), pinned);
  ASSERT_NE(pinned->model, nullptr);
  (void)pinned->model->Score(0, 0, 1);  // still safely usable

  EXPECT_TRUE(reader.Repin());
  EXPECT_EQ(reader.generation_number(), 1);
  EXPECT_FALSE(reader.Repin());  // already newest
}

// Regression test for Repin during a CURRENT rotation window: a reader
// repinning while CURRENT is absent, torn, or pointing at a half-renamed
// generation must keep its pin (bounded retries, counted in
// kgc.snapshot.repin_retries), then pick up the rotation once CURRENT is
// intact again — including rotations published by another process.
TEST_F(SnapshotLifecycleTest, RepinRetriesAcrossCurrentRotationWindow) {
  auto registry = MustOpen();
  StreamIngestor ingestor(*registry, FastOptions());
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
  SnapshotReader reader(*registry);
  ASSERT_EQ(reader.generation_number(), 0);

  // A second registry on the same root stands in for another process
  // publishing generation 1 behind this registry's back.
  auto writer = MustOpen();
  StreamIngestor remote(*writer, FastOptions());
  ASSERT_EQ(MustIngest(remote, WarmBatch(), "b0", 0).outcome, "published");
  ASSERT_EQ(registry->current_generation(), 0);  // in-memory view is stale

  auto& retries =
      obs::Registry::Get().GetCounter(obs::kSnapshotRepinRetries);
  const uint64_t retries_before = retries.value();
  const std::string intact = *ReadFileToString(registry->CurrentPath());

  // Mid-rotation window: CURRENT is torn garbage. Repin must retry with
  // backoff, give up without moving the pin, and count the retries.
  ASSERT_TRUE(WriteStringToFile(registry->CurrentPath(), "{torn").ok());
  EXPECT_FALSE(reader.Repin());
  EXPECT_EQ(reader.generation_number(), 0);
  EXPECT_GE(retries.value(), retries_before + 4);

  // CURRENT missing entirely (the replace's unlink..rename gap): the
  // reader keeps the in-memory generation without burning retries.
  fs::remove(registry->CurrentPath());
  EXPECT_FALSE(reader.Repin());
  EXPECT_EQ(reader.generation_number(), 0);

  // Rotation completes: the very next Repin lands on generation 1.
  ASSERT_TRUE(WriteStringToFile(registry->CurrentPath(), intact).ok());
  EXPECT_TRUE(reader.Repin());
  EXPECT_EQ(reader.generation_number(), 1);
  ASSERT_NE(reader.generation()->model, nullptr);
  (void)reader.generation()->model->Score(0, 0, 1);

  // Race a repinning reader against a writer flipping CURRENT between
  // torn and intact: the pin must stay on a live, scoreable generation
  // through every interleaving.
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      (void)!WriteStringToFile(registry->CurrentPath(), "{torn").ok();
      (void)!WriteStringToFile(registry->CurrentPath(), intact).ok();
    }
    (void)!WriteStringToFile(registry->CurrentPath(), intact).ok();
  });
  for (int i = 0; i < 50; ++i) {
    (void)reader.Repin();
    const auto pinned = reader.generation();
    ASSERT_NE(pinned, nullptr);
    ASSERT_NE(pinned->model, nullptr);
    (void)pinned->model->Score(0, 0, 1);
  }
  stop.store(true);
  flipper.join();
  EXPECT_GE(reader.generation_number(), 1);
}

// Arms an I/O-error fault at each rotation failpoint in turn and checks
// that (a) the failing publish surfaces an error, (b) reopening recovers
// to the old generation, and (c) replaying the batch converges to the
// same bytes a clean run produces.
TEST_F(SnapshotLifecycleTest, IoFaultAtEveryPublishSiteRecovers) {
  // Reference run: clean publish of the same batch.
  const std::string clean_root = root_ + ".clean";
  fs::remove_all(clean_root);
  uint32_t clean_model_crc = 0;
  uint32_t clean_data_crc = 0;
  {
    auto opened = SnapshotRegistry::Open(clean_root);
    ASSERT_TRUE(opened.ok());
    StreamIngestor ingestor(**opened, FastOptions());
    ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
    ASSERT_EQ(MustIngest(ingestor, WarmBatch(), "b0", 0).outcome,
              "published");
    auto manifest = (*opened)->ReadManifest(1);
    ASSERT_TRUE(manifest.ok());
    clean_model_crc = manifest->model_crc32;
    clean_data_crc = manifest->data_crc32;
  }
  fs::remove_all(clean_root);

  const char* kSites[] = {"rotate:stage", "rotate:manifest", "rotate:rename",
                          "publish:current"};
  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    fs::remove_all(root_);
    {
      auto registry = MustOpen();
      StreamIngestor ingestor(*registry, FastOptions());
      ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
      FaultInjector::Get().ArmSite(site, FaultKind::kEnospc);
      auto failed = ingestor.IngestBatch(WarmBatch(), "b0", 0);
      EXPECT_FALSE(failed.ok());
      FaultInjector::Get().DisarmAllForTest();
    }
    // Reopen: recovery must land on the intact generation 0 ...
    auto recovered = MustOpen();
    ASSERT_EQ(recovered->current_generation(), 0);
    // ... and the replayed batch must produce the clean run's bytes.
    StreamIngestor replayer(*recovered, FastOptions());
    ASSERT_EQ(MustIngest(replayer, WarmBatch(), "b0", 0).outcome,
              "published");
    auto manifest = recovered->ReadManifest(1);
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->model_crc32, clean_model_crc);
    EXPECT_EQ(manifest->data_crc32, clean_data_crc);
  }
}

TEST_F(SnapshotLifecycleTest, RotationLogFaultIsDowngradedAfterCommit) {
  auto registry = MustOpen();
  StreamIngestor ingestor(*registry, FastOptions());
  ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
  // publish:log fires after the CURRENT flip (the commit point): losing
  // the advisory audit line must not fail the publish.
  FaultInjector::Get().ArmSite("publish:log", FaultKind::kEnospc);
  const IngestReport report = MustIngest(ingestor, WarmBatch(), "b0", 0);
  EXPECT_EQ(report.outcome, "published");
  EXPECT_EQ(registry->current_generation(), 1);
}

TEST_F(SnapshotLifecycleTest, IoFaultDuringRollbackStillLeavesOldLive) {
  const char* kSites[] = {"rollback:quarantine", "rollback:cleanup",
                          "rollback:record"};
  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    fs::remove_all(root_);
    {
      auto registry = MustOpen();
      StreamIngestor ingestor(*registry, FastOptions(/*epsilon=*/-2.0));
      ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
      FaultInjector::Get().ArmSite(site, FaultKind::kEnospc);
      EXPECT_FALSE(ingestor.IngestBatch(WarmBatch(), "b0", 0).ok());
      FaultInjector::Get().DisarmAllForTest();
      EXPECT_EQ(registry->current_generation(), 0);
    }
    auto recovered = MustOpen();
    EXPECT_EQ(recovered->current_generation(), 0);
    EXPECT_FALSE(fs::exists(recovered->StagingDir(1)));
  }
}

TEST_F(SnapshotLifecycleTest, TornCurrentPointerFallsBackToIntactChain) {
  {
    auto registry = MustOpen();
    StreamIngestor ingestor(*registry, FastOptions());
    ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
    ASSERT_EQ(MustIngest(ingestor, WarmBatch(), "b0", 0).outcome,
              "published");
  }
  {
    std::ofstream torn(root_ + "/CURRENT", std::ios::trunc);
    torn << "{\"schema\":\"kgc.snapshot_cur";  // torn mid-write
  }
  auto recovered = MustOpen();
  EXPECT_TRUE(recovered->recovered());
  EXPECT_EQ(recovered->current_generation(), 1);  // newest intact gen
  // Recovery rewrote CURRENT: a further reopen is clean.
  auto clean = MustOpen();
  EXPECT_FALSE(clean->recovered());
  EXPECT_EQ(clean->current_generation(), 1);
}

TEST_F(SnapshotLifecycleTest, CorruptNewestGenerationIsSweptAside) {
  {
    auto registry = MustOpen();
    StreamIngestor ingestor(*registry, FastOptions());
    ASSERT_TRUE(ingestor.Bootstrap(MakeBase()).ok());
    ASSERT_EQ(MustIngest(ingestor, WarmBatch(), "b0", 0).outcome,
              "published");
    // Damage gen 1's model payload (CRC footer now mismatches).
    std::ofstream damage(registry->GenerationDir(1) + "/model.kgcm",
                         std::ios::trunc);
    damage << "garbage";
  }
  auto recovered = MustOpen();
  EXPECT_TRUE(recovered->recovered());
  EXPECT_EQ(recovered->current_generation(), 0);
  EXPECT_GE(recovered->orphans_swept(), 1);
  EXPECT_FALSE(fs::exists(recovered->GenerationDir(1)));
  // The swept generation is preserved for post-mortems, not deleted.
  EXPECT_TRUE(fs::exists(recovered->QuarantineDir() + "/gen-000001"));
  // Replay re-publishes generation 1 under the same number.
  StreamIngestor replayer(*recovered, FastOptions());
  EXPECT_EQ(MustIngest(replayer, WarmBatch(), "b0", 0).generation, 1);
}

}  // namespace
}  // namespace kgc
