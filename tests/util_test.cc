// Unit tests for src/util.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "util/crc32.h"
#include "util/deadline.h"
#include "util/file_util.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace kgc {
namespace {

// --- Status -----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::NotFound("missing.txt");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing.txt");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing.txt");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::InvalidArgument("bad"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("hello"));
  const std::string value = std::move(result).value();
  EXPECT_EQ(value, "hello");
}

// --- Rng --------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(7);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.Uniform(10)]++;
  for (int bucket : counts) {
    EXPECT_NEAR(bucket, n / 10, n / 100);  // within 10% relative
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int successes = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) successes += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(successes) / n, 0.3, 0.01);
}

TEST(RngTest, NormalHasRightMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::vector<size_t> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (size_t idx : sample) EXPECT_LT(idx, 50u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork(0);
  // Child should not replay the parent's stream.
  Rng parent2(23);
  EXPECT_NE(child.Next(), parent2.Next());
}

TEST(RngTest, StateSnapshotRestoresBitExactly) {
  Rng rng(99);
  for (int i = 0; i < 17; ++i) (void)rng.Next();
  (void)rng.Normal();  // prime the Box-Muller cache mid-pair

  const Rng::State snapshot = rng.state();
  std::vector<uint64_t> expected_raw;
  std::vector<double> expected_normals;
  for (int i = 0; i < 8; ++i) expected_raw.push_back(rng.Next());
  for (int i = 0; i < 8; ++i) expected_normals.push_back(rng.Normal());

  Rng restored(1);  // deliberately different seed: state must fully win
  restored.set_state(snapshot);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.Next(), expected_raw[i]);
  for (int i = 0; i < 8; ++i) {
    // Bit-exact, including the cached second normal of the pair.
    EXPECT_EQ(restored.Normal(), expected_normals[i]);
  }
}

TEST(RngTest, ForkStreamsSurviveCheckpointResumeIndependently) {
  // Checkpoint-resume scenario: an experiment seeds one root Rng, forks a
  // stream per component, snapshots mid-run, and resumes. Restoring one
  // fork's state must replay exactly that stream without perturbing (or
  // depending on) its siblings.
  Rng root(7);
  Rng negatives = root.Fork(0);
  Rng shuffles = root.Fork(1);
  for (int i = 0; i < 5; ++i) {
    (void)negatives.Next();
    (void)shuffles.Next();
  }

  const Rng::State neg_ckpt = negatives.state();
  const Rng::State shuf_ckpt = shuffles.state();
  std::vector<uint64_t> neg_tail, shuf_tail;
  for (int i = 0; i < 6; ++i) neg_tail.push_back(negatives.Next());
  for (int i = 0; i < 6; ++i) shuf_tail.push_back(shuffles.Next());

  // Resume only the negatives stream and drive it hard: the shuffles
  // stream restored later must still replay its own tail exactly.
  Rng resumed_neg(0);
  resumed_neg.set_state(neg_ckpt);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(resumed_neg.Next(), neg_tail[i]);
  for (int i = 0; i < 100; ++i) (void)resumed_neg.Next();

  Rng resumed_shuf(0);
  resumed_shuf.set_state(shuf_ckpt);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(resumed_shuf.Next(), shuf_tail[i]);

  // And the two forked streams never collide on their next draws.
  EXPECT_NE(resumed_neg.Next(), resumed_shuf.Next());
}

// --- string_util --------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  const auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.703), "70.3%");
}

// --- Stopwatch ----------------------------------------------------------

TEST(StopwatchTest, RunsAtConstructionAndAccumulates) {
  Stopwatch watch;
  EXPECT_TRUE(watch.running());
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);

  watch.Stop();
  EXPECT_FALSE(watch.running());
  const double frozen = watch.ElapsedSeconds();
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), frozen);  // frozen while stopped
  watch.Stop();  // idempotent
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), frozen);

  watch.Start();
  EXPECT_TRUE(watch.running());
  EXPECT_GE(watch.ElapsedSeconds(), frozen);  // resumes from accumulated

  watch.Reset();
  EXPECT_TRUE(watch.running());
  EXPECT_LT(watch.ElapsedSeconds(), frozen + 1.0);
}

TEST(StopwatchTest, MillisTracksSeconds) {
  Stopwatch watch;
  watch.Stop();
  EXPECT_DOUBLE_EQ(watch.ElapsedMillis(), watch.ElapsedSeconds() * 1e3);
}

// --- AsciiTable ---------------------------------------------------------

TEST(AsciiTableTest, RendersAlignedCells) {
  AsciiTable table("Title");
  table.SetHeader({"a", "bbbb"});
  table.AddRow({"xx", "y"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(AsciiTableTest, HandlesShortRows) {
  AsciiTable table;
  table.SetHeader({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_NE(table.ToString().find("| 1 |   |   |"), std::string::npos);
}

// --- serialize ----------------------------------------------------------

TEST(SerializeTest, RoundTripPrimitives) {
  BinaryWriter writer;
  writer.WriteU32(7);
  writer.WriteI64(-9);
  writer.WriteDouble(2.5);
  writer.WriteU64(0x0123456789abcdefULL);
  const std::vector<float> floats{3.0f, -1.5f};
  writer.WriteFloatVector(floats);

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(*reader.ReadU32(), 7u);
  EXPECT_EQ(*reader.ReadI64(), -9);
  EXPECT_EQ(*reader.ReadDouble(), 2.5);
  EXPECT_EQ(*reader.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*reader.ReadFloatVector(), floats);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, TruncatedBufferIsError) {
  BinaryWriter writer;
  writer.WriteU32(1);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.ReadU32().ok());
  EXPECT_FALSE(reader.ReadU64().ok());
}

TEST(SerializeTest, OversizedVectorLengthIsError) {
  BinaryWriter writer;
  writer.WriteU64(1'000'000'000ULL);  // vector length with no payload
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(reader.ReadFloatVector().ok());
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kgc_serialize_test.bin")
          .string();
  BinaryWriter writer;
  writer.WriteU64(0x9e3779b97f4a7c15ULL);
  ASSERT_TRUE(writer.Flush(path).ok());
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->ReadU64(), 0x9e3779b97f4a7c15ULL);
  EXPECT_TRUE(reader->AtEnd());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto reader = BinaryReader::FromFile("/nonexistent/kgc.bin");
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, BitFlipFailsChecksum) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kgc_crc_flip.bin").string();
  BinaryWriter writer;
  const std::vector<float> floats{1.0f, 2.0f, 3.0f};
  writer.WriteFloatVector(floats);
  ASSERT_TRUE(writer.Flush(path).ok());

  // Flip one bit in the payload, leaving the stored CRC as-is.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 12, SEEK_SET);
  int byte = std::fgetc(file);
  std::fseek(file, 12, SEEK_SET);
  std::fputc(byte ^ 0x10, file);
  std::fclose(file);

  auto reader = BinaryReader::FromFile(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SerializeTest, FileWithoutFooterIsRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kgc_crc_legacy.bin")
          .string();
  // Plain files are not valid binary artifacts: the footer magic is
  // absent, so the reader refuses rather than misparse.
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("raw bytes, no KCRC footer", file);
  std::fclose(file);
  auto reader = BinaryReader::FromFile(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// --- crc32 --------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The canonical CRC-32 check value (ITU-T V.42 / zlib).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "incremental checksumming must compose";
  uint32_t crc = 0;
  crc = Crc32Update(crc, data.data(), 10);
  crc = Crc32Update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, Crc32(data.data(), data.size()));
}

// --- file_util ----------------------------------------------------------

TEST(FileUtilTest, WriteReadLines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kgc_file_test.txt").string();
  ASSERT_TRUE(WriteStringToFile(path, "a\nb\nc\n").ok());
  EXPECT_TRUE(FileExists(path));
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 3u);
  EXPECT_EQ((*lines)[1], "b");
  std::remove(path.c_str());
  EXPECT_FALSE(FileExists(path));
}

// --- Deadline -----------------------------------------------------------

TEST(DeadlineTest, DisabledByDefaultThenExpiresOnBudget) {
  Deadline& deadline = Deadline::Global();
  deadline.SetPhaseBudget(0);
  EXPECT_FALSE(deadline.enabled());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_FALSE(PhaseCheck("idle"));
  EXPECT_EQ(deadline.last_heartbeat(), "idle");

  deadline.SetPhaseBudget(0.005);
  deadline.BeginPhase("busy");
  EXPECT_EQ(deadline.last_heartbeat(), "busy");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_TRUE(PhaseCheck("busy_check"));

  // BeginPhase restarts the clock: each phase gets the full budget.
  deadline.BeginPhase("fresh");
  EXPECT_FALSE(deadline.Expired());
  deadline.SetPhaseBudget(0);
}

int g_deadline_expiries = 0;
std::string g_deadline_phase;
void RecordExpiry(const char* phase) {
  ++g_deadline_expiries;
  g_deadline_phase = phase;
}

TEST(DeadlineTest, TestHandlerInterceptsExpiryInsteadOfExiting) {
  Deadline& deadline = Deadline::Global();
  SetDeadlineHandlerForTest(RecordExpiry);
  g_deadline_expiries = 0;
  deadline.SetPhaseBudget(0.001);
  deadline.BeginPhase("slow");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  PhaseBoundary("slow_step");  // would std::exit(124) without the handler
  EXPECT_EQ(g_deadline_expiries, 1);
  EXPECT_EQ(g_deadline_phase, "slow_step");
  deadline.SetPhaseBudget(0);
  SetDeadlineHandlerForTest(nullptr);
}

TEST(DeadlineTest, ChecksAreNoOpsInsideParallelRegions) {
  Deadline& deadline = Deadline::Global();
  deadline.SetPhaseBudget(0.001);
  deadline.BeginPhase("outer");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(deadline.Expired());
  // A worker must never observe the expiry: a deadline cannot tear a
  // parallel region, only the boundary after the join may exit.
  ParallelFor(8, 4, [&](size_t, size_t, int) {
    EXPECT_FALSE(PhaseCheck("inside_worker"));
  });
  EXPECT_EQ(deadline.last_heartbeat(), "outer");  // no worker heartbeat
  deadline.SetPhaseBudget(0);
}

}  // namespace
}  // namespace kgc
