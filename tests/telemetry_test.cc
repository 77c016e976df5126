// Tests for the live telemetry pipeline: HDR duration histograms and their
// saturating sums, the minimal JSON reader, the background metrics
// exporter, resource accounting with graceful degradation, and the
// incremental trace drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/hdr_histogram.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/resource_stats.h"
#include "obs/trace.h"

namespace kgc {
namespace {

// --- HDR histogram ---------------------------------------------------------

TEST(HdrHistogramTest, BucketIndexRoundtrip) {
  // Every probe must land in a bucket whose [lower, upper) range contains
  // it, and consecutive buckets must tile the domain with no gaps.
  const std::vector<uint64_t> probes = {
      0,    1,    63,   64,        65,        127,        128,  1000,
      4095, 4096, 1u << 20,        (1u << 20) + 17,       1ull << 30,
      obs::HdrHistogram::kMaxTrackableMicros};
  for (const uint64_t micros : probes) {
    const size_t index = obs::HdrHistogram::BucketIndexForMicros(micros);
    ASSERT_LT(index, obs::HdrHistogram::num_buckets());
    EXPECT_LE(obs::HdrHistogram::BucketLowerMicros(index), micros)
        << "micros=" << micros;
    EXPECT_LT(micros, obs::HdrHistogram::BucketUpperMicros(index))
        << "micros=" << micros;
  }
  for (size_t i = 0; i + 1 < obs::HdrHistogram::num_buckets(); ++i) {
    EXPECT_EQ(obs::HdrHistogram::BucketUpperMicros(i),
              obs::HdrHistogram::BucketLowerMicros(i + 1))
        << "gap after bucket " << i;
  }
  // Values beyond the tracked range land in the overflow bucket.
  EXPECT_EQ(obs::HdrHistogram::BucketIndexForMicros(
                obs::HdrHistogram::kMaxTrackableMicros + 1),
            obs::HdrHistogram::num_buckets() - 1);
}

TEST(HdrHistogramTest, QuantileWithinOneBucketOfOracle) {
  // Deterministic multiplicative-congruential stream spanning ~5 orders of
  // magnitude, checked against an exact sorted-order oracle.
  obs::HdrHistogram hist;
  std::vector<uint64_t> values;
  uint64_t state = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t micros = (state >> 33) % 10000000;  // [0, 10s)
    values.push_back(micros);
    hist.ObserveMicros(micros);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const uint64_t oracle = values[std::min(rank, values.size()) - 1];
    const double estimate = hist.Quantile(q);
    // The estimate is the upper edge of the oracle's bucket: always >= the
    // true quantile, and never more than one bucket width above it.
    const size_t bucket = obs::HdrHistogram::BucketIndexForMicros(oracle);
    EXPECT_GE(estimate, static_cast<double>(oracle) * 1e-6) << "q=" << q;
    EXPECT_LE(estimate,
              static_cast<double>(obs::HdrHistogram::BucketUpperMicros(bucket)) *
                  1e-6)
        << "q=" << q;
  }
  EXPECT_EQ(hist.count(), values.size());
}

TEST(HdrHistogramTest, StateIsOrderIndependent) {
  // Same multiset of observations, serial vs 4-thread interleaved: every
  // bucket count, the count and the fixed-point sum must be bit-identical.
  std::vector<uint64_t> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(static_cast<uint64_t>(i) * 37 % 2000000);
  }
  obs::HdrHistogram serial;
  for (const uint64_t v : values) serial.ObserveMicros(v);

  obs::HdrHistogram threaded;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&threaded, &values, t] {
      for (size_t i = t; i < values.size(); i += 4) {
        threaded.ObserveMicros(values[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(serial.count(), threaded.count());
  EXPECT_EQ(serial.sum(), threaded.sum());
  for (size_t i = 0; i < obs::HdrHistogram::num_buckets(); ++i) {
    ASSERT_EQ(serial.bucket_count(i), threaded.bucket_count(i))
        << "bucket " << i;
  }
}

TEST(HdrHistogramTest, SumSaturatesInsteadOfWrapping) {
  obs::HdrHistogram hist;
  hist.Observe(1e300);
  const double pinned = hist.sum();
  EXPECT_GT(pinned, 0.0);
  hist.Observe(1e300);
  EXPECT_EQ(hist.sum(), pinned);  // pinned at the extreme, not wrapped
  EXPECT_GE(hist.sum_saturations(), 1u);
  EXPECT_EQ(hist.count(), 2u);
}

TEST(MicrosFromSecondsSaturatedTest, ClampsTheEdges) {
  EXPECT_EQ(obs::MicrosFromSecondsSaturated(0.0), 0);
  EXPECT_EQ(obs::MicrosFromSecondsSaturated(1.5), 1500000);
  EXPECT_EQ(obs::MicrosFromSecondsSaturated(-3.0), 0);
  EXPECT_EQ(obs::MicrosFromSecondsSaturated(
                std::numeric_limits<double>::quiet_NaN()),
            0);
  EXPECT_EQ(obs::MicrosFromSecondsSaturated(1e300),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(obs::MicrosFromSecondsSaturated(
                std::numeric_limits<double>::infinity()),
            std::numeric_limits<int64_t>::max());
}

// Regression: the fixed-bucket histogram's micro-unit sum used to wrap
// int64 on huge observations, reporting a negative sum.
TEST(HistogramTest, SumSaturationRegression) {
  obs::Histogram hist({1.0, 2.0});
  hist.Observe(1e300);
  hist.Observe(1e300);
  EXPECT_GT(hist.sum(), 0.0);
  EXPECT_GE(hist.sum_saturations(), 1u);
  EXPECT_EQ(hist.count(), 2u);
  hist.Observe(0.5);
  EXPECT_GT(hist.sum(), 0.0);  // still pinned high, not wrapped negative
}

// --- JSON reader -----------------------------------------------------------

TEST(JsonParseTest, ParsesTimeseriesShapedDocuments) {
  const std::string doc =
      R"({"schema":"kgc.timeseries.v1","seq":3,"final":true,)"
      R"("counters":{"a":{"total":7,"delta":2}},"list":[1,2.5,-3e2],)"
      R"("none":null,"flag":false})";
  obs::JsonValue value;
  ASSERT_TRUE(obs::JsonValue::Parse(doc, &value));
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.Find("schema")->AsString(), "kgc.timeseries.v1");
  EXPECT_EQ(value.Find("seq")->AsNumber(), 3.0);
  EXPECT_TRUE(value.Find("final")->AsBool());
  const obs::JsonValue* a = value.Find("counters")->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->Find("total")->AsNumber(), 7.0);
  const obs::JsonValue::Array& list = value.Find("list")->AsArray();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2].AsNumber(), -300.0);
  EXPECT_EQ(value.Find("none")->type(), obs::JsonValue::Type::kNull);
  EXPECT_EQ(value.Find("missing"), nullptr);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  obs::JsonValue value;
  EXPECT_FALSE(obs::JsonValue::Parse("", &value));
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\":1", &value));
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\" 1}", &value));
  EXPECT_FALSE(obs::JsonValue::Parse("[1,2] trailing", &value));
  EXPECT_FALSE(obs::JsonValue::Parse("\"unterminated", &value));
  EXPECT_FALSE(obs::JsonValue::Parse("nope", &value));
  // Depth bomb: past the recursion cap the parser must refuse, not crash.
  const std::string deep(100, '[');
  EXPECT_FALSE(obs::JsonValue::Parse(deep, &value));
}

// --- Metrics exporter ------------------------------------------------------

TEST(ExporterTest, WritesMonotoneTimeseriesAndExposition) {
  obs::Registry::Get().ResetAllForTest();
  const std::string ts_path = testing::TempDir() + "/telemetry_ts.jsonl";
  const std::string prom_path = testing::TempDir() + "/telemetry.prom";
  // An earlier run's files make the exporter truncate them on open, which
  // can take tens of milliseconds on some disks; start from none.
  std::remove(ts_path.c_str());
  std::remove(prom_path.c_str());

  obs::Counter& counter =
      obs::Registry::Get().GetCounter("test.exporter.events");
  obs::Registry::Get().GetDurationHistogram("test.exporter.seconds")
      .Observe(0.002);

  obs::ExporterOptions options;
  options.run_name = "telemetry_test";
  options.interval_ms = 10;
  options.timeseries_path = ts_path;
  options.exposition_path = prom_path;
  obs::StartExporter(options);
  ASSERT_TRUE(obs::ExporterRunning());
  for (int i = 0; i < 5; ++i) {
    counter.Add(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
  }
  // At least one periodic record before the stop adds the final one; wait
  // for it under a deadline rather than trusting a fixed sleep.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (obs::ExporterRecordsWritten() < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::StopGlobalExporter();
  EXPECT_FALSE(obs::ExporterRunning());
  EXPECT_GE(obs::ExporterRecordsWritten(), 2u);

  std::ifstream in(ts_path);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t records = 0;
  double prev_seq = -1.0;
  double prev_total = -1.0;
  double prev_steady = -1.0;
  bool saw_final = false;
  while (std::getline(in, line)) {
    obs::JsonValue record;
    ASSERT_TRUE(obs::JsonValue::Parse(line, &record)) << line;
    ++records;
    EXPECT_EQ(record.Find("schema")->AsString(), "kgc.timeseries.v1");
    EXPECT_EQ(record.Find("run")->AsString(), "telemetry_test");
    const double seq = record.Find("seq")->AsNumber();
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
    const double steady = record.Find("steady_ms")->AsNumber();
    EXPECT_GE(steady, prev_steady);
    prev_steady = steady;
    const obs::JsonValue* sample =
        record.Find("counters")->Find("test.exporter.events");
    ASSERT_NE(sample, nullptr);
    const double total = sample->Find("total")->AsNumber();
    EXPECT_GE(total, prev_total);  // cumulative counters are monotone
    prev_total = total;
    const obs::JsonValue* final_flag = record.Find("final");
    if (final_flag != nullptr && final_flag->AsBool()) saw_final = true;
    const obs::JsonValue* durations = record.Find("durations");
    ASSERT_NE(durations, nullptr);
    ASSERT_NE(durations->Find("test.exporter.seconds"), nullptr);
    ASSERT_NE(record.Find("resources"), nullptr);
  }
  EXPECT_EQ(records, obs::ExporterRecordsWritten());
  EXPECT_TRUE(saw_final);
  EXPECT_EQ(prev_total, 500.0);  // the final record carries the full count

  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream exposition;
  exposition << prom.rdbuf();
  const std::string text = exposition.str();
  EXPECT_NE(text.find("# TYPE test_exporter_events counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_exporter_events 500"), std::string::npos);
  EXPECT_NE(text.find("test_exporter_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  obs::Registry::Get().ResetAllForTest();
}

// --- Resource accounting ---------------------------------------------------

TEST(ResourceStatsTest, SamplesTheLiveProcess) {
  const obs::ResourceUsage usage = obs::SampleProcessResources();
  EXPECT_GE(usage.cpu_user_seconds, 0.0);
  EXPECT_GT(usage.max_rss_bytes, 0);
  if (usage.io_ok) {
    EXPECT_GE(usage.read_bytes, 0);
    EXPECT_GE(usage.write_bytes, 0);
  } else {
    EXPECT_EQ(usage.read_bytes, -1);
    EXPECT_EQ(usage.write_bytes, -1);
  }
}

TEST(ResourceStatsTest, MissingProcfsDegradesGracefully) {
  obs::SetProcfsRootForTest("/nonexistent/kgc_no_procfs");
  const obs::ResourceUsage usage = obs::SampleProcessResources();
  obs::SetProcfsRootForTest(nullptr);
  EXPECT_GT(usage.max_rss_bytes, 0);  // rusage is unaffected
  EXPECT_FALSE(usage.io_ok);
  EXPECT_EQ(usage.read_bytes, -1);
  EXPECT_EQ(usage.write_bytes, -1);
}

TEST(ResourceStatsTest, UsageRendersAsOneJsonObject) {
  // The run report's "process" block and each time-series record's
  // "resources" block are this string.
  obs::ResourceUsage usage;
  usage.cpu_user_seconds = 1.5;
  usage.cpu_sys_seconds = 0.25;
  usage.max_rss_bytes = 4096;
  usage.minor_faults = 7;
  usage.major_faults = 1;
  usage.vol_ctx_switches = 3;
  usage.invol_ctx_switches = 2;
  const std::string common =
      "{\"cpu_user_seconds\":1.5,\"cpu_sys_seconds\":0.25,"
      "\"max_rss_bytes\":4096,\"minor_faults\":7,\"major_faults\":1,"
      "\"vol_ctx_switches\":3,\"invol_ctx_switches\":2";
  EXPECT_EQ(obs::ResourceUsageJson(usage), common + "}");
  usage.io_ok = true;
  usage.read_bytes = 10;
  usage.write_bytes = 20;
  EXPECT_EQ(obs::ResourceUsageJson(usage),
            common + ",\"read_bytes\":10,\"write_bytes\":20}");
}

TEST(ResourceStatsTest, PhasesPartitionTheRun) {
  obs::ResetPhaseResourcesForTest();
  obs::BeginPhaseResources("alpha");
  // Burn a little CPU so the phase has something to account.
  std::atomic<double> sink{0.0};
  for (int i = 0; i < 100000; ++i) {
    sink.store(sink.load() + std::sqrt(static_cast<double>(i)));
  }
  obs::BeginPhaseResources("beta");  // opening a phase closes the previous
  // Collecting closes the open phase too.
  const std::vector<obs::PhaseResourceStats> phases =
      obs::CollectPhaseResources();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "alpha");
  EXPECT_EQ(phases[1].name, "beta");
  EXPECT_GE(phases[0].wall_seconds, 0.0);
  EXPECT_GE(phases[0].cpu_user_seconds, 0.0);
  EXPECT_GT(phases[0].max_rss_bytes, 0);
  obs::ResetPhaseResourcesForTest();
}

// --- Incremental trace drain -----------------------------------------------

TEST(TraceDrainTest, PartialTraceIsRepairableBeforeFlush) {
  obs::ResetTracingForTest();
  const std::string path = testing::TempDir() + "/telemetry_trace.json";
  obs::StartTracing(path);
  obs::SetTraceDrainThresholdForTest(1);  // drain after every span
  for (int i = 0; i < 3; ++i) {
    obs::TraceSpan span("drained");
  }
  // No FlushTrace yet — this models a SIGKILLed run. The on-disk prefix
  // must already hold the drained events and repair-parse by appending the
  // array terminator.
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    std::string partial = content.str();
    ASSERT_FALSE(partial.empty());
    EXPECT_EQ(partial.front(), '[');
    EXPECT_NE(partial.find("\"kgc_clock_sync\""), std::string::npos);
    EXPECT_NE(partial.find("\"drained\""), std::string::npos);
    obs::JsonValue repaired;
    ASSERT_TRUE(obs::JsonValue::Parse(partial + "]", &repaired));
    ASSERT_TRUE(repaired.is_array());
    EXPECT_GE(repaired.AsArray().size(), 4u);  // clock sync + 3 spans
  }
  ASSERT_TRUE(obs::FlushTrace());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  obs::JsonValue full;
  ASSERT_TRUE(obs::JsonValue::Parse(content.str(), &full));
  ASSERT_TRUE(full.is_array());
  obs::ResetTracingForTest();
}

}  // namespace
}  // namespace kgc
