#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace kgc::obs {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(edges_.size() + 1);
  for (size_t i = 0; i <= edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  size_t bucket = edges_.size();  // overflow unless an edge matches
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (value <= edges_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) {
    // Fixed-point micro-unit sum. Converting via llround(value * 1e6) is
    // undefined beyond int64 range and the plain fetch_add used to wrap —
    // both clamp now, and the clamp is counted.
    int64_t micros;
    if (value >= 0.0) {
      micros = MicrosFromSecondsSaturated(value);
    } else {
      micros = -MicrosFromSecondsSaturated(-value);
    }
    if (SaturatingFetchAdd(sum_micros_, micros)) {
      sum_saturations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Histogram::ResetForTest() {
  for (size_t i = 0; i <= edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
  sum_saturations_.store(0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  std::vector<double> edges;
  edges.reserve(static_cast<size_t>(std::max(count, 0)));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    edges.push_back(edge);
    edge *= factor;
  }
  return edges;
}

namespace {

// 100us .. ~26s in x4 steps: wide enough for both per-shard ranking slices
// and full training epochs on the scaled synthetic datasets.
std::vector<double> DefaultLatencyBuckets() {
  return ExponentialBuckets(1e-4, 4.0, 10);
}

}  // namespace

Registry::Registry() {
  // Pre-register the canonical schema (see header).
  for (const char* name :
       {kTrainerEpochs, kTrainerExamples, kTrainerNegatives,
        kTrainerCheckpointSaves, kTrainerResumes, kRankerSweeps,
        kRankerTriplesRanked, kRankerScoreEvals, kRankerQueryCacheHits,
        kRankerQueryCacheMisses, kTopKEntitiesScored, kTopKHeapPushes,
        kTopKQueriesBatched, kRedundancyPairsCompared,
        kRedundancyPairsFlagged, kRedundancyTriplesClassified,
        kAmieCandidates, kAmieRulesKept, kCacheModelHits, kCacheModelMisses,
        kCacheRankHits, kCacheRankMisses, kCacheQuarantined,
        kCacheRegenerated, kCacheStoreUnusable, kFaultsInjected,
        kDeadlineExpired, kIngestRejectedFiles, kIngestRejectedLines,
        kStoreProbeBatchHits, kStoreProbeBatchMisses,
        kSnapshotPublished, kSnapshotRollbacks, kSnapshotRecoveries,
        kSnapshotOrphansSwept, kSnapshotBatchesIngested,
        kSnapshotBatchesQuarantined, kSnapshotDeltaTriples,
        kSnapshotColdStarts, kSnapshotReaderSwaps, kSnapshotRepinRetries,
        kServeRequests, kServeRepliesOk, kServeShed, kServeDeadlineExceeded,
        kServeMalformed, kServeDegraded, kServeSlowClientDrops,
        kServeConnsAccepted, kServeConnsRejected, kServeDrained}) {
    counters_.emplace(name, std::make_unique<Counter>());
  }
  gauges_.emplace(kTrainerLastLoss, std::make_unique<Gauge>());
  gauges_.emplace(kSnapshotCurrentGeneration, std::make_unique<Gauge>());
  gauges_.emplace(kStoreBytesPerTriple, std::make_unique<Gauge>());
  gauges_.emplace(kStorePeakRssBytes, std::make_unique<Gauge>());
  gauges_.emplace(kServeQueueDepth, std::make_unique<Gauge>());
  // Batch occupancy is a small-integer distribution, not a duration: plain
  // power-of-two edges beat the latency-shaped defaults.
  histograms_.emplace(kServeBatchSize,
                      std::make_unique<Histogram>(std::vector<double>{
                          1, 2, 4, 8, 16, 32, 64, 128}));
  // Wall-clock durations use the log-linear HDR layout: one shape covers
  // microsecond shards and multi-second epochs at ~3% relative precision.
  for (const char* name : {kTrainerEpochSeconds, kRankerShardSeconds,
                           kSnapshotReaderSwapSeconds, kServeRequestSeconds,
                           kServeBatchSeconds}) {
    durations_.emplace(name, std::make_unique<HdrHistogram>());
  }
}

Registry& Registry::Get() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::vector<double> edges) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (edges.empty()) edges = DefaultLatencyBuckets();
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(edges)))
             .first;
  }
  return *it->second;
}

HdrHistogram& Registry::GetDurationHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = durations_.find(name);
  if (it == durations_.end()) {
    it = durations_.emplace(name, std::make_unique<HdrHistogram>()).first;
  }
  return *it->second;
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value(), gauge->is_set()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.edges = histogram->edges();
    sample.buckets.reserve(sample.edges.size() + 1);
    for (size_t i = 0; i <= sample.edges.size(); ++i) {
      sample.buckets.push_back(histogram->bucket_count(i));
    }
    sample.count = histogram->count();
    sample.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(sample));
  }
  snapshot.durations.reserve(durations_.size());
  for (const auto& [name, hdr] : durations_) {
    DurationSample sample;
    sample.name = name;
    sample.count = hdr->count();
    sample.sum = hdr->sum();
    sample.sum_saturations = hdr->sum_saturations();
    sample.p50 = hdr->Quantile(0.50);
    sample.p90 = hdr->Quantile(0.90);
    sample.p99 = hdr->Quantile(0.99);
    sample.p999 = hdr->Quantile(0.999);
    sample.min = hdr->MinEstimate();
    sample.max = hdr->MaxEstimate();
    snapshot.durations.push_back(std::move(sample));
  }
  return snapshot;
}

void Registry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->ResetForTest();
  for (const auto& [name, gauge] : gauges_) gauge->ResetForTest();
  for (const auto& [name, histogram] : histograms_) {
    histogram->ResetForTest();
  }
  for (const auto& [name, hdr] : durations_) hdr->ResetForTest();
}

}  // namespace kgc::obs
