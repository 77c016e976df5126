// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms, cheap enough to update from the scoring loop.
//
// Layering: this module depends only on the C++ standard library, so even
// the lowest layers (util/file_util, util/fault_injector, util/parallel)
// can record telemetry without a dependency cycle.
//
// Hot-path pattern — resolve the handle once, update it lock-free forever:
//
//   static obs::Counter& ranked =
//       obs::Registry::Get().GetCounter(obs::kRankerTriplesRanked);
//   ...
//   ranked.Add(end - begin);   // one relaxed atomic add
//
// Determinism contract: counter updates are integer additions, which
// commute, so as long as the instrumented work itself is thread-count
// independent (the execution engine's "same bytes out" contract), every
// counter's final value is bit-identical across KGC_THREADS settings.
// Histograms of wall-clock durations are timing-domain and excluded from
// that contract (their counts can legitimately vary with the shard plan).
//
// Registration is mutex-guarded and idempotent; returned references stay
// valid for the process lifetime (ResetAllForTest zeroes values in place,
// it never invalidates handles).

#ifndef KGC_OBS_METRICS_H_
#define KGC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hdr_histogram.h"

namespace kgc::obs {

/// Monotonically increasing event count. Lock-free; relaxed ordering is
/// sufficient because readers only ever snapshot after the instrumented
/// work has been joined.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. final training loss). Tracks whether it was
/// ever set so reports can distinguish "0.0" from "never touched".
class Gauge {
 public:
  void Set(double value) {
    value_.store(value, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool is_set() const { return set_.load(std::memory_order_relaxed); }
  void ResetForTest() {
    value_.store(0.0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Fixed-bucket histogram: bucket i counts observations <= edges[i] (first
/// matching edge); one extra overflow bucket counts the rest. The running
/// sum is accumulated in fixed-point micro-units so that, like the bucket
/// counts, it is an order-independent integer sum.
class Histogram {
 public:
  /// `edges` must be strictly ascending; an empty list yields a histogram
  /// with only the overflow bucket (count/sum still work).
  explicit Histogram(std::vector<double> edges);

  void Observe(double value);

  const std::vector<double>& edges() const { return edges_; }
  /// Valid indexes: [0, edges().size()]; the last is the overflow bucket.
  uint64_t bucket_count(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of observations, to fixed-point (1e-6) resolution. The fixed-point
  /// accumulator saturates at the int64 extremes instead of wrapping;
  /// sum_saturations() counts how many observations were clamped.
  double sum() const {
    return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) *
           1e-6;
  }
  uint64_t sum_saturations() const {
    return sum_saturations_.load(std::memory_order_relaxed);
  }
  void ResetForTest();

 private:
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_micros_{0};
  std::atomic<uint64_t> sum_saturations_{0};
};

/// `count` ascending bucket edges starting at `start`, each `factor` times
/// the previous (the usual latency-histogram shape).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
  bool is_set = false;
};
struct HistogramSample {
  std::string name;
  std::vector<double> edges;
  std::vector<uint64_t> buckets;  ///< edges.size() + 1 entries (overflow last)
  uint64_t count = 0;
  double sum = 0.0;
};
/// Quantiles extracted exactly from an HdrHistogram's buckets (seconds).
struct DurationSample {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  uint64_t sum_saturations = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<DurationSample> durations;
};

/// Canonical metric names. The registry pre-registers all of them so every
/// run report carries the full schema — zeros included — which keeps
/// BENCH_*.json trajectory diffs stable across runs that skip a subsystem.
inline constexpr char kTrainerEpochs[] = "kgc.trainer.epochs";
inline constexpr char kTrainerExamples[] = "kgc.trainer.examples";
inline constexpr char kTrainerNegatives[] = "kgc.trainer.negatives_sampled";
inline constexpr char kTrainerCheckpointSaves[] =
    "kgc.trainer.checkpoint_saves";
inline constexpr char kTrainerResumes[] = "kgc.trainer.checkpoint_resumes";
inline constexpr char kTrainerLastLoss[] = "kgc.trainer.last_loss";
inline constexpr char kTrainerEpochSeconds[] = "kgc.trainer.epoch_seconds";
inline constexpr char kRankerSweeps[] = "kgc.ranker.sweeps";
inline constexpr char kRankerTriplesRanked[] = "kgc.ranker.triples_ranked";
inline constexpr char kRankerScoreEvals[] = "kgc.ranker.score_evals";
inline constexpr char kRankerExactRescores[] =
    "kgc.ranker.exact_rescores";
inline constexpr char kRankerQueryCacheHits[] = "kgc.ranker.query_cache_hits";
inline constexpr char kRankerQueryCacheMisses[] =
    "kgc.ranker.query_cache_misses";
inline constexpr char kRankerShardSeconds[] = "kgc.ranker.shard_seconds";
// Top-K retrieval engine (eval/topk): work done by the blocked sweep + heap
// selection (see EXPERIMENTS.md).
inline constexpr char kTopKEntitiesScored[] = "kgc.topk.entities_scored";
inline constexpr char kTopKHeapPushes[] = "kgc.topk.heap_pushes";
inline constexpr char kTopKQueriesBatched[] = "kgc.topk.queries_batched";
inline constexpr char kRedundancyPairsCompared[] =
    "kgc.redundancy.pairs_compared";
inline constexpr char kRedundancyPairsFlagged[] =
    "kgc.redundancy.pairs_flagged";
inline constexpr char kRedundancyTriplesClassified[] =
    "kgc.redundancy.triples_classified";
inline constexpr char kAmieCandidates[] = "kgc.amie.candidates";
inline constexpr char kAmieRulesKept[] = "kgc.amie.rules_kept";
inline constexpr char kAmiePathPairs[] = "kgc.amie.path_pairs";
inline constexpr char kCacheModelHits[] = "kgc.cache.model_hits";
inline constexpr char kCacheModelMisses[] = "kgc.cache.model_misses";
inline constexpr char kCacheRankHits[] = "kgc.cache.rank_hits";
inline constexpr char kCacheRankMisses[] = "kgc.cache.rank_misses";
inline constexpr char kCacheQuarantined[] = "kgc.cache.quarantined";
inline constexpr char kCacheRegenerated[] = "kgc.cache.regenerated";
inline constexpr char kCacheStoreUnusable[] = "kgc.cache.store_unusable";
inline constexpr char kFaultsInjected[] = "kgc.faults.injected";
inline constexpr char kDeadlineExpired[] = "kgc.deadline.expired";
inline constexpr char kIngestRejectedFiles[] = "kgc.ingest.rejected_files";
inline constexpr char kIngestRejectedLines[] = "kgc.ingest.rejected_lines";
// Storage substrate (kg/triple_store): index footprint.
inline constexpr char kStoreBytesPerTriple[] = "kgc.store.bytes_per_triple";
inline constexpr char kStorePeakRssBytes[] = "kgc.store.peak_rss_bytes";
// Snapshot lifecycle (src/snapshot): generation rotation and live readers.
inline constexpr char kSnapshotPublished[] =
    "kgc.snapshot.generations_published";
inline constexpr char kSnapshotRollbacks[] = "kgc.snapshot.rollbacks";
inline constexpr char kSnapshotRecoveries[] = "kgc.snapshot.recoveries";
inline constexpr char kSnapshotOrphansSwept[] = "kgc.snapshot.orphans_swept";
inline constexpr char kSnapshotBatchesIngested[] =
    "kgc.snapshot.batches_ingested";
inline constexpr char kSnapshotBatchesQuarantined[] =
    "kgc.snapshot.batches_quarantined";
inline constexpr char kSnapshotDeltaTriples[] = "kgc.snapshot.delta_triples";
inline constexpr char kSnapshotColdStarts[] = "kgc.snapshot.cold_starts";
inline constexpr char kSnapshotReaderSwaps[] = "kgc.snapshot.reader_swaps";
inline constexpr char kSnapshotCurrentGeneration[] =
    "kgc.snapshot.current_generation";
inline constexpr char kSnapshotReaderSwapSeconds[] =
    "kgc.snapshot.reader_swap_seconds";
/// Transient CURRENT-read/load failures absorbed by SnapshotReader::Repin's
/// bounded-backoff retry loop (a racing rotation, mid-replace pointer).
inline constexpr char kSnapshotRepinRetries[] = "kgc.snapshot.repin_retries";
// Online serving (src/serve): admission control and deadlines of the
// kgc_serve request path (see EXPERIMENTS.md for per-metric docs).
inline constexpr char kServeRequests[] = "kgc.serve.requests";
inline constexpr char kServeRepliesOk[] = "kgc.serve.replies_ok";
inline constexpr char kServeShed[] = "kgc.serve.shed";
inline constexpr char kServeDeadlineExceeded[] =
    "kgc.serve.deadline_exceeded";
inline constexpr char kServeMalformed[] = "kgc.serve.malformed";
inline constexpr char kServeSlowClientDrops[] =
    "kgc.serve.slow_client_drops";
inline constexpr char kServeConnsAccepted[] =
    "kgc.serve.connections_accepted";
inline constexpr char kServeConnsRejected[] =
    "kgc.serve.connections_rejected";
inline constexpr char kServeDrained[] = "kgc.serve.drained_requests";
inline constexpr char kServeQueueDepth[] = "kgc.serve.queue_depth";
inline constexpr char kServeBatchSize[] = "kgc.serve.batch_size";
inline constexpr char kServeRequestSeconds[] = "kgc.serve.request_seconds";
inline constexpr char kServeBatchSeconds[] = "kgc.serve.batch_seconds";

class Registry {
 public:
  /// The process-wide registry (created on first use, never destroyed).
  static Registry& Get();

  /// Finds or creates the named metric. The reference stays valid forever.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// For a new histogram `edges` defines the buckets (empty = the default
  /// latency buckets); for an existing one the original edges win.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> edges = {});
  /// HDR duration histogram (obs/hdr_histogram.h) — the right choice for
  /// wall-clock durations, where one fixed edge list cannot cover both a
  /// 50us shard and a 30s epoch. All canonical *_seconds metrics live here.
  HdrHistogram& GetDurationHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric in place. Handles stay valid.
  void ResetAllForTest();

 private:
  Registry();

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<HdrHistogram>> durations_;
};

}  // namespace kgc::obs

#endif  // KGC_OBS_METRICS_H_
