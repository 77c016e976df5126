// Scoped trace spans with parent/child nesting and thread ids.
//
// A `TraceSpan` is an RAII marker around a unit of work (a training epoch, a
// ranking sweep, one ParallelFor shard). Spans do two independent things:
//
//   1. Trace export. When tracing is enabled — `KGC_TRACE=<path>` in the
//      environment, or StartTracing(path) — completed spans are buffered
//      and drained incrementally to the trace file as Chrome `trace_event`
//      JSON (load it in chrome://tracing or https://ui.perfetto.dev). The
//      file uses the JSON *array* format and every drained event is a
//      complete line, so a run killed mid-flight (SIGKILL, OOM) leaves a
//      usable partial trace: append "]" and it parses. The buffer drains
//      whenever it reaches `KGC_TRACE_DRAIN` events (default 4096) and is
//      finalized at process exit (or FlushTrace()).
//   2. Span rollups. When rollups are enabled (implied by tracing or by
//      `KGC_METRICS`), per-name aggregates (count, total/min/max seconds)
//      are maintained for the run report (obs/report.h). A span given a
//      rollup label is also aggregated under "<name>/<label>".
//
// When neither is enabled a span costs one relaxed atomic load — cheap
// enough to leave in hot paths permanently. Spans are timing-domain: their
// counts and durations are *not* covered by the counter bit-identity
// contract (a different shard plan legitimately produces different spans).
//
// Nesting is tracked per thread: a span opened while another span on the
// same thread is live records that span as its parent. Thread ids are
// small dense integers (ThreadId()), shared with the log prefix so log
// lines and trace rows correlate.

#ifndef KGC_OBS_TRACE_H_
#define KGC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kgc::obs {

/// Small dense id of the calling thread (the first thread to ask gets 1).
int ThreadId();

/// True once tracing is active (KGC_TRACE or StartTracing).
bool TracingEnabled();

/// Starts buffering trace events for export to `path` (overrides any
/// KGC_TRACE destination) and registers an at-exit flush.
void StartTracing(const std::string& path);

/// Turns on rollup collection without trace export.
void EnableSpanRollups();

/// Drains any buffered events and finalizes the trace file (writes the
/// closing "]"). Called automatically at exit; calling it earlier
/// finalizes the file then (once per StartTracing). Returns false on I/O
/// failure.
bool FlushTrace();

/// Overrides the drain threshold (events buffered before a write-out).
/// 1 makes every span durable immediately — what the chaos harness uses.
void SetTraceDrainThresholdForTest(size_t threshold);

struct SpanRollup {
  std::string name;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Per-name aggregates of every completed span, sorted by name. Empty
/// unless rollups are collected (tracing, KGC_METRICS, or
/// EnableSpanRollups).
std::vector<SpanRollup> CollectSpanRollups();

/// Adds `seconds` to the "<name>/<label>" rollup as one more count, for
/// work no one span covers: one model's share of a sharded sweep, summed
/// over the shards that timed it. No-op unless rollups are collected.
void AddSpanRollup(const char* name, const std::string& label,
                   double seconds);

/// One buffered (not yet drained) trace event, exposed for tests.
struct RecordedSpan {
  std::string name;
  int tid = 0;
  int depth = 0;
  uint64_t id = 0;
  uint64_t parent_id = 0;  ///< 0 = root span of its thread
  double start_us = 0.0;
  double duration_us = 0.0;
};
std::vector<RecordedSpan> SnapshotSpansForTest();

/// Clears buffered events, rollups and enabled state (env vars are not
/// re-read). Open spans on other threads must be quiesced first.
void ResetTracingForTest();

class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an argument shown in the trace viewer. No-ops (and does not
  /// allocate) when the span is inactive.
  void AddArgInt(const char* key, long long value);
  void AddArgStr(const char* key, const char* value);

  /// Also rolls the span up under "<name>/<label>", next to the plain
  /// "<name>" rollup (e.g. "train_model/ConvE@FB15k-syn"), so a run report
  /// splits the span by what it worked on. No-op when inactive.
  void SetRollupLabel(const std::string& label);

 private:
  const char* name_ = nullptr;
  std::string args_;
  std::string labeled_name_;  // "<name>/<label>", or empty
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  int depth_ = 0;
  int64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace kgc::obs

#endif  // KGC_OBS_TRACE_H_
