// Continuous metrics export: a background thread that snapshots the
// metrics registry on a fixed interval and publishes two artifacts:
//
//   1. A time-series file (`KGC_TIMESERIES`, default kgc_timeseries.jsonl):
//      one `kgc.timeseries.v1` JSON line per tick carrying the steady-clock
//      offset, a wall timestamp, per-counter cumulative totals *and*
//      per-tick deltas, set gauges, duration-histogram quantiles and a
//      resource sample. Records survive SIGKILL up to the last completed
//      line because each line is flushed as it is written.
//   2. A Prometheus-style text exposition file (`KGC_EXPOSITION`, default
//      kgc_metrics.prom), rewritten atomically (write temp + rename) each
//      tick so a scraper or `watch cat` never sees a torn file.
//
// The exporter is enabled by `KGC_METRICS_INTERVAL_MS=<n>` (a whole n > 0,
// parsed strictly as obs/env.h describes; 0 or unset leaves it off). One
// exporter runs per process; Stop emits a final record so short runs
// always produce at least one tick. On the crash path (fatal signal) use
// Abort: it stops the thread without joining, because joining from a
// signal handler can deadlock against the thread being killed.

#ifndef KGC_OBS_EXPORTER_H_
#define KGC_OBS_EXPORTER_H_

#include <cstdint>
#include <string>

namespace kgc::obs {

struct ExporterOptions {
  std::string run_name;
  int interval_ms = 100;
  std::string timeseries_path = "kgc_timeseries.jsonl";
  std::string exposition_path = "kgc_metrics.prom";
};

/// Starts the process-wide exporter when KGC_METRICS_INTERVAL_MS > 0
/// (paths from KGC_TIMESERIES / KGC_EXPOSITION when set). Returns true
/// when an exporter was started. No-op when one is already running.
bool StartExporterFromEnv(const std::string& run_name);

/// Starts the exporter with explicit options (interval_ms must be > 0).
/// No-op when one is already running.
void StartExporter(const ExporterOptions& options);

bool ExporterRunning();

/// Emits one final record, stops the thread and joins it. Safe to call
/// when no exporter is running.
void StopGlobalExporter();

/// Crash-path stop: raises the stop flag but does NOT join or write a
/// final record (the partially-written time-series file stays valid
/// because records are line-buffered).
void AbortGlobalExporter();

/// Number of time-series records written by the current/last exporter.
uint64_t ExporterRecordsWritten();

}  // namespace kgc::obs

#endif  // KGC_OBS_EXPORTER_H_
