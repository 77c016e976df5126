#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/clock.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource_stats.h"
#include "obs/trace.h"

namespace kgc::obs {
namespace {

std::mutex g_exit_cause_mutex;
std::string g_exit_cause;  // guarded by g_exit_cause_mutex

}  // namespace

void SetRunExitCause(const std::string& cause) {
  std::lock_guard<std::mutex> lock(g_exit_cause_mutex);
  g_exit_cause = cause;
}

std::string RunExitCause() {
  std::lock_guard<std::mutex> lock(g_exit_cause_mutex);
  return g_exit_cause;
}

std::string RenderRunReport(const RunInfo& info) {
  const MetricsSnapshot snapshot = Registry::Get().Snapshot();
  const std::vector<SpanRollup> rollups = CollectSpanRollups();

  std::ostringstream out;
  out << "{\"schema\":\"kgc.run_report.v1\"";
  out << ",\"name\":\"" << JsonEscape(info.name) << "\"";
  out << ",\"timestamp\":\""
      << JsonEscape(info.timestamp.empty() ? Iso8601UtcNow()
                                           : info.timestamp)
      << "\"";
  out << ",\"threads\":" << info.threads;
  out << ",\"wall_seconds\":" << JsonDouble(info.wall_seconds);
  // Offset from the shared steady epoch (obs/clock.h), so report lines
  // correlate with trace spans and time-series records from the same run.
  out << ",\"steady_ms\":" << JsonDouble(SteadyNowMs());
  out << ",\"exit_code\":" << info.exit_code;
  std::string cause = info.exit_cause;
  if (cause.empty()) cause = RunExitCause();
  if (cause.empty()) {
    cause = info.exit_code == 0
                ? "ok"
                : "exit:" + std::to_string(info.exit_code);
  }
  out << ",\"exit_cause\":\"" << JsonEscape(cause) << "\"";

  out << ",\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& c = snapshot.counters[i];
    out << (i > 0 ? "," : "") << "\"" << JsonEscape(c.name)
        << "\":" << c.value;
  }
  out << "}";

  out << ",\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& g = snapshot.gauges[i];
    out << (i > 0 ? "," : "") << "\"" << JsonEscape(g.name) << "\":";
    if (g.is_set) {
      out << JsonDouble(g.value);
    } else {
      out << "null";
    }
  }
  out << "}";

  out << ",\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    out << (i > 0 ? "," : "") << "\"" << JsonEscape(h.name)
        << "\":{\"count\":" << h.count << ",\"sum\":" << JsonDouble(h.sum)
        << ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      // The final bucket has no upper edge (overflow): le = null.
      out << (b > 0 ? "," : "") << "{\"le\":";
      if (b < h.edges.size()) {
        out << JsonDouble(h.edges[b]);
      } else {
        out << "null";
      }
      out << ",\"count\":" << h.buckets[b] << "}";
    }
    out << "]}";
  }
  out << "}";

  out << ",\"durations\":{";
  for (size_t i = 0; i < snapshot.durations.size(); ++i) {
    const DurationSample& d = snapshot.durations[i];
    out << (i > 0 ? "," : "") << "\"" << JsonEscape(d.name)
        << "\":{\"count\":" << d.count << ",\"sum\":" << JsonDouble(d.sum)
        << ",\"sum_saturations\":" << d.sum_saturations
        << ",\"p50\":" << JsonDouble(d.p50) << ",\"p90\":" << JsonDouble(d.p90)
        << ",\"p99\":" << JsonDouble(d.p99)
        << ",\"p999\":" << JsonDouble(d.p999)
        << ",\"min\":" << JsonDouble(d.min) << ",\"max\":" << JsonDouble(d.max)
        << "}";
  }
  out << "}";

  out << ",\"spans\":{";
  for (size_t i = 0; i < rollups.size(); ++i) {
    const SpanRollup& r = rollups[i];
    out << (i > 0 ? "," : "") << "\"" << JsonEscape(r.name)
        << "\":{\"count\":" << r.count
        << ",\"total_seconds\":" << JsonDouble(r.total_seconds)
        << ",\"min_seconds\":" << JsonDouble(r.min_seconds)
        << ",\"max_seconds\":" << JsonDouble(r.max_seconds) << "}";
  }
  out << "}";

  // Process-cumulative resource usage plus per-deadline-phase deltas.
  out << ",\"resources\":{\"process\":"
      << ResourceUsageJson(SampleProcessResources()) << ",\"phases\":[";
  const std::vector<PhaseResourceStats> phases = CollectPhaseResources();
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResourceStats& p = phases[i];
    out << (i > 0 ? "," : "") << "{\"name\":\"" << JsonEscape(p.name)
        << "\",\"wall_seconds\":" << JsonDouble(p.wall_seconds)
        << ",\"cpu_user_seconds\":" << JsonDouble(p.cpu_user_seconds)
        << ",\"cpu_sys_seconds\":" << JsonDouble(p.cpu_sys_seconds)
        << ",\"max_rss_bytes\":" << p.max_rss_bytes
        << ",\"minor_faults\":" << p.minor_faults
        << ",\"major_faults\":" << p.major_faults
        << ",\"vol_ctx_switches\":" << p.vol_ctx_switches
        << ",\"invol_ctx_switches\":" << p.invol_ctx_switches;
    if (p.read_bytes >= 0) {
      out << ",\"read_bytes\":" << p.read_bytes
          << ",\"write_bytes\":" << p.write_bytes;
    }
    out << "}";
  }
  out << "]}";
  out << "}";
  return out.str();
}

bool AppendRunReport(const std::string& path, const RunInfo& info) {
  // Telemetry must never consult the fault-injection failpoints or the
  // atomic-write machinery (it reports on them), so this is a plain append.
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "[WARN] cannot write run report %s\n", path.c_str());
    return false;
  }
  out << RenderRunReport(info) << "\n";
  out.flush();
  return static_cast<bool>(out);
}

std::string MetricsPathFromEnv() {
  const char* path = std::getenv("KGC_METRICS");
  return (path != nullptr && path[0] != '\0') ? path : "";
}

int FinishProcessReport(const std::string& name, double wall_seconds,
                        int exit_code) {
  StopGlobalExporter();
  const std::string path = MetricsPathFromEnv();
  if (!path.empty()) {
    RunInfo info;
    info.name = name;
    info.wall_seconds = wall_seconds;
    info.exit_code = exit_code;
    AppendRunReport(path, info);
  }
  return exit_code;
}

}  // namespace kgc::obs
