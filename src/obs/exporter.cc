#include "obs/exporter.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/clock.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource_stats.h"

namespace kgc::obs {
namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
// names map onto that by flattening separators.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

class MetricsExporter {
 public:
  void Start(const ExporterOptions& options) {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (running_) return;
    options_ = options;
    stop_.store(false, std::memory_order_release);
    abort_.store(false, std::memory_order_release);
    records_.store(0, std::memory_order_release);
    running_ = true;
    thread_ = std::thread([this] { Run(); });
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (!running_) return;
    {
      std::lock_guard<std::mutex> tick_lock(tick_mutex_);
      stop_.store(true, std::memory_order_release);
    }
    tick_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    running_ = false;
  }

  void Abort() {
    // Crash path: no control_mutex_ (the crashing thread may hold it), no
    // join. The exporter thread exits at its next wakeup; each record is
    // flushed as a complete line, so whatever is on disk stays parseable.
    stop_.store(true, std::memory_order_release);
    abort_.store(true, std::memory_order_release);
    tick_cv_.notify_all();
  }

  bool Running() {
    std::lock_guard<std::mutex> lock(control_mutex_);
    return running_;
  }

  uint64_t Records() const {
    return records_.load(std::memory_order_acquire);
  }

 private:
  void Run() {
    FILE* out = std::fopen(options_.timeseries_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "[WARN] cannot write time-series file %s\n",
                   options_.timeseries_path.c_str());
    }
    std::map<std::string, uint64_t> prev_counters;
    double prev_steady_ms = SteadyNowMs();
    uint64_t seq = 0;
    for (;;) {
      bool stopping;
      {
        std::unique_lock<std::mutex> lock(tick_mutex_);
        tick_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                          [this] {
                            return stop_.load(std::memory_order_acquire);
                          });
        stopping = stop_.load(std::memory_order_acquire);
      }
      if (abort_.load(std::memory_order_acquire)) break;  // no final record
      Tick(out, &prev_counters, &prev_steady_ms, seq++, stopping);
      if (stopping) break;
    }
    if (out != nullptr) std::fclose(out);
  }

  void Tick(FILE* out, std::map<std::string, uint64_t>* prev_counters,
            double* prev_steady_ms, uint64_t seq, bool final_record) {
    const MetricsSnapshot snapshot = Registry::Get().Snapshot();
    const double steady_ms = SteadyNowMs();
    const double dt_ms = steady_ms - *prev_steady_ms;
    *prev_steady_ms = steady_ms;

    if (out != nullptr) {
      const std::string line = RenderTimeseriesRecord(
          snapshot, *prev_counters, seq, steady_ms, dt_ms, final_record);
      std::fputs(line.c_str(), out);
      std::fputc('\n', out);
      std::fflush(out);
      records_.fetch_add(1, std::memory_order_release);
    }
    for (const CounterSample& c : snapshot.counters) {
      (*prev_counters)[c.name] = c.value;
    }
    WriteExposition(snapshot);
  }

  std::string RenderTimeseriesRecord(
      const MetricsSnapshot& snapshot,
      const std::map<std::string, uint64_t>& prev_counters, uint64_t seq,
      double steady_ms, double dt_ms, bool final_record) const {
    std::ostringstream out;
    out << "{\"schema\":\"kgc.timeseries.v1\"";
    out << ",\"run\":\"" << JsonEscape(options_.run_name) << "\"";
    out << ",\"seq\":" << seq;
    out << ",\"steady_ms\":" << JsonDouble(steady_ms);
    out << ",\"wall\":\"" << Iso8601UtcNow() << "\"";
    out << ",\"dt_ms\":" << JsonDouble(dt_ms);
    if (final_record) out << ",\"final\":true";

    out << ",\"counters\":{";
    for (size_t i = 0; i < snapshot.counters.size(); ++i) {
      const CounterSample& c = snapshot.counters[i];
      const auto it = prev_counters.find(c.name);
      const uint64_t prev = it == prev_counters.end() ? 0 : it->second;
      // Counters are monotone; a snapshot below the previous one cannot
      // happen outside ResetAllForTest, so clamp rather than go negative.
      const uint64_t delta = c.value >= prev ? c.value - prev : 0;
      out << (i > 0 ? "," : "") << "\"" << JsonEscape(c.name)
          << "\":{\"total\":" << c.value << ",\"delta\":" << delta << "}";
    }
    out << "}";

    out << ",\"gauges\":{";
    bool first = true;
    for (const GaugeSample& g : snapshot.gauges) {
      if (!g.is_set) continue;
      out << (first ? "" : ",") << "\"" << JsonEscape(g.name)
          << "\":" << JsonDouble(g.value);
      first = false;
    }
    out << "}";

    out << ",\"durations\":{";
    for (size_t i = 0; i < snapshot.durations.size(); ++i) {
      const DurationSample& d = snapshot.durations[i];
      out << (i > 0 ? "," : "") << "\"" << JsonEscape(d.name)
          << "\":{\"count\":" << d.count << ",\"sum\":" << JsonDouble(d.sum)
          << ",\"p50\":" << JsonDouble(d.p50)
          << ",\"p90\":" << JsonDouble(d.p90)
          << ",\"p99\":" << JsonDouble(d.p99)
          << ",\"p999\":" << JsonDouble(d.p999)
          << ",\"max\":" << JsonDouble(d.max) << "}";
    }
    out << "}";

    out << ",\"resources\":" << ResourceUsageJson(SampleProcessResources());

    out << "}";
    return out.str();
  }

  void WriteExposition(const MetricsSnapshot& snapshot) const {
    if (options_.exposition_path.empty()) return;
    // Telemetry never routes through util's atomic-write / fault-injection
    // machinery (it reports on them), so this is a plain tmp + rename.
    const std::string tmp = options_.exposition_path + ".tmp";
    FILE* out = std::fopen(tmp.c_str(), "w");
    if (out == nullptr) return;
    for (const CounterSample& c : snapshot.counters) {
      const std::string name = PromName(c.name);
      std::fprintf(out, "# TYPE %s counter\n%s %llu\n", name.c_str(),
                   name.c_str(), static_cast<unsigned long long>(c.value));
    }
    for (const GaugeSample& g : snapshot.gauges) {
      if (!g.is_set) continue;
      const std::string name = PromName(g.name);
      std::fprintf(out, "# TYPE %s gauge\n%s %s\n", name.c_str(), name.c_str(),
                   JsonDouble(g.value).c_str());
    }
    for (const DurationSample& d : snapshot.durations) {
      const std::string name = PromName(d.name);
      std::fprintf(out, "# TYPE %s summary\n", name.c_str());
      const struct {
        const char* q;
        double value;
      } quantiles[] = {{"0.5", d.p50}, {"0.9", d.p90}, {"0.99", d.p99},
                       {"0.999", d.p999}};
      for (const auto& [q, value] : quantiles) {
        std::fprintf(out, "%s{quantile=\"%s\"} %s\n", name.c_str(), q,
                     JsonDouble(value).c_str());
      }
      std::fprintf(out, "%s_sum %s\n%s_count %llu\n", name.c_str(),
                   JsonDouble(d.sum).c_str(), name.c_str(),
                   static_cast<unsigned long long>(d.count));
    }
    const bool ok = std::fflush(out) == 0;
    std::fclose(out);
    if (ok) std::rename(tmp.c_str(), options_.exposition_path.c_str());
  }

  std::mutex control_mutex_;
  bool running_ = false;
  ExporterOptions options_;
  std::thread thread_;

  std::mutex tick_mutex_;
  std::condition_variable tick_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_{false};
  std::atomic<uint64_t> records_{0};
};

MetricsExporter& Exporter() {
  static MetricsExporter* exporter = new MetricsExporter();
  return *exporter;
}

}  // namespace

bool StartExporterFromEnv(const std::string& run_name) {
  const int interval_ms = EnvNumber("KGC_METRICS_INTERVAL_MS", 0, 0);
  if (interval_ms == 0) return false;
  ExporterOptions options;
  options.run_name = run_name;
  options.interval_ms = interval_ms;
  if (const char* path = std::getenv("KGC_TIMESERIES");
      path != nullptr && path[0] != '\0') {
    options.timeseries_path = path;
  }
  if (const char* path = std::getenv("KGC_EXPOSITION");
      path != nullptr && path[0] != '\0') {
    options.exposition_path = path;
  }
  StartExporter(options);
  return true;
}

void StartExporter(const ExporterOptions& options) {
  if (options.interval_ms <= 0) return;
  Exporter().Start(options);
}

bool ExporterRunning() { return Exporter().Running(); }

void StopGlobalExporter() { Exporter().Stop(); }

void AbortGlobalExporter() { Exporter().Abort(); }

uint64_t ExporterRecordsWritten() { return Exporter().Records(); }

}  // namespace kgc::obs
