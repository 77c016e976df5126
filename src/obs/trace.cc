#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/clock.h"
#include "obs/env.h"
#include "obs/json.h"

namespace kgc::obs {
namespace {

// Bitmask of enabled features, or kUninitialized before the first span /
// query reads the environment. One relaxed load of this is the entire cost
// of a span when telemetry is off.
constexpr int kUninitialized = -1;
constexpr int kTracingBit = 1;
constexpr int kRollupsBit = 2;
std::atomic<int> g_mode{kUninitialized};

constexpr size_t kDefaultDrainThreshold = 4096;

struct Event {
  std::string name;
  std::string args;
  int tid = 0;
  int depth = 0;
  uint64_t id = 0;
  uint64_t parent_id = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};

struct Rollup {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;

  void Add(int64_t duration_ns) {
    if (count == 0 || duration_ns < min_ns) min_ns = duration_ns;
    if (count == 0 || duration_ns > max_ns) max_ns = duration_ns;
    ++count;
    total_ns += duration_ns;
  }
};

struct TraceState {
  std::mutex mutex;
  std::string path;
  FILE* file = nullptr;        // open once the first drain happens
  bool write_failed = false;
  uint64_t events_written = 0;
  size_t drain_threshold = kDefaultDrainThreshold;
  bool finalized = false;
  bool atexit_registered = false;
  std::vector<Event> events;  // buffered, not yet drained
  std::map<std::string, Rollup> rollups;
};

TraceState& State() {
  static TraceState* state = new TraceState();
  return *state;
}

std::atomic<uint64_t> g_next_span_id{0};
thread_local uint64_t tls_current_span = 0;
thread_local int tls_depth = 0;

void FlushAtExit() { FlushTrace(); }

void RegisterAtExitFlushLocked(TraceState& state) {
  if (!state.atexit_registered) {
    state.atexit_registered = true;
    std::atexit(&FlushAtExit);
  }
}

void WriteEventJson(FILE* out, const Event& e) {
  std::fprintf(
      out, "{\"name\":\"%s\",\"cat\":\"kgc\",\"ph\":\"X\",\"pid\":1,"
           "\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%llu,"
           "\"parent\":%llu,\"depth\":%d%s}}",
      JsonEscape(e.name).c_str(), e.tid,
      JsonDouble(static_cast<double>(e.start_ns) * 1e-3).c_str(),
      JsonDouble(static_cast<double>(e.duration_ns) * 1e-3).c_str(),
      static_cast<unsigned long long>(e.id),
      static_cast<unsigned long long>(e.parent_id), e.depth, e.args.c_str());
}

// Appends all buffered events to the trace file, opening it (and writing
// the array header + clock-sync metadata event) on the first drain. Each
// event is one complete ",\n"-prefixed line flushed before return, so a
// SIGKILL between drains never tears an event — appending "]" to whatever
// is on disk always yields valid JSON.
bool DrainLocked(TraceState& state) {
  if (state.finalized || state.path.empty()) return false;
  if (state.file == nullptr) {
    if (state.write_failed) return false;
    state.file = std::fopen(state.path.c_str(), "w");
    if (state.file == nullptr) {
      state.write_failed = true;
      std::fprintf(stderr, "[WARN] cannot write trace file %s\n",
                   state.path.c_str());
      return false;
    }
    // Clock-sync metadata: the wall time at which the shared steady epoch
    // reads `steady_ms`, so trace timestamps (which are steady offsets)
    // can be anchored to real time and to run reports / time-series lines.
    std::fprintf(
        state.file,
        "[\n{\"name\":\"kgc_clock_sync\",\"cat\":\"__metadata\",\"ph\":\"M\","
        "\"pid\":1,\"tid\":0,\"args\":{\"wall\":\"%s\",\"steady_ms\":%s}}",
        Iso8601UtcNow().c_str(), JsonDouble(SteadyNowMs()).c_str());
    ++state.events_written;
  }
  for (const Event& e : state.events) {
    std::fputs(",\n", state.file);
    WriteEventJson(state.file, e);
    ++state.events_written;
  }
  state.events.clear();
  std::fflush(state.file);
  return true;
}

// Reads KGC_TRACE / KGC_METRICS / KGC_TRACE_DRAIN once and publishes the
// mode. Returns the resolved mode.
int InitFromEnv() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  int mode = g_mode.load(std::memory_order_relaxed);
  if (mode != kUninitialized) return mode;  // lost the race; already set
  mode = 0;
  if (const char* path = std::getenv("KGC_TRACE");
      path != nullptr && path[0] != '\0') {
    state.path = path;
    mode |= kTracingBit | kRollupsBit;
    RegisterAtExitFlushLocked(state);
  }
  if (const char* metrics = std::getenv("KGC_METRICS");
      metrics != nullptr && metrics[0] != '\0') {
    mode |= kRollupsBit;
  }
  state.drain_threshold =
      EnvNumber<size_t>("KGC_TRACE_DRAIN", state.drain_threshold, 1);
  g_mode.store(mode, std::memory_order_release);
  return mode;
}

int Mode() {
  const int mode = g_mode.load(std::memory_order_relaxed);
  return mode == kUninitialized ? InitFromEnv() : mode;
}

}  // namespace

int ThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

bool TracingEnabled() { return (Mode() & kTracingBit) != 0; }

void StartTracing(const std::string& path) {
  Mode();  // settle env init first so it cannot overwrite this
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
  }
  state.path = path;
  state.write_failed = false;
  state.events_written = 0;
  state.finalized = false;
  RegisterAtExitFlushLocked(state);
  g_mode.fetch_or(kTracingBit | kRollupsBit, std::memory_order_release);
}

void EnableSpanRollups() {
  Mode();
  g_mode.fetch_or(kRollupsBit, std::memory_order_release);
}

void SetTraceDrainThresholdForTest(size_t threshold) {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.drain_threshold = threshold > 0 ? threshold : 1;
}

bool FlushTrace() {
  if (!TracingEnabled()) return true;
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.finalized || state.path.empty()) return true;
  DrainLocked(state);
  if (state.file == nullptr) return false;  // nothing ever opened / I/O error
  std::fputs("\n]\n", state.file);
  const bool ok = std::fflush(state.file) == 0;
  std::fclose(state.file);
  state.file = nullptr;
  state.finalized = true;
  return ok;
}

std::vector<SpanRollup> CollectSpanRollups() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<SpanRollup> rollups;
  rollups.reserve(state.rollups.size());
  for (const auto& [name, r] : state.rollups) {
    SpanRollup rollup;
    rollup.name = name;
    rollup.count = r.count;
    rollup.total_seconds = static_cast<double>(r.total_ns) * 1e-9;
    rollup.min_seconds = static_cast<double>(r.min_ns) * 1e-9;
    rollup.max_seconds = static_cast<double>(r.max_ns) * 1e-9;
    rollups.push_back(std::move(rollup));
  }
  return rollups;
}

void AddSpanRollup(const char* name, const std::string& label,
                   double seconds) {
  if ((Mode() & kRollupsBit) == 0) return;
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.rollups[std::string(name) + "/" + label].Add(
      static_cast<int64_t>(seconds * 1e9));
}

std::vector<RecordedSpan> SnapshotSpansForTest() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<RecordedSpan> spans;
  spans.reserve(state.events.size());
  for (const Event& e : state.events) {
    RecordedSpan span;
    span.name = e.name;
    span.tid = e.tid;
    span.depth = e.depth;
    span.id = e.id;
    span.parent_id = e.parent_id;
    span.start_us = static_cast<double>(e.start_ns) * 1e-3;
    span.duration_us = static_cast<double>(e.duration_ns) * 1e-3;
    spans.push_back(std::move(span));
  }
  return spans;
}

void ResetTracingForTest() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
  }
  state.events.clear();
  state.rollups.clear();
  state.path.clear();
  state.write_failed = false;
  state.events_written = 0;
  state.drain_threshold = kDefaultDrainThreshold;
  state.finalized = false;
  g_mode.store(0, std::memory_order_release);
}

TraceSpan::TraceSpan(const char* name) {
  const int mode = Mode();
  if (mode == 0) return;
  active_ = true;
  name_ = name;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
  parent_id_ = tls_current_span;
  depth_ = tls_depth;
  tls_current_span = id_;
  ++tls_depth;
  start_ns_ = SteadyNowNs();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const int64_t duration_ns = SteadyNowNs() - start_ns_;
  tls_current_span = parent_id_;
  --tls_depth;

  const int mode = g_mode.load(std::memory_order_relaxed);
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if ((mode & kTracingBit) != 0 && !state.finalized) {
    Event event;
    event.name = name_;
    event.args = std::move(args_);
    event.tid = ThreadId();
    event.depth = depth_;
    event.id = id_;
    event.parent_id = parent_id_;
    event.start_ns = start_ns_;
    event.duration_ns = duration_ns;
    state.events.push_back(std::move(event));
    if (state.events.size() >= state.drain_threshold) DrainLocked(state);
  }
  if ((mode & kRollupsBit) != 0) {
    state.rollups[name_].Add(duration_ns);
    if (!labeled_name_.empty()) state.rollups[labeled_name_].Add(duration_ns);
  }
}

void TraceSpan::AddArgInt(const char* key, long long value) {
  if (!active_) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%lld", key, value);
  args_ += buf;
}

void TraceSpan::SetRollupLabel(const std::string& label) {
  if (!active_) return;
  labeled_name_ = std::string(name_) + "/" + label;
}

void TraceSpan::AddArgStr(const char* key, const char* value) {
  if (!active_) return;
  args_ += ",\"";
  args_ += key;
  args_ += "\":\"";
  args_ += JsonEscape(value);
  args_ += "\"";
}

}  // namespace kgc::obs
