// kgc_top: terminal viewer for the live metrics time-series.
//
// Tails the kgc.timeseries.v1 JSONL file the in-process exporter
// (src/obs/exporter.h) appends while a bench or tool runs with
// KGC_METRICS_INTERVAL_MS set, and renders the newest record as a
// one-screen dashboard: counter totals and per-tick deltas, gauges,
// duration quantiles, and process resource usage.
//
// Usage:
//   kgc_top [--file=PATH] [--interval-ms=N] [--once]
//
//   --file         time-series file to follow (default: $KGC_TIMESERIES,
//                  else kgc_timeseries.jsonl)
//   --interval-ms  refresh period in watch mode (default 1000)
//   --once         render the newest record once and exit
//
// Watch mode refreshes until the run writes its final record (the
// exporter marks it "final":true) or the viewer is interrupted. Records
// are whole flushed lines, so a file cut short by SIGKILL still renders:
// the last complete line wins and a trailing partial line is ignored.
//
// Exit code: 0 on success, 1 when no record could be read, 2 on usage.

#include <sys/ioctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json_parse.h"

namespace {

using kgc::obs::JsonValue;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: kgc_top [--file=PATH] [--interval-ms=N] [--once]\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Newest complete record in the file: the last line that parses as a
// kgc.timeseries.v1 object. A trailing partial line (writer mid-append,
// or the run was SIGKILLed mid-write) simply fails to parse and is
// skipped in favor of the line before it.
bool ReadNewestRecord(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool found = false;
  JsonValue parsed;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue candidate;
    if (!JsonValue::Parse(line, &candidate)) continue;
    const JsonValue* schema = candidate.Find("schema");
    if (schema == nullptr || schema->AsString() != "kgc.timeseries.v1") {
      continue;
    }
    parsed = std::move(candidate);
    found = true;
  }
  if (found) *out = std::move(parsed);
  return found;
}

std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f %s", bytes, units[unit]);
  return buffer;
}

std::string HumanSeconds(double seconds) {
  char buffer[32];
  if (seconds < 1e-3) {
    std::snprintf(buffer, sizeof(buffer), "%.0f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3f s", seconds);
  }
  return buffer;
}

double NumberField(const JsonValue& object, const char* key,
                   double fallback = 0.0) {
  const JsonValue* value = object.Find(key);
  return value == nullptr ? fallback : value->AsNumber(fallback);
}

// Columns of the attached terminal: TIOCGWINSZ, then $COLUMNS (set by
// shells even when stdout is piped), then the classic 80.
int TerminalWidth() {
  winsize ws{};
  if (ioctl(STDOUT_FILENO, TIOCGWINSZ, &ws) == 0 && ws.ws_col > 0) {
    return ws.ws_col;
  }
  if (const char* cols = std::getenv("COLUMNS");
      cols != nullptr && cols[0] != '\0') {
    const int parsed = std::atoi(cols);
    if (parsed > 0) return parsed;
  }
  return 80;
}

// Label column width for a metric table: wide enough for the longest name
// so the numbers align, but only if such a row still fits the terminal.
// Returns 0 when it cannot fit — the caller then renders each metric as
// two lines (full name, then the numbers indented) instead of truncating
// the name: metric names like kgc.topk.entities_scored carry their
// meaning in the suffix, which is exactly what truncation would cut.
size_t LabelWidth(size_t longest_name, size_t header_width,
                  size_t numeric_width, int term_width) {
  const size_t width = std::max(longest_name, header_width);
  if (width + 1 + numeric_width <= static_cast<size_t>(term_width)) {
    return width;
  }
  return 0;
}

void RenderRecord(const JsonValue& record) {
  const JsonValue* run = record.Find("run");
  const JsonValue* wall = record.Find("wall");
  const JsonValue* final_flag = record.Find("final");
  const double dt_ms = NumberField(record, "dt_ms");
  std::printf("kgc_top — run %s  seq %.0f  wall %s  tick %.0f ms%s\n",
              run != nullptr ? run->AsString().c_str() : "?",
              NumberField(record, "seq"),
              wall != nullptr ? wall->AsString().c_str() : "?", dt_ms,
              final_flag != nullptr && final_flag->AsBool() ? "  [final]"
                                                            : "");

  const JsonValue* resources = record.Find("resources");
  if (resources != nullptr && resources->is_object()) {
    std::printf(
        "cpu user %.2fs  sys %.2fs  rss %s  faults %.0f/%.0f  "
        "ctx %.0f/%.0f\n",
        NumberField(*resources, "cpu_user_seconds"),
        NumberField(*resources, "cpu_sys_seconds"),
        HumanBytes(NumberField(*resources, "max_rss_bytes")).c_str(),
        NumberField(*resources, "minor_faults"),
        NumberField(*resources, "major_faults"),
        NumberField(*resources, "vol_ctx_switches"),
        NumberField(*resources, "invol_ctx_switches"));
  }

  const int term_width = TerminalWidth();
  const JsonValue* counters = record.Find("counters");
  if (counters != nullptr && counters->is_object() &&
      !counters->AsObject().empty()) {
    size_t longest = 0;
    for (const auto& [name, sample] : counters->AsObject()) {
      longest = std::max(longest, name.size());
    }
    // Numeric tail: "%14.0f %10.0f %12.1f" plus the separating spaces.
    const size_t label =
        LabelWidth(longest, std::strlen("COUNTER"), 38, term_width);
    if (label > 0) {
      std::printf("\n%-*s %14s %10s %12s\n", static_cast<int>(label),
                  "COUNTER", "TOTAL", "DELTA", "RATE/S");
    } else {
      std::printf("\nCOUNTER, then %14s %10s %12s\n", "TOTAL", "DELTA",
                  "RATE/S");
    }
    for (const auto& [name, sample] : counters->AsObject()) {
      const double total = NumberField(sample, "total");
      const double delta = NumberField(sample, "delta");
      const double rate = dt_ms > 0.0 ? delta * 1000.0 / dt_ms : 0.0;
      if (label > 0) {
        std::printf("%-*s %14.0f %10.0f %12.1f\n", static_cast<int>(label),
                    name.c_str(), total, delta, rate);
      } else {
        std::printf("%s\n  %14.0f %10.0f %12.1f\n", name.c_str(), total,
                    delta, rate);
      }
    }
  }

  const JsonValue* gauges = record.Find("gauges");
  if (gauges != nullptr && gauges->is_object() &&
      !gauges->AsObject().empty()) {
    size_t longest = 0;
    for (const auto& [name, value] : gauges->AsObject()) {
      longest = std::max(longest, name.size());
    }
    const size_t label =
        LabelWidth(longest, std::strlen("GAUGE"), 14, term_width);
    if (label > 0) {
      std::printf("\n%-*s %14s\n", static_cast<int>(label), "GAUGE", "VALUE");
    } else {
      std::printf("\nGAUGE, then %14s\n", "VALUE");
    }
    for (const auto& [name, value] : gauges->AsObject()) {
      if (label > 0) {
        std::printf("%-*s %14.3f\n", static_cast<int>(label), name.c_str(),
                    value.AsNumber());
      } else {
        std::printf("%s\n  %14.3f\n", name.c_str(), value.AsNumber());
      }
    }
  }

  const JsonValue* durations = record.Find("durations");
  if (durations != nullptr && durations->is_object() &&
      !durations->AsObject().empty()) {
    std::printf("\n%-34s %8s %10s %10s %10s %10s %10s\n", "DURATION", "COUNT",
                "P50", "P90", "P99", "P999", "MAX");
    for (const auto& [name, d] : durations->AsObject()) {
      std::printf("%-34s %8.0f %10s %10s %10s %10s %10s\n", name.c_str(),
                  NumberField(d, "count"),
                  HumanSeconds(NumberField(d, "p50")).c_str(),
                  HumanSeconds(NumberField(d, "p90")).c_str(),
                  HumanSeconds(NumberField(d, "p99")).c_str(),
                  HumanSeconds(NumberField(d, "p999")).c_str(),
                  HumanSeconds(NumberField(d, "max")).c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (const char* env = std::getenv("KGC_TIMESERIES");
      env != nullptr && env[0] != '\0') {
    path = env;
  } else {
    path = "kgc_timeseries.jsonl";
  }
  int interval_ms = 1000;
  bool once = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (ParseFlag(arg, "file", &value)) {
      path = value;
    } else if (ParseFlag(arg, "interval-ms", &value)) {
      interval_ms = std::atoi(value.c_str());
      if (interval_ms <= 0) {
        std::fprintf(stderr, "kgc_top: --interval-ms must be positive\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "kgc_top: unknown argument %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  const bool clear_screen = !once && ::isatty(STDOUT_FILENO) != 0;
  bool ever_rendered = false;
  double last_seq = -1.0;
  for (;;) {
    JsonValue record;
    if (ReadNewestRecord(path, &record)) {
      const double seq = NumberField(record, "seq", -1.0);
      if (seq != last_seq) {
        last_seq = seq;
        if (clear_screen) std::printf("\033[2J\033[H");
        RenderRecord(record);
        ever_rendered = true;
      }
      const JsonValue* final_flag = record.Find("final");
      if (final_flag != nullptr && final_flag->AsBool()) break;
    } else if (once) {
      std::fprintf(stderr, "kgc_top: no time-series records in %s\n",
                   path.c_str());
      return 1;
    }
    if (once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return ever_rendered ? 0 : 1;
}
