// Minimal leveled logging to stderr.
//
// Usage:
//   KGC_LOG(INFO) << won't compile -- this is printf-style, not streams:
//   LogInfo("trained %s in %.1fs", name.c_str(), seconds);
//
// Every line carries an ISO-8601 UTC timestamp and the dense thread id
// from obs::ThreadId() (shared with trace spans, so log lines and trace
// rows correlate):
//
//   [2026-08-06T12:34:56.789Z] [INFO] [t1] trained TransE in 3.1s
//
// Verbosity is controlled globally; the KGC_LOG_LEVEL environment variable
// (info | warning | error, case-insensitive) sets the startup level, and
// SetLogLevel overrides it programmatically (benches lower it to keep table
// output clean while examples keep INFO on).

#ifndef KGC_UTIL_LOGGING_H_
#define KGC_UTIL_LOGGING_H_

#include <string>

namespace kgc {

enum class LogLevel { kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the minimum level that is emitted (default kInfo, or
/// KGC_LOG_LEVEL when set).
void SetLogLevel(LogLevel level);

/// Parses "info" / "warning" (or "warn") / "error", case-insensitive.
/// Returns false on anything else.
bool ParseLogLevel(const std::string& name, LogLevel* level);

/// printf-style log emitters.
void LogInfo(const char* format, ...) __attribute__((format(printf, 1, 2)));
void LogWarning(const char* format, ...) __attribute__((format(printf, 1, 2)));
void LogError(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace kgc

#endif  // KGC_UTIL_LOGGING_H_
