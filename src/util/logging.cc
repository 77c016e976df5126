#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "obs/trace.h"

namespace kgc {
namespace {

// kUnset until the first emission (or SetLogLevel) resolves the level; the
// env var is consulted exactly once.
constexpr int kUnset = -1;
std::atomic<int> g_log_level{kUnset};

int ResolveLevel() {
  int level = g_log_level.load(std::memory_order_relaxed);
  if (level != kUnset) return level;
  level = static_cast<int>(LogLevel::kInfo);
  if (const char* env = std::getenv("KGC_LOG_LEVEL");
      env != nullptr && env[0] != '\0') {
    LogLevel parsed;
    if (ParseLogLevel(env, &parsed)) {
      level = static_cast<int>(parsed);
    } else {
      std::fprintf(stderr,
                   "[WARN] KGC_LOG_LEVEL: unknown level '%s' "
                   "(expected info|warning|error)\n",
                   env);
    }
  }
  int expected = kUnset;
  g_log_level.compare_exchange_strong(expected, level,
                                      std::memory_order_relaxed);
  return g_log_level.load(std::memory_order_relaxed);
}

void Emit(LogLevel level, const char* tag, const char* format, va_list args) {
  if (static_cast<int>(level) < ResolveLevel()) return;
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const int millis = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          now.time_since_epoch())
          .count() %
      1000);
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S", &utc);

  // One vsnprintf into a local buffer, then a single fprintf, so concurrent
  // log lines never interleave mid-line.
  char message[1024];
  std::vsnprintf(message, sizeof(message), format, args);
  std::fprintf(stderr, "[%s.%03dZ] [%s] [t%d] %s\n", stamp, millis, tag,
               obs::ThreadId(), message);
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool ParseLogLevel(const std::string& name, LogLevel* level) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "info") {
    *level = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn") {
    *level = LogLevel::kWarning;
  } else if (lower == "error") {
    *level = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

#define KGC_DEFINE_LOG_FN(Name, level, tag)         \
  void Name(const char* format, ...) {              \
    va_list args;                                   \
    va_start(args, format);                         \
    Emit(level, tag, format, args);                 \
    va_end(args);                                   \
  }

KGC_DEFINE_LOG_FN(LogInfo, LogLevel::kInfo, "INFO")
KGC_DEFINE_LOG_FN(LogWarning, LogLevel::kWarning, "WARN")
KGC_DEFINE_LOG_FN(LogError, LogLevel::kError, "ERROR")

#undef KGC_DEFINE_LOG_FN

}  // namespace kgc
