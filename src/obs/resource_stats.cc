#include "obs/resource_stats.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>

#include "obs/clock.h"
#include "obs/json.h"

namespace kgc::obs {
namespace {

std::atomic<const char*> g_procfs_root{nullptr};

const char* ProcfsRoot() {
  const char* root = g_procfs_root.load(std::memory_order_acquire);
  return root != nullptr ? root : "/proc/self";
}

// Parses "<key>: <value>" lines out of /proc/self/io. Returns false when
// the file is unreadable (procfs not mounted, hidepid, sandbox).
bool ReadProcSelfIo(int64_t* read_bytes, int64_t* write_bytes) {
  const std::string path = std::string(ProcfsRoot()) + "/io";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  bool saw_read = false;
  bool saw_write = false;
  char line[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long value = 0;
    if (std::sscanf(line, "read_bytes: %lld", &value) == 1) {
      *read_bytes = value;
      saw_read = true;
    } else if (std::sscanf(line, "write_bytes: %lld", &value) == 1) {
      *write_bytes = value;
      saw_write = true;
    }
  }
  std::fclose(f);
  return saw_read && saw_write;
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Per-phase accounting state. One phase is open at a time; opening a new
// one closes the previous, so Deadline::BeginPhase calls partition the run
// without the call sites needing explicit close bookkeeping.
struct OpenPhase {
  std::string name;
  int64_t start_steady_ns = 0;
  ResourceUsage start;
};

std::mutex g_phase_mutex;
std::optional<OpenPhase> g_open_phase;
std::vector<PhaseResourceStats> g_completed_phases;

void ClosePhaseLocked() {
  if (!g_open_phase.has_value()) return;
  const OpenPhase& open = *g_open_phase;
  const ResourceUsage end = SampleProcessResources();
  PhaseResourceStats stats;
  stats.name = open.name;
  stats.wall_seconds =
      static_cast<double>(SteadyNowNs() - open.start_steady_ns) * 1e-9;
  stats.cpu_user_seconds = end.cpu_user_seconds - open.start.cpu_user_seconds;
  stats.cpu_sys_seconds = end.cpu_sys_seconds - open.start.cpu_sys_seconds;
  stats.max_rss_bytes = end.max_rss_bytes;
  stats.minor_faults = end.minor_faults - open.start.minor_faults;
  stats.major_faults = end.major_faults - open.start.major_faults;
  stats.vol_ctx_switches =
      end.vol_ctx_switches - open.start.vol_ctx_switches;
  stats.invol_ctx_switches =
      end.invol_ctx_switches - open.start.invol_ctx_switches;
  if (end.io_ok && open.start.io_ok) {
    stats.read_bytes = end.read_bytes - open.start.read_bytes;
    stats.write_bytes = end.write_bytes - open.start.write_bytes;
  }
  g_completed_phases.push_back(std::move(stats));
  g_open_phase.reset();
}

}  // namespace

void SetProcfsRootForTest(const char* root) {
  g_procfs_root.store(root, std::memory_order_release);
}

ResourceUsage SampleProcessResources() {
  ResourceUsage usage;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);  // cannot fail for RUSAGE_SELF
  usage.cpu_user_seconds = TimevalSeconds(ru.ru_utime);
  usage.cpu_sys_seconds = TimevalSeconds(ru.ru_stime);
  usage.max_rss_bytes = static_cast<int64_t>(ru.ru_maxrss) * 1024;  // KiB
  usage.minor_faults = ru.ru_minflt;
  usage.major_faults = ru.ru_majflt;
  usage.vol_ctx_switches = ru.ru_nvcsw;
  usage.invol_ctx_switches = ru.ru_nivcsw;
  int64_t read_bytes = -1;
  int64_t write_bytes = -1;
  if (ReadProcSelfIo(&read_bytes, &write_bytes)) {
    usage.io_ok = true;
    usage.read_bytes = read_bytes;
    usage.write_bytes = write_bytes;
  }
  return usage;
}

std::string ResourceUsageJson(const ResourceUsage& usage) {
  std::ostringstream out;
  out << "{\"cpu_user_seconds\":" << JsonDouble(usage.cpu_user_seconds)
      << ",\"cpu_sys_seconds\":" << JsonDouble(usage.cpu_sys_seconds)
      << ",\"max_rss_bytes\":" << usage.max_rss_bytes
      << ",\"minor_faults\":" << usage.minor_faults
      << ",\"major_faults\":" << usage.major_faults
      << ",\"vol_ctx_switches\":" << usage.vol_ctx_switches
      << ",\"invol_ctx_switches\":" << usage.invol_ctx_switches;
  if (usage.io_ok) {
    out << ",\"read_bytes\":" << usage.read_bytes
        << ",\"write_bytes\":" << usage.write_bytes;
  }
  out << "}";
  return out.str();
}

void BeginPhaseResources(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_phase_mutex);
  ClosePhaseLocked();
  OpenPhase open;
  open.name = name;
  open.start_steady_ns = SteadyNowNs();
  open.start = SampleProcessResources();
  g_open_phase = std::move(open);
}

std::vector<PhaseResourceStats> CollectPhaseResources() {
  std::lock_guard<std::mutex> lock(g_phase_mutex);
  ClosePhaseLocked();
  return g_completed_phases;
}

void ResetPhaseResourcesForTest() {
  std::lock_guard<std::mutex> lock(g_phase_mutex);
  g_open_phase.reset();
  g_completed_phases.clear();
}

}  // namespace kgc::obs
