// Resource accounting: getrusage + /proc/self sampling, and per-phase
// deltas aligned with the cooperative deadline phases (util/deadline).
//
// A sample is cheap (two syscalls and one small procfs read), so phase
// boundaries and the metrics exporter can take one each without showing up
// in profiles. On kernels or sandboxes where /proc/self/io is absent, the
// byte counters report -1/absent rather than failing the run.

#ifndef KGC_OBS_RESOURCE_STATS_H_
#define KGC_OBS_RESOURCE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kgc::obs {

/// A point-in-time cumulative sample for this process. Byte counters are
/// -1 when /proc/self/io was unavailable.
struct ResourceUsage {
  double cpu_user_seconds = 0.0;
  double cpu_sys_seconds = 0.0;
  int64_t max_rss_bytes = 0;
  int64_t minor_faults = 0;
  int64_t major_faults = 0;
  int64_t vol_ctx_switches = 0;
  int64_t invol_ctx_switches = 0;
  bool io_ok = false;
  int64_t read_bytes = -1;
  int64_t write_bytes = -1;
};

ResourceUsage SampleProcessResources();

/// `usage` as one JSON object, the process-resources block of the run
/// report and of each time-series record. The byte counters are left out
/// when procfs was unavailable.
std::string ResourceUsageJson(const ResourceUsage& usage);

/// Resource deltas over one deadline phase. max_rss_bytes is the absolute
/// high-water mark at phase close (RSS peaks do not difference usefully);
/// everything else is phase-local.
struct PhaseResourceStats {
  std::string name;
  double wall_seconds = 0.0;
  double cpu_user_seconds = 0.0;
  double cpu_sys_seconds = 0.0;
  int64_t max_rss_bytes = 0;
  int64_t minor_faults = 0;
  int64_t major_faults = 0;
  int64_t vol_ctx_switches = 0;
  int64_t invol_ctx_switches = 0;
  int64_t read_bytes = -1;   ///< -1 when procfs was unavailable at either end
  int64_t write_bytes = -1;
};

/// Opens a named accounting phase, closing any still-open one first (so a
/// sequence of Deadline::BeginPhase calls partitions the run). Thread-safe;
/// meant to be driven from the run's phase boundaries, not the hot path.
void BeginPhaseResources(const std::string& name);

/// Closes any open phase and returns all completed phases in order.
std::vector<PhaseResourceStats> CollectPhaseResources();

void ResetPhaseResourcesForTest();

/// Redirects the procfs reads (default root "/proc/self") so tests can
/// exercise the missing-procfs path without a sandbox. nullptr restores
/// the default.
void SetProcfsRootForTest(const char* root);

}  // namespace kgc::obs

#endif  // KGC_OBS_RESOURCE_STATS_H_
