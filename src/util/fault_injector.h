// Failpoint registry for fault-injection testing of the I/O layer.
//
// The low-level file helpers (AtomicWriteFile, ReadFileBytes, the rename in
// the atomic-write protocol) consult this singleton before every operation;
// an armed failpoint makes the next matching operation(s) fail the way real
// storage fails: a torn write that persists only a prefix, a short read, an
// out-of-space error, a rename that never lands. Tests arm failpoints
// programmatically; end-to-end runs can arm them through the KGC_FAULTS
// environment variable (parsed once, on first use):
//
//   KGC_FAULTS=<kind>[@<site>][:times=<n>][:skip=<n>][:bytes=<n>][:ms=<n>]
//              [,<kind>...]
//
//   kind   one of torn_write, short_read, enospc, rename_fail, mkdir_fail,
//          stall, crash
//   site   optional named failpoint ("rotate:manifest", "publish:current");
//          when present the entry arms that site instead of the kind's
//          global I/O-layer slot. Site names may contain ':' — trailing
//          key=value fields are parsed as options, everything before them
//          is the kind@site token.
//   times  how many matching operations fail (default 1)
//   skip   how many matching operations succeed first (default 0)
//   bytes  for torn_write: prefix bytes persisted before the failure
//   ms     for stall: milliseconds the phase boundary sleeps
//
// e.g. KGC_FAULTS=torn_write:bytes=64,short_read:times=2:skip=1
//      KGC_FAULTS=crash@rotate:manifest,enospc@publish:current:times=2
//
// Named sites drive multi-step protocols (snapshot rotation) whose
// individual steps must each be killable: the protocol code consults
// ShouldFailAt("rotate:manifest") before the step, and the armed kind
// decides how it dies — `crash` hard-exits the process mid-protocol,
// any other kind surfaces as an injected I/O error at that step.
//
// `stall` and `crash` fire at phase boundaries (util/deadline.h) rather
// than in the I/O layer: `stall` sleeps the boundary for `ms` milliseconds
// (driving watchdog timeouts), `crash` aborts the process mid-phase
// (driving supervisor crash recovery). `mkdir_fail` fails directory
// creation in MakeDirectories.
//
// All cache I/O runs on the serial training/caching path (parallel workers
// only compute; see DESIGN.md "Execution engine"), so the registry is
// deliberately lock-free and must not be armed concurrently with I/O.

#ifndef KGC_UTIL_FAULT_INJECTOR_H_
#define KGC_UTIL_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace kgc {

enum class FaultKind : int {
  kTornWrite = 0,   ///< write persists a prefix, then fails
  kShortRead = 1,   ///< read returns fewer bytes than the file holds
  kEnospc = 2,      ///< write fails up front (device full)
  kRenameFail = 3,  ///< atomic-write rename never happens
  kMkdirFail = 4,   ///< directory creation fails
  kStall = 5,       ///< phase boundary sleeps `ms` milliseconds
  kCrash = 6,       ///< phase boundary aborts the process
};
inline constexpr int kNumFaultKinds = 7;

/// Parses a fault kind name ("torn_write", ...); returns false on unknown.
bool ParseFaultKind(const std::string& name, FaultKind* kind);

class FaultInjector {
 public:
  /// The process-wide injector. Arms from KGC_FAULTS on first call.
  static FaultInjector& Get();

  /// Arms a failpoint: after `skip` successful matching operations, the
  /// next `times` ones fail. `payload` carries kind-specific data (torn
  /// write: bytes persisted before failing).
  void Arm(FaultKind kind, int times = 1, int skip = 0, int64_t payload = 0);

  /// Disarms every kind and site.
  void DisarmAllForTest();

  /// True and consumes one armed failure if the operation should fail;
  /// `payload` (may be null) receives the armed payload.
  bool ShouldFail(FaultKind kind, int64_t* payload = nullptr);

  /// Remaining failures armed for `kind` (0 = disarmed or exhausted).
  int TimesRemainingForTest(FaultKind kind) const;

  /// Arms failpoints from a spec string (see header comment). Unknown or
  /// malformed entries are skipped; returns false if any were.
  bool ArmFromSpec(const std::string& spec);

  /// Arms a named failpoint site. The armed `kind` is reported back by
  /// ShouldFailAt so the protocol code can pick the matching failure mode
  /// (crash vs I/O error vs stall).
  void ArmSite(const std::string& site, FaultKind kind, int times = 1,
               int skip = 0, int64_t payload = 0);

  /// True and consumes one armed failure if the named site should fail;
  /// `kind` / `payload` (may be null) receive what was armed.
  bool ShouldFailAt(const std::string& site, FaultKind* kind = nullptr,
                    int64_t* payload = nullptr);

 private:
  FaultInjector() = default;

  struct Slot {
    int times = 0;
    int skip = 0;
    int64_t payload = 0;
  };
  struct SiteSlot {
    FaultKind kind = FaultKind::kEnospc;
    Slot slot;
  };
  std::array<Slot, kNumFaultKinds> slots_;
  std::map<std::string, SiteSlot> sites_;
};

}  // namespace kgc

#endif  // KGC_UTIL_FAULT_INJECTOR_H_
