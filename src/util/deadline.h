// Phase deadlines: in-process watchdog for long phases.
//
// A worker process (bench binary, example, test) runs a handful of long
// phases — training, ranking, rule mining. The external supervisor
// (tools/kgc_suite) can only SIGKILL a stuck worker, which risks torn
// artifacts and loses all progress. The Deadline facility is the
// cooperative half of that watchdog: phases check in at their natural
// boundaries (end of a training epoch, between ranking passes, between
// AMIE candidate rounds), and when the per-phase budget is exhausted the
// worker exits *gracefully* — after persisting a resumable checkpoint and
// flushing telemetry — with a distinct exit code the supervisor recognizes
// as "timed out but resumable", so the retry continues instead of
// restarting.
//
// Configuration: `KGC_PHASE_TIMEOUT_S=<seconds>` (read once, on first use;
// parsed strictly, see obs/env.h). Zero/unset disables every check. The
// budget applies per phase: BeginPhase (usually via the DeadlinePhase RAII
// guard) restarts the clock, so "train FB15k-syn" and "rank FB15k-syn" each
// get the full budget.
//
// PhaseBoundary(name) is the check-in. It
//   1. services the `stall` / `crash` failpoints (util/fault_injector.h) so
//      watchdog and crash recovery are testable end to end, and
//   2. when the phase budget is exhausted, invokes the deadline handler —
//      by default: log, record the exit cause, std::exit(kDeadlineExitCode)
//      (running atexit hooks, which flush the run report).
//
// Checks are serial-path only: inside a ParallelFor worker PhaseBoundary
// is a no-op, so a deadline can never tear a parallel region (the boundary
// after the join catches it).

#ifndef KGC_UTIL_DEADLINE_H_
#define KGC_UTIL_DEADLINE_H_

namespace kgc {

/// Exit code of a deadline-triggered orderly exit. Mirrors GNU timeout(1)
/// so shell tooling reads it naturally; tools/kgc_suite maps it to the
/// "timeout" manifest status and retries without quarantine escalation
/// (the exit was orderly, so no artifact can be torn).
inline constexpr int kDeadlineExitCode = 124;

class Deadline {
 public:
  /// The process-wide deadline. Reads KGC_PHASE_TIMEOUT_S on first call.
  static Deadline& Global();

  /// Per-phase wall-clock budget in seconds; <= 0 disables all checks.
  /// Production sets it only through KGC_PHASE_TIMEOUT_S.
  void SetPhaseBudgetForTest(double seconds);
  double phase_budget() const;
  bool enabled() const { return phase_budget() > 0; }

  /// Restarts the phase clock and opens the phase's resource accounting
  /// (obs/resource_stats.h) under `name`.
  void BeginPhase(const char* name);

  /// Seconds since the last BeginPhase (0 before the first).
  double PhaseElapsedSeconds() const;

  /// True when a budget is set and the current phase has exceeded it.
  bool Expired() const;

 private:
  Deadline();
};

/// RAII BeginPhase: restarts the phase clock for the enclosing scope.
/// No-op inside a ParallelFor worker (phase state belongs to the serial
/// path).
class DeadlinePhase {
 public:
  explicit DeadlinePhase(const char* name);
};

/// Phase check-in without the exit: services the stall/crash failpoints
/// and returns whether the phase deadline has expired. For callers that must persist state before exiting (the
/// trainer saves a checkpoint first, then calls HandleDeadlineExpiry).
bool PhaseCheck(const char* phase);

/// Phase check-in (see file comment): PhaseCheck, then HandleDeadlineExpiry
/// when expired. Only returns past an expiry when a test handler returned.
void PhaseBoundary(const char* phase);

/// Invokes the deadline handler for `phase` (default: record exit cause
/// "deadline:<phase>", log, std::exit(kDeadlineExitCode)).
void HandleDeadlineExpiry(const char* phase);

/// Test hook: replaces the exit-on-expiry behavior. The handler receives
/// the phase name; returning resumes the caller as if no deadline was set.
/// Pass nullptr to restore the default.
using DeadlineHandler = void (*)(const char* phase);
void SetDeadlineHandlerForTest(DeadlineHandler handler);

}  // namespace kgc

#endif  // KGC_UTIL_DEADLINE_H_
