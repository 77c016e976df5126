#include "util/deadline.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/env.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/resource_stats.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace kgc {
namespace {

using Clock = std::chrono::steady_clock;

// All state is process-global: one budget, one phase clock. Writers are
// serial; the atomics keep a reader on another thread safe.
std::atomic<double> g_budget_seconds{0.0};
std::atomic<int64_t> g_phase_start_ns{0};

std::atomic<DeadlineHandler> g_test_handler{nullptr};

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Deadline::Deadline() {
  const double seconds = obs::EnvNumber("KGC_PHASE_TIMEOUT_S", 0.0, 0.0);
  if (seconds > 0) {
    g_budget_seconds.store(seconds, std::memory_order_relaxed);
    LogInfo("phase deadline armed: %.1fs per phase (KGC_PHASE_TIMEOUT_S)",
            seconds);
  }
}

Deadline& Deadline::Global() {
  static Deadline* deadline = new Deadline();
  return *deadline;
}

void Deadline::SetPhaseBudgetForTest(double seconds) {
  g_budget_seconds.store(seconds, std::memory_order_relaxed);
}

double Deadline::phase_budget() const {
  return g_budget_seconds.load(std::memory_order_relaxed);
}

void Deadline::BeginPhase(const char* name) {
  g_phase_start_ns.store(NowNanos(), std::memory_order_relaxed);
  // Phase boundaries double as resource-accounting boundaries: opening a
  // phase closes the previous one, so the run report's per-phase CPU /
  // fault / I/O deltas partition the run exactly like the deadline phases.
  obs::BeginPhaseResources(name);
}

double Deadline::PhaseElapsedSeconds() const {
  const int64_t start = g_phase_start_ns.load(std::memory_order_relaxed);
  if (start == 0) return 0.0;
  return static_cast<double>(NowNanos() - start) * 1e-9;
}

bool Deadline::Expired() const {
  const double budget = phase_budget();
  return budget > 0 && PhaseElapsedSeconds() > budget;
}

DeadlinePhase::DeadlinePhase(const char* name) {
  if (InParallelRegion()) return;
  Deadline::Global().BeginPhase(name);
}

void HandleDeadlineExpiry(const char* phase) {
  static obs::Counter& expired =
      obs::Registry::Get().GetCounter(obs::kDeadlineExpired);
  expired.Increment();
  if (DeadlineHandler handler =
          g_test_handler.load(std::memory_order_acquire)) {
    handler(phase);
    return;
  }
  Deadline& deadline = Deadline::Global();
  LogError("phase '%s' exceeded its %.1fs deadline after %.1fs; exiting "
           "with code %d (resumable)",
           phase, deadline.phase_budget(), deadline.PhaseElapsedSeconds(),
           kDeadlineExitCode);
  obs::SetRunExitCause(std::string("deadline:") + phase);
  // std::exit (not _exit) so atexit hooks run: the bench harness flushes
  // the run report and the trace with the recorded cause.
  std::exit(kDeadlineExitCode);
}

bool PhaseCheck(const char* phase) {
  if (InParallelRegion()) return false;
  FaultInjector& faults = FaultInjector::Get();
  int64_t stall_ms = 0;
  if (faults.ShouldFail(FaultKind::kStall, &stall_ms)) {
    LogWarning("stalling %lld ms at phase boundary '%s' (injected)",
               static_cast<long long>(stall_ms), phase);
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  if (faults.ShouldFail(FaultKind::kCrash)) {
    LogError("crashing at phase boundary '%s' (injected)", phase);
    std::abort();
  }
  return Deadline::Global().Expired();
}

void PhaseBoundary(const char* phase) {
  if (PhaseCheck(phase)) HandleDeadlineExpiry(phase);
}

void SetDeadlineHandlerForTest(DeadlineHandler handler) {
  g_test_handler.store(handler, std::memory_order_release);
}

}  // namespace kgc
