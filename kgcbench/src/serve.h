// The serving workloads' schedule, per-request outcomes, phase statistics
// and reply oracle, shared with the self-test.

#ifndef KGCBENCH_SRC_SERVE_H_
#define KGCBENCH_SRC_SERVE_H_

#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "kg/dataset.h"
#include "serve/protocol.h"
#include "snapshot/snapshot_registry.h"
#include "util/rng.h"

namespace kgcbench {

inline constexpr uint32_t kTopK = 10;

// Per-request outcome codes beyond the wire statuses.
inline constexpr int kUnanswered = -1;
inline constexpr int kTransportError = -2;

struct Phase {
  std::string name;
  double rate = 0.0;
  double start = 0.0;  ///< offset from the schedule origin
  double end = 0.0;
  size_t first = 0;    ///< index of its first request
  size_t count = 0;
};

/// The request schedule: intended send times are offsets from the moment
/// sending starts.
struct Schedule {
  std::vector<Phase> phases;
  std::vector<kgc::serve::Request> requests;
  std::vector<double> due;
};

/// What happened to each scheduled request. While the load runs, the
/// receiver writes done/status/generation/crc under `mutex` and the sender
/// reads them under it to judge capacity-search rungs.
struct Outcomes {
  explicit Outcomes(size_t n)
      : sent(n, -1.0), send_failed(n, 0), done(n, -1.0),
        status(n, kUnanswered), generation(n, -1), crc(n, 0), verified(n, 0) {}
  std::vector<double> sent;
  std::vector<int> send_failed;  ///< written by the sender only
  std::vector<double> done;
  std::vector<int> status;  ///< written by the receiver only
  std::vector<int64_t> generation;
  std::vector<uint32_t> crc;
  std::vector<int> verified;  ///< 1 matched, -1 mismatched or unverifiable
  std::mutex mutex;
};

/// Nearest-rank q-quantile of ascending `sorted` (non-empty).
double Quantile(const std::vector<double>& sorted, double q);
/// Samples strictly above the nearest-rank q-quantile of n samples. A tail
/// percentile is reported only with at least ten beyond it.
size_t SamplesBeyond(size_t n, double q);

/// Latency, failures and lateness of one phase: the only place a phase is
/// judged. Latency is timed from each request's intended send time. A
/// request fails if it is unanswered or not OK, and, once the oracle has
/// run (`after_oracle`), if its reply did not verify; failures count as
/// infinitely late in the percentiles.
struct PhaseStats {
  size_t count = 0;
  size_t ok = 0;
  size_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t p99_beyond = 0;  ///< samples above p99
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
  double wall_s = 0.0;   ///< phase start to its last reply
  double goodput = 0.0;  ///< good replies per second of phase
  /// The last quarter's median latency exceeds the first quarter's by more
  /// than half the p99 limit.
  bool backlog = false;
  /// No failure, p99 within the limit with ten samples beyond, no backlog.
  bool meets_limit = false;
};
PhaseStats ComputePhaseStats(const Phase& phase, const std::vector<double>& due,
                             const Outcomes& outcomes, bool after_oracle);

/// Per-generation result of the reply oracle.
struct GenerationCheck {
  int64_t generation = -1;
  bool loaded = false;
  double load_s = 0.0;
  double fit_s = 0.0;
  size_t replies = 0;
  size_t mismatches = 0;
  double first_reply = -1.0;  ///< offset of its first OK reply
};

/// Draws one request from `dataset`'s test split.
kgc::serve::Request DrawRequest(const kgc::Dataset& dataset, kgc::Rng& rng);

/// Recomputes the expected reply body of every OK reply from the generation
/// that answered it, as kgc_load does (TopKEngine, then
/// FitClassificationThresholds with ClassifyTriples), and marks each reply
/// verified (1) or not (-1): a body whose CRC differs, or whose generation
/// cannot be loaded, is unverified.
std::vector<GenerationCheck> VerifyReplies(
    const kgc::SnapshotRegistry& registry, const Schedule& schedule,
    Outcomes& outcomes);

}  // namespace kgcbench

#endif  // KGCBENCH_SRC_SERVE_H_
