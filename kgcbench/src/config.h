// Every setting of the benchmark's workloads, defined once. The binary's
// subcommands take only the inputs that vary between runs (--seed,
// --seconds, --trace, and for serve-load --mode and --search-s); the
// provenance subcommand prints everything here, and run.py reads the values
// it needs from that output. kgcbench/README.md explains where each value
// comes from.

#ifndef KGCBENCH_SRC_CONFIG_H_
#define KGCBENCH_SRC_CONFIG_H_

#include <cstdint>

namespace kgcbench::config {

// --- Paper workload --------------------------------------------------------

/// ExperimentOptions::epoch_scale of paper_warm's set-up (the cold Figure 1
/// path) and timed part: every lineup model trains its minimum of one
/// epoch, so the cold path fits a run.
inline constexpr double kEpochScale = 0.01;

// --- Serving workloads -----------------------------------------------------

inline constexpr int64_t kScaleEntities = 10000;  ///< the scale:10000 preset
/// Generation 0's training epochs: kgc_serve's --bootstrap-epochs default.
inline constexpr int kBootstrapEpochs = 6;
/// Share of the streamed train split held back from generation 0 and
/// published in rotations, and the number of equal batches it is cut into:
/// the four rotations a 10 s run has room for, of 1.25% of train each.
/// Batches this small ingest in well under the cadence (README.md).
inline constexpr double kHoldout = 0.05;
inline constexpr int kRotationBatches = 4;
/// Training epochs per rotated batch. One epoch runs the whole ingest path
/// (validate, dedup, warm-start train, audit, gate, publish) at the least
/// training cost, so an ingest ends well within the cadence.
inline constexpr int kIngestEpochs = 1;
/// One publication every cadence from the start of the nominal phase.
inline constexpr double kRotationCadenceS = 2.0;

/// Offered rate of the nominal phase (seeded Poisson arrivals). It is the
/// throughput the shipped kgc_load client reached against kgc_serve at
/// their defaults (four closed-loop connections) on the reference host.
inline constexpr double kNominalRate = 720.0;
/// Warm-up at the nominal rate before the nominal phase: the server's
/// first batch of generation 0 prepares it (load, threshold fit).
inline constexpr double kWarmupS = 0.5;
/// Share of serve_steady's --seconds spent on the capacity search.
inline constexpr double kSearchShare = 0.5;
inline constexpr double kSearchStartRate = 1500.0;
inline constexpr double kSearchMaxRate = 16000.0;
/// A search rung meets the limit if every request is answered OK, p99 (with
/// ten samples beyond it) is within this, and no backlog grows.
inline constexpr double kP99LimitMs = 50.0;
inline constexpr int kConnections = 2;
/// Serving set-ups per run; setup_s is their median.
inline constexpr int kServeSetups = 5;
/// A run whose generator sends later than this is invalid, not fast.
inline constexpr double kLateP50LimitMs = 1.0;
inline constexpr double kLateP99LimitMs = 100.0;

// --- Seeds derived from the benchmark seed ----------------------------------

inline uint64_t PaperTrainSeed(uint64_t seed) { return seed * 7919 + 13; }
inline uint64_t ScheduleSeed(uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL + 17;
}
inline uint64_t ArrivalSeed(uint64_t seed) {
  return seed * 0x2545f4914f6cdd1dULL + 29;
}

}  // namespace kgcbench::config

#endif  // KGCBENCH_SRC_CONFIG_H_
