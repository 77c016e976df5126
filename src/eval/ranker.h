// Link-prediction ranking protocol (paper §3.2).
//
// For each test triple (h, r, t) the head is replaced by every entity and
// the candidates are ordered by model score; rank_h is the position of the
// true head (tie-averaged). Same for the tail. Filtered ranks ignore
// corrupted candidates that are themselves known facts (by default: any
// triple in train/valid/test; Table-3 experiments pass the synthetic world
// graph instead to emulate scoring against the full Freebase snapshot).

#ifndef KGC_EVAL_RANKER_H_
#define KGC_EVAL_RANKER_H_

#include <vector>

#include "eval/metrics.h"
#include "kg/dataset.h"
#include "kg/link_predictor.h"

namespace kgc {

struct RankerOptions {
  /// Store used to filter known facts; if null, dataset.all_store() is used.
  const TripleStore* filter = nullptr;
  /// Worker threads for the ranking sweep (0 = KGC_THREADS / hardware
  /// default; see util/parallel.h). Results are bit-identical for any value.
  int threads = 0;
  /// Score each unique (head, relation) / (relation, tail) query once and
  /// reuse the score buffer for every test triple that shares it. Ranks are
  /// bit-identical with dedup on or off — the reused buffer is the same one
  /// a fresh sweep would produce — so this only trades memory locality for
  /// skipped sweeps on duplicate-heavy test sets.
  bool dedup_queries = true;
  /// Resolve the filtered rank by batch-probing the filter store's flat
  /// membership set for the candidates that outscore (or tie) the true
  /// entity, instead of marking the known-correct list in an
  /// entities-sized scratch array. At million-entity scale this keeps the
  /// sweep out of a second multi-megabyte array and overlaps the probe
  /// cache misses via software prefetch. Ranks are bit-identical on or off:
  /// the probe path only runs when the candidate list is duplicate-free
  /// (duplicate known facts must count multiply, which only marking does)
  /// and small enough; otherwise the triple falls back to marking.
  bool probe_filter = true;
};

/// Ranks every triple of `test` under `predictor`. Results align with the
/// order of `test`. The sweep runs in two passes (tail candidates, then head
/// candidates), each sorted by (relation, anchor entity) so that triples
/// sharing a query are adjacent and per-relation model caches (TransR)
/// amortize their projections. Work is statically sharded across threads at
/// query-group granularity — a group is never split — so ranks *and* all
/// telemetry counters (score_evals, query_cache_hits/misses) are
/// bit-identical for any thread count and for dedup on vs off.
std::vector<TripleRanks> RankTriples(const LinkPredictor& predictor,
                                     const Dataset& dataset,
                                     const TripleList& test,
                                     const RankerOptions& options = {});

/// Convenience: ranks the dataset's test split and pools the metrics.
LinkPredictionMetrics EvaluatePredictor(const LinkPredictor& predictor,
                                        const Dataset& dataset,
                                        const RankerOptions& options = {});

}  // namespace kgc

#endif  // KGC_EVAL_RANKER_H_
