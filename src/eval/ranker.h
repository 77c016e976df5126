// Link-prediction ranking protocol (paper §3.2).
//
// For each test triple (h, r, t) the head is replaced by every entity and
// the candidates are ordered by model score; rank_h is the position of the
// true head (tie-averaged). Same for the tail. Filtered ranks ignore
// corrupted candidates that are themselves known facts (by default: any
// triple in train/valid/test; Table-3 experiments pass the synthetic world
// graph instead to emulate scoring against the full Freebase snapshot).
//
// A paper table ranks every model of its lineup on the same test split, so
// RankTriples takes the whole list of predictors and ranks them in one
// sharded sweep (ExperimentContext::WarmRanks makes exactly one such call).

#ifndef KGC_EVAL_RANKER_H_
#define KGC_EVAL_RANKER_H_

#include <span>
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
};

/// Ranks every triple of `test` under each of `predictors` in one sweep and
/// returns one table per predictor, each aligned with the order of `test`.
/// The sweep runs in two passes (tail candidates, then head candidates),
/// each sorted by (relation, anchor entity) so that triples sharing a query
/// are adjacent and per-relation model caches (TransR) amortize their
/// projections. Work is statically sharded across threads at query-group
/// granularity — a group is never split — and every shard ranks its groups
/// under every predictor, so shards stay balanced however much the
/// predictors' costs differ. Each unique (head, relation) /
/// (relation, tail) query is scored once, and every test triple that shares
/// it reuses that sweep. An embedding model's sweep is a float pre-pass that
/// bounds every candidate's score; only candidates whose bound cannot place
/// them against the true score are scored exactly, and the ranks equal the
/// exact sweep's bit for bit. Ranks *and* all telemetry counters
/// (score_evals, exact_rescores, query_cache_hits/misses) are bit-identical
/// for any thread count and to one single-predictor call each.
/// A known fact is filtered out once, however often the filter store holds
/// it, so a filtered rank is never worse than the raw one.
std::vector<std::vector<TripleRanks>> RankTriples(
    std::span<const LinkPredictor* const> predictors, const Dataset& dataset,
    const TripleList& test, const RankerOptions& options = {});

/// One-predictor form of the sweep above.
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
