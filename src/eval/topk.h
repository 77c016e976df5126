// Top-K retrieval fast path (DESIGN.md "Top-K retrieval").
//
// Answers "which K entities score best for this query" without
// materializing the full score vector the ranking protocol sweeps. Two
// mechanisms stack:
//
//   1. Blocked multi-query sweeps — queries that share a (direction,
//      relation) group are scored in blocks against entity-table tiles
//      through the *_rows_block vecmath kernels, so each embedding row is
//      streamed through cache once per tile instead of once per query.
//   2. Bounded per-query heaps — a K-entry heap ordered by
//      (score desc, entity asc) replaces the full score vector; the
//      entity-id tie-break makes results a pure function of the model, so
//      they are bit-identical across KGC_THREADS and kernel paths.
//
// Every entity of the table is scored; DESIGN.md says why there is no
// pruning.
//
// The engine serves embedding models only: it reads the sweep contract
// (KgeModel::DescribeSweep / BuildSweepQuery, models/model.h) that
// ScoreTails/ScoreHeads run through, and has no other path. Every
// per-(query, row) score is produced by the same fixed-order kernel
// reduction as ScoreTails/ScoreHeads, so the fast path's top-K lists equal
// the truncated full ranking bit for bit; TopKOptions::cross_check asserts
// exactly that against the oracle inside Run. The oracle takes any
// LinkPredictor.

#ifndef KGC_EVAL_TOPK_H_
#define KGC_EVAL_TOPK_H_

#include <span>
#include <vector>

#include "kg/link_predictor.h"
#include "kg/triple_store.h"
#include "models/model.h"

namespace kgc {

struct TopKOptions {
  /// Entries kept per query (raw and filtered lists each).
  int k = 10;
  /// Assert fast top-K == oracle truncated ranking (lists and scores) for
  /// every query inside Run. Expensive: runs the full sweep.
  bool cross_check = false;
  /// Queries scored per blocked kernel call.
  int query_block = 8;
  /// Entity rows per tile.
  int tile_rows = 256;
  /// Worker threads (0 = KGC_THREADS / hardware default). Results and
  /// kgc.topk.* counters are bit-identical for any value.
  int threads = 0;
};

/// One retrieval query: rank candidate tails of (anchor, relation, ?) when
/// tails is set, else candidate heads of (?, relation, anchor).
struct TopKQuery {
  bool tails = true;
  RelationId relation = 0;
  EntityId anchor = 0;
};

struct TopKEntry {
  float score = 0.0f;
  EntityId entity = 0;
};

struct TopKResult {
  /// Best-first (score desc, entity asc), at most K entries.
  std::vector<TopKEntry> raw;
  /// Same, excluding entities that complete a known triple in the filter
  /// store. Equals `raw` when Run was given no filter.
  std::vector<TopKEntry> filtered;
};

class TopKEngine {
 public:
  TopKEngine(const KgeModel& model, const TopKOptions& options);

  /// Retrieves top-K for every query. `filter` may be null (filtered lists
  /// then mirror the raw lists). Queries are grouped by (direction,
  /// relation) and groups are sharded whole across threads, so results and
  /// counters never depend on the thread count.
  std::vector<TopKResult> Run(std::span<const TopKQuery> queries,
                              const TripleStore* filter) const;

  /// Full-ranking oracle: ScoreTails/ScoreHeads over every entity, sorted
  /// by (score desc, entity asc), truncated to k. The reference Run must
  /// match bit for bit.
  static TopKResult OracleTopK(const LinkPredictor& predictor,
                               const TopKQuery& query, int k,
                               const TripleStore* filter);

 private:
  const KgeModel& model_;
  TopKOptions options_;
};

}  // namespace kgc

#endif  // KGC_EVAL_TOPK_H_
