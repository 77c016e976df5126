// Top-K retrieval engine implementation. See topk.h for the contract and
// DESIGN.md "Top-K retrieval" for the blocking scheme.

#include "eval/topk.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "kg/triple.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

// Per-shard counter tallies, merged into the obs registry after the join.
// Each (direction, relation) group is processed whole by exactly one shard,
// so every group's contribution is a pure function of the queries and the
// model, and the merged totals are thread-count independent.
struct Tally {
  uint64_t entities_scored = 0;
  uint64_t heap_pushes = 0;
  uint64_t queries_batched = 0;
};

// The engine-wide strict total order: higher score wins, entity id breaks
// ties. Makes every top-K set unique, hence order- and thread-independent.
inline bool Better(float score_a, EntityId a, float score_b, EntityId b) {
  return score_a > score_b || (score_a == score_b && a < b);
}

// K-bounded selection heap. std::push_heap with `Better` as the comparator
// builds a heap whose root is the comparator-maximum — the entry that is
// better than none of the others, i.e. the WORST kept entry — which is
// exactly the eviction candidate.
class BoundedHeap {
 public:
  explicit BoundedHeap(size_t k) : k_(k) { entries_.reserve(k); }

  /// True when (score, e) would enter the heap right now. Checked before
  /// the known-fact lookup, so a candidate that cannot enter skips it.
  bool WouldAccept(float score, EntityId e) const {
    if (entries_.size() < k_) return true;
    const TopKEntry& worst = entries_.front();
    return Better(score, e, worst.score, worst.entity);
  }

  /// Keeps (score, e) if it belongs in the top k seen so far; returns
  /// whether it was kept. The final contents are the k best entries pushed,
  /// independent of push order (the order is a strict total order).
  bool Push(float score, EntityId e) {
    if (entries_.size() < k_) {
      entries_.push_back({score, e});
      std::push_heap(entries_.begin(), entries_.end(), WorstAtTop);
      return true;
    }
    const TopKEntry& worst = entries_.front();
    if (!Better(score, e, worst.score, worst.entity)) return false;
    std::pop_heap(entries_.begin(), entries_.end(), WorstAtTop);
    entries_.back() = {score, e};
    std::push_heap(entries_.begin(), entries_.end(), WorstAtTop);
    return true;
  }

  std::vector<TopKEntry> Sorted() && {
    std::sort(entries_.begin(), entries_.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                return Better(a.score, a.entity, b.score, b.entity);
              });
    return std::move(entries_);
  }

 private:
  static bool WorstAtTop(const TopKEntry& a, const TopKEntry& b) {
    return Better(a.score, a.entity, b.score, b.entity);
  }

  size_t k_;
  std::vector<TopKEntry> entries_;
};

// Dispatches one blocked kernel call. `coef` must already be sliced to
// `rows`.
void SweepBlock(const vec::KernelOps& ops, SweepKind kind, const float* qs,
                size_t q_stride, size_t num_q, const float* v,
                const float* coef, float coef_scale, const float* rows,
                size_t num_rows, size_t stride, size_t dim, float* out,
                size_t out_stride) {
  switch (kind) {
    case SweepKind::kDot:
      ops.dot_rows_block(qs, q_stride, num_q, rows, num_rows, stride, dim,
                         out, out_stride);
      break;
    case SweepKind::kL1:
      ops.l1_rows_block(qs, q_stride, num_q, rows, num_rows, stride, dim, out,
                        out_stride);
      break;
    case SweepKind::kL2:
      ops.l2_rows_block(qs, q_stride, num_q, rows, num_rows, stride, dim, out,
                        out_stride);
      break;
    case SweepKind::kL1Offset:
      ops.l1_offset_rows_block(qs, q_stride, num_q, v, coef, coef_scale, rows,
                               num_rows, stride, dim, out, out_stride);
      break;
    case SweepKind::kL2Offset:
      ops.l2_offset_rows_block(qs, q_stride, num_q, v, coef, coef_scale, rows,
                               num_rows, stride, dim, out, out_stride);
      break;
    case SweepKind::kCabs:
      ops.cabs_rows_block(qs, q_stride, num_q, rows, num_rows, stride, dim,
                          out, out_stride);
      break;
  }
}

// Full Score* sweep with heap selection: the oracle and the cross-check
// reference.
TopKResult FullSweepTopK(const LinkPredictor& predictor,
                         const TopKQuery& query, int k,
                         const TripleStore* filter) {
  const size_t n = static_cast<size_t>(predictor.num_entities());
  const size_t kk = static_cast<size_t>(k);
  std::vector<float> scores(n);
  if (query.tails) {
    predictor.ScoreTails(query.anchor, query.relation, scores);
  } else {
    predictor.ScoreHeads(query.relation, query.anchor, scores);
  }
  TopKResult result;
  BoundedHeap raw(kk);
  for (size_t e = 0; e < n; ++e) {
    raw.Push(scores[e], static_cast<EntityId>(e));
  }
  if (filter != nullptr) {
    // Hash probes, not the CSR spans the engine reads, so the two filter
    // by independent paths.
    BoundedHeap filt(kk);
    for (size_t e = 0; e < n; ++e) {
      const EntityId ent = static_cast<EntityId>(e);
      if (!filt.WouldAccept(scores[e], ent)) continue;
      const bool known =
          query.tails ? filter->Contains(query.anchor, query.relation, ent)
                      : filter->Contains(ent, query.relation, query.anchor);
      if (!known) filt.Push(scores[e], ent);
    }
    result.filtered = std::move(filt).Sorted();
  }
  result.raw = std::move(raw).Sorted();
  if (filter == nullptr) result.filtered = result.raw;
  return result;
}

inline uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

void CheckEntriesEqual(const std::vector<TopKEntry>& fast,
                       const std::vector<TopKEntry>& oracle) {
  KGC_CHECK_EQ(fast.size(), oracle.size());
  for (size_t j = 0; j < fast.size(); ++j) {
    KGC_CHECK_EQ(fast[j].entity, oracle[j].entity);
    KGC_CHECK_EQ(Bits(fast[j].score), Bits(oracle[j].score));
  }
}

void CheckAgainstOracle(const LinkPredictor& predictor,
                        const TopKQuery& query, int k,
                        const TripleStore* filter, const TopKResult& fast) {
  const TopKResult oracle = FullSweepTopK(predictor, query, k, filter);
  CheckEntriesEqual(fast.raw, oracle.raw);
  CheckEntriesEqual(fast.filtered, oracle.filtered);
}

// Processes whole (direction, relation) groups on one shard. All per-group
// buffers live here and are reused across the shard's groups.
class GroupRunner {
 public:
  GroupRunner(const KgeModel& model, const TopKOptions& options,
              std::span<const TopKQuery> queries, const TripleStore* filter,
              std::vector<TopKResult>* results, Tally* tally)
      : model_(model),
        options_(options),
        queries_(queries),
        filter_(filter),
        results_(results),
        tally_(tally) {}

  void ProcessGroup(const size_t* order, size_t count) {
    count_ = count;
    const TopKQuery& first = queries_[order[0]];
    tails_ = first.tails;
    relation_ = first.relation;
    SweepSpec spec;
    model_.DescribeSweep(tails_, relation_, &spec);
    const size_t qlen = spec.query_len;
    const size_t kk = static_cast<size_t>(options_.k);
    // coef/v may alias model scratch that lives only until the model's
    // next DescribeSweep/Score* call on this thread (the cross-check below
    // makes one) — copy them up front. rows/bias alias table storage that
    // stays put for the whole group (for TransR, a thread-local buffer this
    // thread keeps pointed at this relation).
    coef_.clear();
    if (spec.coef) coef_.assign(spec.coef, spec.coef + spec.num_rows);
    v_.clear();
    if (spec.v) v_.assign(spec.v, spec.v + spec.dim);
    const float* v = spec.v ? v_.data() : nullptr;
    const float* coef = spec.coef ? coef_.data() : nullptr;

    qbuf_.resize(count * qlen);
    for (size_t i = 0; i < count; ++i) {
      model_.BuildSweepQuery(
          tails_, relation_, queries_[order[i]].anchor,
          std::span<float>(qbuf_.data() + i * qlen, qlen));
    }
    tally_->queries_batched += count;

    std::vector<BoundedHeap> raw(count, BoundedHeap(kk));
    std::vector<BoundedHeap> filt;
    if (filter_) {
      // Each query's known facts, looked up once: the sorted CSR span
      // ranking filters through.
      filt.assign(count, BoundedHeap(kk));
      known_.resize(count);
      for (size_t i = 0; i < count; ++i) {
        const EntityId anchor = queries_[order[i]].anchor;
        known_[i] = tails_ ? filter_->Tails(anchor, relation_)
                           : filter_->Heads(relation_, anchor);
      }
    }
    SweepTiles(spec, v, coef, raw, filt);

    for (size_t i = 0; i < count; ++i) {
      TopKResult& result = (*results_)[order[i]];
      result.raw = std::move(raw[i]).Sorted();
      result.filtered = filter_ ? std::move(filt[i]).Sorted() : result.raw;
    }
    if (options_.cross_check) {
      for (size_t i = 0; i < count; ++i) {
        CheckAgainstOracle(model_, queries_[order[i]], options_.k,
                           filter_, (*results_)[order[i]]);
      }
    }
  }

 private:
  // Scans one tile's kernel output for the block of `num_q` queries that
  // starts at group-local index `q0`; the tile holds entities
  // [tile_base, tile_base + tile_n).
  void ScanTile(const SweepSpec& spec, size_t q0, size_t num_q,
                const float* out, size_t tile_n, size_t tile_base,
                std::vector<BoundedHeap>& raw,
                std::vector<BoundedHeap>& filt) {
    for (size_t a = 0; a < num_q; ++a) {
      const size_t q = q0 + a;
      const float* row = out + a * tile_n;
      for (size_t i = 0; i < tile_n; ++i) {
        const EntityId ent = static_cast<EntityId>(tile_base + i);
        float score = row[i];
        if (spec.bias) score += spec.bias[ent];
        if (spec.negate) score = -score;
        if (raw[q].Push(score, ent)) ++tally_->heap_pushes;
        if (filter_ && filt[q].WouldAccept(score, ent) &&
            !std::binary_search(known_[q].begin(), known_[q].end(), ent)) {
          filt[q].Push(score, ent);
          ++tally_->heap_pushes;
        }
      }
    }
    tally_->entities_scored += num_q * tile_n;
  }

  // Blocked sweep: each block of up to query_block queries is scored
  // against every tile of the candidate table in natural order.
  void SweepTiles(const SweepSpec& spec, const float* v, const float* coef,
                  std::vector<BoundedHeap>& raw,
                  std::vector<BoundedHeap>& filt) {
    const size_t qlen = spec.query_len;
    const size_t tile_rows = static_cast<size_t>(options_.tile_rows);
    const size_t query_block = static_cast<size_t>(options_.query_block);
    out_.resize(query_block * tile_rows);
    const auto& ops = vec::Ops();
    for (size_t qb = 0; qb < count_; qb += query_block) {
      const size_t bq = std::min(query_block, count_ - qb);
      for (size_t base = 0; base < spec.num_rows; base += tile_rows) {
        const size_t tile_n = std::min(tile_rows, spec.num_rows - base);
        SweepBlock(ops, spec.kind, qbuf_.data() + qb * qlen, qlen, bq, v,
                   coef ? coef + base : nullptr, spec.coef_scale,
                   spec.rows + base * spec.stride, tile_n, spec.stride,
                   spec.dim, out_.data(), tile_n);
        ScanTile(spec, qb, bq, out_.data(), tile_n, base, raw, filt);
      }
    }
  }

  const KgeModel& model_;
  const TopKOptions& options_;
  std::span<const TopKQuery> queries_;
  const TripleStore* filter_;
  std::vector<TopKResult>* results_;
  Tally* tally_;

  // Per-group state.
  size_t count_ = 0;
  bool tails_ = true;
  RelationId relation_ = 0;
  std::vector<float> coef_;
  std::vector<float> v_;
  std::vector<float> qbuf_;
  std::vector<float> out_;
  std::vector<std::span<const EntityId>> known_;
};

}  // namespace

TopKEngine::TopKEngine(const KgeModel& model, const TopKOptions& options)
    : model_(model), options_(options) {
  KGC_CHECK_GT(options_.k, 0);
  KGC_CHECK_GT(options_.query_block, 0);
  KGC_CHECK_GT(options_.tile_rows, 0);
}

std::vector<TopKResult> TopKEngine::Run(std::span<const TopKQuery> queries,
                                        const TripleStore* filter) const {
  obs::TraceSpan span("topk.run");
  std::vector<TopKResult> results(queries.size());
  if (queries.empty()) return results;

  // Same-(direction, relation) queries share one sweep description and one
  // set of blocked kernel calls, so adjacency is the whole game. The sort
  // is stable and groups are sharded whole, which keeps results and
  // counters bit-identical across thread counts.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (queries[a].tails != queries[b].tails) {
      return queries[a].tails && !queries[b].tails;
    }
    return queries[a].relation < queries[b].relation;
  });
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin + 1;
    while (end < order.size() &&
           queries[order[end]].tails == queries[order[begin]].tails &&
           queries[order[end]].relation == queries[order[begin]].relation) {
      ++end;
    }
    groups.emplace_back(begin, end);
    begin = end;
  }

  const int planned = PlannedShards(groups.size(), options_.threads);
  std::vector<Tally> tallies(static_cast<size_t>(std::max(planned, 1)));
  ParallelFor(groups.size(), options_.threads,
              [&](size_t gbegin, size_t gend, int shard) {
                GroupRunner runner(model_, options_, queries, filter,
                                   &results,
                                   &tallies[static_cast<size_t>(shard)]);
                for (size_t g = gbegin; g < gend; ++g) {
                  runner.ProcessGroup(order.data() + groups[g].first,
                                      groups[g].second - groups[g].first);
                }
              });

  Tally total;
  for (const Tally& t : tallies) {
    total.entities_scored += t.entities_scored;
    total.heap_pushes += t.heap_pushes;
    total.queries_batched += t.queries_batched;
  }
  static obs::Counter& entities_scored =
      obs::Registry::Get().GetCounter(obs::kTopKEntitiesScored);
  static obs::Counter& heap_pushes =
      obs::Registry::Get().GetCounter(obs::kTopKHeapPushes);
  static obs::Counter& queries_batched =
      obs::Registry::Get().GetCounter(obs::kTopKQueriesBatched);
  entities_scored.Add(total.entities_scored);
  heap_pushes.Add(total.heap_pushes);
  queries_batched.Add(total.queries_batched);
  return results;
}

TopKResult TopKEngine::OracleTopK(const LinkPredictor& predictor,
                                  const TopKQuery& query, int k,
                                  const TripleStore* filter) {
  KGC_CHECK_GT(k, 0);
  return FullSweepTopK(predictor, query, k, filter);
}

}  // namespace kgc
