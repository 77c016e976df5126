#include "eval/ranker.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

// Computes tie-averaged raw and filtered rank of `true_entity` in a single
// pass over the score array: the known-correct candidates are marked in
// `known_mark` (a num_entities-sized scratch counter array, all zero on
// entry) before the sweep, counted alongside the raw tallies during it, and
// unmarked afterwards so the scratch is clean for the next triple without a
// full O(num_entities) clear. Marks are occurrence counts, not booleans, so
// a candidate listed twice contributes twice — exactly as iterating the
// candidate list would.
void ComputeRank(std::span<const float> scores, EntityId true_entity,
                 std::span<const EntityId> known_correct,
                 std::vector<uint32_t>& known_mark, double* raw,
                 double* filtered) {
  const float s_true = scores[static_cast<size_t>(true_entity)];
  for (EntityId e : known_correct) {
    if (e != true_entity) ++known_mark[static_cast<size_t>(e)];
  }
  size_t greater = 0;
  size_t equal = 0;
  size_t greater_known = 0;
  size_t equal_known = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    const float s = scores[e];
    if (s > s_true) {
      ++greater;
      greater_known += known_mark[e];
    } else if (s == s_true) {
      ++equal;
      equal_known += known_mark[e];
    }
  }
  for (EntityId e : known_correct) {
    known_mark[static_cast<size_t>(e)] = 0;
  }
  KGC_DCHECK(equal >= 1);  // the true entity itself
  equal -= 1;

  *raw = static_cast<double>(greater) + static_cast<double>(equal) / 2.0 + 1.0;
  *filtered = static_cast<double>(greater - greater_known) +
              static_cast<double>(equal - equal_known) / 2.0 + 1.0;
}

// Per-shard scratch of the probe-based rank path.
struct ProbeScratch {
  std::vector<EntityId> candidates;
  std::vector<uint64_t> keys;
  std::vector<uint8_t> found;
};

// Whether an ascending-sorted adjacency span lists any entity twice (the
// store keeps duplicate facts; the marking path counts them multiply, so
// the probe path — which cannot — must stand down for such groups).
bool HasAdjacentDuplicates(std::span<const EntityId> sorted) {
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1]) return true;
  }
  return false;
}

// Probe-path rank: collect every candidate entity scoring >= s_true during
// the raw sweep, then resolve which of them are known facts with one
// prefetched batch probe against the filter store's flat membership set.
// Returns false (leaving outputs untouched) if the candidate list exceeds
// `candidate_cap` — degenerate all-tied score vectors would otherwise probe
// nearly every entity, where the marking sweep is cheaper. The bail
// decision depends only on the scores, never on the shard plan, so ranks
// and probe counters stay bit-identical for any thread count.
bool ComputeRankByProbe(std::span<const float> scores, EntityId true_entity,
                        const TripleStore& filter, const Triple& triple,
                        bool tails, size_t candidate_cap,
                        ProbeScratch& scratch, double* raw,
                        double* filtered) {
  const float s_true = scores[static_cast<size_t>(true_entity)];
  scratch.candidates.clear();
  size_t greater = 0;
  size_t equal = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    const float s = scores[e];
    if (s > s_true) {
      ++greater;
    } else if (s == s_true) {
      ++equal;
      if (static_cast<EntityId>(e) == true_entity) continue;
    } else {
      continue;
    }
    if (scratch.candidates.size() >= candidate_cap) return false;
    scratch.candidates.push_back(static_cast<EntityId>(e));
  }
  KGC_DCHECK(equal >= 1);  // the true entity itself
  equal -= 1;

  scratch.keys.clear();
  for (EntityId e : scratch.candidates) {
    scratch.keys.push_back(tails ? PackTriple(triple.head, triple.relation, e)
                                 : PackTriple(e, triple.relation,
                                              triple.tail));
  }
  scratch.found.resize(scratch.keys.size());
  filter.ContainsBatch(scratch.keys, scratch.found.data());

  size_t greater_known = 0;
  size_t equal_known = 0;
  for (size_t i = 0; i < scratch.candidates.size(); ++i) {
    if (!scratch.found[i]) continue;
    const float s = scores[static_cast<size_t>(scratch.candidates[i])];
    if (s > s_true) {
      ++greater_known;
    } else {
      ++equal_known;
    }
  }

  *raw = static_cast<double>(greater) + static_cast<double>(equal) / 2.0 + 1.0;
  *filtered = static_cast<double>(greater - greater_known) +
              static_cast<double>(equal - equal_known) / 2.0 + 1.0;
  return true;
}

}  // namespace

std::vector<TripleRanks> RankTriples(const LinkPredictor& predictor,
                                     const Dataset& dataset,
                                     const TripleList& test,
                                     const RankerOptions& options) {
  const TripleStore& filter =
      options.filter != nullptr ? *options.filter : dataset.all_store();
  const size_t num_entities = static_cast<size_t>(predictor.num_entities());
  KGC_CHECK_EQ(predictor.num_entities(), dataset.num_entities());

  DeadlinePhase deadline_phase("rank");
  obs::TraceSpan sweep_span("rank_triples");
  sweep_span.AddArgInt("triples", static_cast<long long>(test.size()));
  sweep_span.AddArgStr("predictor", predictor.name());
  // Telemetry handles resolved once; per-shard updates are a handful of
  // relaxed atomic adds, so the scoring loop itself stays untouched.
  static obs::Counter& sweeps =
      obs::Registry::Get().GetCounter(obs::kRankerSweeps);
  static obs::Counter& triples_ranked =
      obs::Registry::Get().GetCounter(obs::kRankerTriplesRanked);
  static obs::Counter& score_evals =
      obs::Registry::Get().GetCounter(obs::kRankerScoreEvals);
  static obs::Counter& query_hits =
      obs::Registry::Get().GetCounter(obs::kRankerQueryCacheHits);
  static obs::Counter& query_misses =
      obs::Registry::Get().GetCounter(obs::kRankerQueryCacheMisses);
  static obs::HdrHistogram& shard_seconds =
      obs::Registry::Get().GetDurationHistogram(obs::kRankerShardSeconds);
  sweeps.Increment();

  std::vector<TripleRanks> results(test.size());

  // One pass per candidate direction. Each pass sorts the test triples by
  // (relation, anchor) — the anchor is the entity kept fixed by the query —
  // so every triple sharing a ScoreTails/ScoreHeads query lands in one
  // contiguous group, and relation runs stay contiguous for per-relation
  // model caches (TransR). Sharding happens at *group* granularity: a group
  // is never split across shards, so the hit/miss/eval tallies are a pure
  // function of the test list, bit-identical for any thread count.
  const auto run_pass = [&](bool tails) {
    std::vector<size_t> order(test.size());
    std::iota(order.begin(), order.end(), size_t{0});
    const auto anchor = [&](size_t idx) {
      return tails ? test[idx].head : test[idx].tail;
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (test[a].relation != test[b].relation) {
        return test[a].relation < test[b].relation;
      }
      return anchor(a) < anchor(b);
    });

    // group g spans order[group_start[g], group_start[g + 1]).
    std::vector<size_t> group_start;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i == 0 || test[order[i]].relation != test[order[i - 1]].relation ||
          anchor(order[i]) != anchor(order[i - 1])) {
        group_start.push_back(i);
      }
    }
    group_start.push_back(order.size());
    const size_t num_groups = group_start.empty() ? 0 : group_start.size() - 1;

    // Degenerate score vectors (huge ties) would turn the probe path into a
    // probe of almost every entity; past this many candidates the marking
    // sweep is the cheaper resolution. Depends only on the entity count, so
    // the probe/mark decision is shard-plan independent.
    const size_t candidate_cap = std::max<size_t>(1024, num_entities / 16);

    ParallelFor(num_groups, options.threads,
                [&](size_t gbegin, size_t gend, int /*shard*/) {
      Stopwatch shard_watch;
      std::vector<float> scores(num_entities);
      std::vector<uint32_t> known_mark(num_entities, 0);
      ProbeScratch probe_scratch;
      size_t evals = 0;
      size_t hits = 0;
      size_t misses = 0;
      size_t ranked = 0;
      for (size_t g = gbegin; g < gend; ++g) {
        const size_t first = group_start[g];
        const size_t last = group_start[g + 1];
        // The known-correct adjacency is constant across the group (it is
        // keyed by the group's (relation, anchor)), as is whether the probe
        // path may serve it: duplicate known facts must count multiply
        // toward the filtered rank, which only the marking sweep does.
        const Triple& lead = test[order[first]];
        const std::span<const EntityId> known =
            tails ? filter.Tails(lead.head, lead.relation)
                  : filter.Heads(lead.relation, lead.tail);
        const bool probe_eligible =
            options.probe_filter && !HasAdjacentDuplicates(known);
        for (size_t i = first; i < last; ++i) {
          const size_t idx = order[i];
          const Triple& triple = test[idx];
          // The first triple of a group fills the score buffer; later ones
          // reuse it (a cache hit) unless dedup is off, in which case every
          // triple re-sweeps — producing the same bits either way.
          if (!options.dedup_queries || i == first) {
            if (tails) {
              predictor.ScoreTails(triple.head, triple.relation, scores);
            } else {
              predictor.ScoreHeads(triple.relation, triple.tail, scores);
            }
            evals += num_entities;
            ++misses;
          } else {
            ++hits;
          }
          TripleRanks& out = results[idx];
          const EntityId true_entity = tails ? triple.tail : triple.head;
          double* raw = tails ? &out.tail_raw : &out.head_raw;
          double* filtered = tails ? &out.tail_filtered : &out.head_filtered;
          if (tails) out.triple = triple;
          if (!probe_eligible ||
              !ComputeRankByProbe(scores, true_entity, filter, triple, tails,
                                  candidate_cap, probe_scratch, raw,
                                  filtered)) {
            ComputeRank(scores, true_entity, known, known_mark, raw,
                        filtered);
          }
          ++ranked;
        }
      }
      if (tails) triples_ranked.Add(ranked);
      score_evals.Add(evals);
      query_hits.Add(hits);
      query_misses.Add(misses);
      shard_seconds.Observe(shard_watch.ElapsedSeconds());
    });
  };
  // Each pass is a deadline boundary: an over-budget sweep exits between
  // the joined parallel passes, never inside one. Ranks are recomputed
  // from the cached model on retry, so there is nothing to checkpoint.
  run_pass(/*tails=*/true);
  PhaseBoundary("rank_pass");
  run_pass(/*tails=*/false);
  PhaseBoundary("rank_done");
  return results;
}

LinkPredictionMetrics EvaluatePredictor(const LinkPredictor& predictor,
                                        const Dataset& dataset,
                                        const RankerOptions& options) {
  return ComputeMetrics(
      RankTriples(predictor, dataset, dataset.test(), options));
}

}  // namespace kgc
