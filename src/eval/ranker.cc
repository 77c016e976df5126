#include "eval/ranker.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

// Computes tie-averaged raw and filtered rank of `true_entity`. The sweep
// over the score array counts, without a branch, the candidates scoring
// above and equal to the true entity; the walk of the known-correct list
// then counts the known facts among them. A candidate listed twice is
// counted twice, so a fact the filter store holds twice is filtered twice.
void ComputeRank(std::span<const float> scores, EntityId true_entity,
                 std::span<const EntityId> known_correct, double* raw,
                 double* filtered) {
  const float s_true = scores[static_cast<size_t>(true_entity)];
  size_t greater = 0;
  size_t equal = 0;
  for (const float s : scores) {
    greater += s > s_true ? 1 : 0;
    equal += s == s_true ? 1 : 0;
  }
  size_t greater_known = 0;
  size_t equal_known = 0;
  for (EntityId e : known_correct) {
    if (e == true_entity) continue;
    const float s = scores[static_cast<size_t>(e)];
    greater_known += s > s_true ? 1 : 0;
    equal_known += s == s_true ? 1 : 0;
  }
  KGC_DCHECK(equal >= 1);  // the true entity itself
  equal -= 1;

  *raw = static_cast<double>(greater) + static_cast<double>(equal) / 2.0 + 1.0;
  *filtered = static_cast<double>(greater - greater_known) +
              static_cast<double>(equal - equal_known) / 2.0 + 1.0;
}

}  // namespace

std::vector<std::vector<TripleRanks>> RankTriples(
    std::span<const LinkPredictor* const> predictors, const Dataset& dataset,
    const TripleList& test, const RankerOptions& options) {
  const TripleStore& filter =
      options.filter != nullptr ? *options.filter : dataset.all_store();
  const size_t num_entities = static_cast<size_t>(dataset.num_entities());
  std::string names;
  for (const LinkPredictor* predictor : predictors) {
    KGC_CHECK_EQ(predictor->num_entities(), dataset.num_entities());
    if (!names.empty()) names += ',';
    names += predictor->name();
  }

  DeadlinePhase deadline_phase("rank");
  obs::TraceSpan sweep_span("rank_triples");
  sweep_span.AddArgInt("triples", static_cast<long long>(test.size()));
  sweep_span.AddArgStr("predictors", names.c_str());
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
  sweeps.Add(predictors.size());

  std::vector<std::vector<TripleRanks>> results(
      predictors.size(), std::vector<TripleRanks>(test.size()));

  // One pass per candidate direction. Each pass sorts the test triples by
  // (relation, anchor) — the anchor is the entity kept fixed by the query —
  // so every triple sharing a ScoreTails/ScoreHeads query lands in one
  // contiguous group, and relation runs stay contiguous for per-relation
  // model caches (TransR). Sharding happens at *group* granularity: a group
  // is never split across shards, so the hit/miss/eval tallies are a pure
  // function of the test list, bit-identical for any thread count. Each
  // shard ranks its groups under every predictor in turn, which keeps one
  // model's parameters hot at a time and the shards equally loaded.
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
    const size_t num_groups = group_start.size() - 1;

    ParallelFor(num_groups, options.threads,
                [&](size_t gbegin, size_t gend, int /*shard*/) {
      Stopwatch shard_watch;
      std::vector<float> scores(num_entities);
      size_t evals = 0;
      size_t hits = 0;
      size_t misses = 0;
      size_t ranked = 0;
      for (size_t p = 0; p < predictors.size(); ++p) {
        const LinkPredictor& predictor = *predictors[p];
        std::vector<TripleRanks>& table = results[p];
        for (size_t g = gbegin; g < gend; ++g) {
          const size_t first = group_start[g];
          const size_t last = group_start[g + 1];
          // The known-correct adjacency is keyed by the group's (relation,
          // anchor), so it is constant across the group.
          const Triple& lead = test[order[first]];
          const std::span<const EntityId> known =
              tails ? filter.Tails(lead.head, lead.relation)
                    : filter.Heads(lead.relation, lead.tail);
          for (size_t i = first; i < last; ++i) {
            const size_t idx = order[i];
            const Triple& triple = test[idx];
            // The first triple of a group fills the score buffer; later
            // ones reuse it (a cache hit).
            if (i == first) {
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
            TripleRanks& out = table[idx];
            if (tails) {
              out.triple = triple;
              ComputeRank(scores, triple.tail, known, &out.tail_raw,
                          &out.tail_filtered);
            } else {
              ComputeRank(scores, triple.head, known, &out.head_raw,
                          &out.head_filtered);
            }
            ++ranked;
          }
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

std::vector<TripleRanks> RankTriples(const LinkPredictor& predictor,
                                     const Dataset& dataset,
                                     const TripleList& test,
                                     const RankerOptions& options) {
  const LinkPredictor* const one[] = {&predictor};
  return std::move(RankTriples(one, dataset, test, options).front());
}

LinkPredictionMetrics EvaluatePredictor(const LinkPredictor& predictor,
                                        const Dataset& dataset,
                                        const RankerOptions& options) {
  return ComputeMetrics(
      RankTriples(predictor, dataset, dataset.test(), options));
}

}  // namespace kgc
