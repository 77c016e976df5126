#include "eval/ranker.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "models/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

// Tie-averaged raw and filtered rank of `truth`, whose exact score is t,
// from bounds lo[e] <= s(e) <= hi[e] on every candidate's exact score s(e),
// which exact(e) returns. One branch-free pass counts the candidates whose
// bound already lies above t and those it cannot place against t (the
// straddlers, the true entity among them); only when there are other
// straddlers does a second pass score them exactly. A predictor without
// bounds passes its scores as lo = hi, so its straddlers are its ties,
// counted as such without a second pass. Each
// distinct known fact is filtered once: the span is sorted, so a fact the
// store holds twice is listed twice in a row. A NaN t compares false with
// everything, itself included, so it takes its own branch, which reads
// lo = hi = the exact scores: the true entity ranks after every non-NaN
// candidate, tied with the other NaN ones.
template <typename Exact>
void CountRank(std::span<const float> lo, std::span<const float> hi,
               EntityId truth, float t, std::span<const EntityId> known,
               Exact&& exact, double* raw, double* filtered) {
  const size_t n = lo.size();
  const size_t true_index = static_cast<size_t>(truth);
  size_t greater = 0;
  size_t equal = 0;
  size_t greater_known = 0;
  size_t equal_known = 0;
  const auto for_each_known = [&](auto&& visit) {
    for (size_t k = 0; k < known.size(); ++k) {
      if (known[k] == truth || (k > 0 && known[k - 1] == known[k])) continue;
      visit(static_cast<size_t>(known[k]));
    }
  };
  if (std::isnan(t)) {
    for (const float s : lo) equal += std::isnan(s) ? 1 : 0;
    greater = n - equal;
    equal -= 1;  // the true entity itself
    for_each_known([&](size_t e) {
      const bool nan = std::isnan(lo[e]);
      greater_known += nan ? 0 : 1;
      equal_known += nan ? 1 : 0;
    });
  } else {
    // The bounds hold t for the true entity, so it is a straddler.
    KGC_CHECK(lo[true_index] <= t && t <= hi[true_index]);
    const size_t straddlers =
        vec::Ops().count_straddling(lo.data(), hi.data(), n, t, &greater);
    if (lo.data() == hi.data()) {
      // Exact scores: a straddler scores t itself, so it is a tie.
      equal = straddlers - 1;
    } else if (straddlers > 1) {
      for (size_t i = 0; i < n; ++i) {
        if (i == true_index || !(lo[i] <= t && hi[i] >= t)) continue;
        const float s = exact(i);
        greater += s > t ? 1 : 0;
        equal += s == t ? 1 : 0;
      }
    }
    for_each_known([&](size_t e) {
      if (lo[e] > t) {
        ++greater_known;
      } else if (hi[e] >= t) {
        const float s = exact(e);
        greater_known += s > t ? 1 : 0;
        equal_known += s == t ? 1 : 0;
      }
    });
  }
  *raw = static_cast<double>(greater) + static_cast<double>(equal) / 2.0 + 1.0;
  *filtered = static_cast<double>(greater - greater_known) +
              static_cast<double>(equal - equal_known) / 2.0 + 1.0;
  // The known facts counted are candidates counted above, so filtering
  // never worsens a rank (nor wraps the subtraction).
  KGC_CHECK(*filtered <= *raw);
}

}  // namespace

std::vector<std::vector<TripleRanks>> RankTriples(
    std::span<const LinkPredictor* const> predictors, const Dataset& dataset,
    const TripleList& test, const RankerOptions& options) {
  const TripleStore& filter =
      options.filter != nullptr ? *options.filter : dataset.all_store();
  const size_t num_entities = static_cast<size_t>(dataset.num_entities());
  std::string names;
  // Embedding models rank through bounded float pre-passes; every other
  // predictor through its exact scores.
  std::vector<const KgeModel*> models;
  for (const LinkPredictor* predictor : predictors) {
    KGC_CHECK_EQ(predictor->num_entities(), dataset.num_entities());
    if (!names.empty()) names += ',';
    names += predictor->name();
    models.push_back(dynamic_cast<const KgeModel*>(predictor));
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
  static obs::Counter& exact_rescores =
      obs::Registry::Get().GetCounter(obs::kRankerExactRescores);
  static obs::Counter& query_hits =
      obs::Registry::Get().GetCounter(obs::kRankerQueryCacheHits);
  static obs::Counter& query_misses =
      obs::Registry::Get().GetCounter(obs::kRankerQueryCacheMisses);
  static obs::HdrHistogram& shard_seconds =
      obs::Registry::Get().GetDurationHistogram(obs::kRankerShardSeconds);
  sweeps.Add(predictors.size());

  std::vector<std::vector<TripleRanks>> results(
      predictors.size(), std::vector<TripleRanks>(test.size()));
  // Seconds each predictor took, summed over shards and both passes.
  std::vector<double> predictor_seconds(predictors.size(), 0.0);

  // One pass per candidate direction. Each pass sorts the test triples by
  // (relation, anchor) — the anchor is the entity kept fixed by the query —
  // so every triple sharing a ScoreTails/ScoreHeads query lands in one
  // contiguous group, and relation runs stay contiguous for per-relation
  // model caches (TransR). Sharding happens at *group* granularity: a group
  // is never split across shards, so the hit/miss/eval/rescore tallies are
  // a pure function of the test list, bit-identical for any thread count.
  // Each shard ranks its groups under every predictor in turn, which keeps
  // one model's parameters hot at a time and the shards equally loaded.
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
    const size_t num_predictors = predictors.size();
    std::vector<double> seconds(
        static_cast<size_t>(PlannedShards(num_groups, options.threads)) *
            num_predictors,
        0.0);

    ParallelFor(num_groups, options.threads,
                [&](size_t gbegin, size_t gend, int shard) {
      Stopwatch shard_watch;
      std::vector<float> scores(num_entities);
      std::vector<float> lo(num_entities);
      std::vector<float> hi(num_entities);
      size_t evals = 0;
      size_t rescores = 0;
      size_t hits = 0;
      size_t misses = 0;
      size_t ranked = 0;
      for (size_t p = 0; p < num_predictors; ++p) {
        Stopwatch predictor_watch;
        const LinkPredictor& predictor = *predictors[p];
        const KgeModel* model = models[p];
        std::vector<TripleRanks>& table = results[p];
        for (size_t g = gbegin; g < gend; ++g) {
          const size_t first = group_start[g];
          const size_t last = group_start[g + 1];
          // The query and its known-correct adjacency are keyed by the
          // group's (relation, anchor), so they are constant across it.
          const Triple& lead = test[order[first]];
          const RelationId r = lead.relation;
          const EntityId a = anchor(order[first]);
          const std::span<const EntityId> known =
              tails ? filter.Tails(a, r) : filter.Heads(r, a);
          // The group's one sweep: the model's bounded pre-pass, or exact
          // scores when it has none or a bound is not finite. Later
          // triples of the group reuse it (cache hits).
          std::optional<PreparedSweep> sweep;
          bool bounded = false;
          if (model != nullptr) {
            sweep = model->PrepareSweep(tails, r, a);
            bounded = sweep->Bounds(lo, hi);
            if (!bounded) sweep->ScoreAll(scores);
          } else if (tails) {
            predictor.ScoreTails(a, r, scores);
          } else {
            predictor.ScoreHeads(r, a, scores);
          }
          evals += num_entities;
          ++misses;
          hits += last - first - 1;
          const auto exact = [&](size_t e) {
            if (!bounded) return scores[e];
            ++rescores;
            return sweep->Score(static_cast<EntityId>(e));
          };
          const std::span<const float> lo_span = bounded ? lo : scores;
          const std::span<const float> hi_span = bounded ? hi : scores;
          for (size_t i = first; i < last; ++i) {
            const size_t idx = order[i];
            const Triple& triple = test[idx];
            const EntityId truth = tails ? triple.tail : triple.head;
            TripleRanks& out = table[idx];
            out.triple = triple;
            CountRank(lo_span, hi_span, truth,
                      exact(static_cast<size_t>(truth)), known, exact,
                      tails ? &out.tail_raw : &out.head_raw,
                      tails ? &out.tail_filtered : &out.head_filtered);
            ++ranked;
          }
        }
        seconds[static_cast<size_t>(shard) * num_predictors + p] =
            predictor_watch.ElapsedSeconds();
      }
      if (tails) triples_ranked.Add(ranked);
      score_evals.Add(evals);
      exact_rescores.Add(rescores);
      query_hits.Add(hits);
      query_misses.Add(misses);
      shard_seconds.Observe(shard_watch.ElapsedSeconds());
    });
    for (size_t i = 0; i < seconds.size(); ++i) {
      predictor_seconds[i % num_predictors] += seconds[i];
    }
  };
  // Each pass is a deadline boundary: an over-budget sweep exits between
  // the joined parallel passes, never inside one. Ranks are recomputed
  // from the cached model on retry, so there is nothing to checkpoint.
  run_pass(/*tails=*/true);
  PhaseBoundary("rank_pass");
  run_pass(/*tails=*/false);
  // Per-model rollups: the sweep's span cannot split its time by model,
  // but each shard timed its share of every model.
  for (size_t p = 0; p < predictors.size(); ++p) {
    obs::AddSpanRollup("rank_triples",
                       std::string(predictors[p]->name()) + "@" +
                           dataset.name(),
                       predictor_seconds[p]);
  }
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
