#include "eval/relation_prediction.h"

#include <cstdint>
#include <vector>

namespace kgc {

RelationPredictionMetrics EvaluateRelationPrediction(const KgeModel& model,
                                                     const Dataset& dataset) {
  RelationPredictionMetrics metrics;
  const TripleStore& all = dataset.all_store();
  const int32_t num_relations = dataset.num_relations();
  if (dataset.test().empty() || num_relations == 0) return metrics;

  std::vector<double> scores(static_cast<size_t>(num_relations));
  double sum_rank = 0, sum_inv = 0, hits1 = 0;
  double fsum_rank = 0, fsum_inv = 0, fhits1 = 0;
  for (const Triple& t : dataset.test()) {
    for (RelationId r = 0; r < num_relations; ++r) {
      scores[static_cast<size_t>(r)] = model.Score(t.head, r, t.tail);
    }
    const double s_true = scores[static_cast<size_t>(t.relation)];
    size_t greater = 0, equal = 0;
    size_t greater_known = 0, equal_known = 0;
    for (RelationId r = 0; r < num_relations; ++r) {
      const double s = scores[static_cast<size_t>(r)];
      if (s > s_true) {
        ++greater;
        if (r != t.relation && all.Contains(t.head, r, t.tail)) {
          ++greater_known;
        }
      } else if (s == s_true && r != t.relation) {
        ++equal;
        if (all.Contains(t.head, r, t.tail)) ++equal_known;
      }
    }
    const double raw =
        static_cast<double>(greater) + static_cast<double>(equal) / 2.0 + 1.0;
    const double filtered = static_cast<double>(greater - greater_known) +
                            static_cast<double>(equal - equal_known) / 2.0 +
                            1.0;
    sum_rank += raw;
    sum_inv += 1.0 / raw;
    if (raw <= 1.0) hits1 += 1.0;
    fsum_rank += filtered;
    fsum_inv += 1.0 / filtered;
    if (filtered <= 1.0) fhits1 += 1.0;
  }
  const double n = static_cast<double>(dataset.test().size());
  metrics.num_triples = dataset.test().size();
  metrics.mr = sum_rank / n;
  metrics.mrr = sum_inv / n;
  metrics.hits1 = hits1 / n;
  metrics.fmr = fsum_rank / n;
  metrics.fmrr = fsum_inv / n;
  metrics.fhits1 = fhits1 / n;
  return metrics;
}

}  // namespace kgc
