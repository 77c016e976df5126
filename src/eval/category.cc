#include "eval/category.h"

#include <unordered_set>

#include "util/check.h"

namespace kgc {

std::vector<RelationCategory> CategorizeRelations(const TripleStore& train) {
  std::vector<RelationCategory> categories(
      static_cast<size_t>(train.num_relations()), RelationCategory::kOneToOne);
  for (RelationId r = 0; r < train.num_relations(); ++r) {
    categories[static_cast<size_t>(r)] =
        ComputeRelationStats(train, r).category;
  }
  return categories;
}

CategoryHeadTailHits ComputeCategoryHeadTailHits(
    std::span<const TripleRanks> ranks,
    const std::vector<RelationCategory>& categories) {
  CategoryHeadTailHits result;
  std::array<double, 4> left_hits = {};
  std::array<double, 4> right_hits = {};
  std::array<std::unordered_set<RelationId>, 4> relations;
  for (const TripleRanks& r : ranks) {
    KGC_CHECK_LT(static_cast<size_t>(r.triple.relation), categories.size());
    const size_t c = static_cast<size_t>(
        categories[static_cast<size_t>(r.triple.relation)]);
    result.num_triples[c]++;
    relations[c].insert(r.triple.relation);
    if (r.head_filtered <= 10.0) left_hits[c] += 1.0;
    if (r.tail_filtered <= 10.0) right_hits[c] += 1.0;
  }
  for (size_t c = 0; c < 4; ++c) {
    result.num_relations[c] = relations[c].size();
    if (result.num_triples[c] > 0) {
      const double n = static_cast<double>(result.num_triples[c]);
      result.left_fhits10[c] = left_hits[c] / n;
      result.right_fhits10[c] = right_hits[c] / n;
    }
  }
  return result;
}

}  // namespace kgc
