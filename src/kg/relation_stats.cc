#include "kg/relation_stats.h"

namespace kgc {

const char* RelationCategoryName(RelationCategory category) {
  switch (category) {
    case RelationCategory::kOneToOne:
      return "1-to-1";
    case RelationCategory::kOneToMany:
      return "1-to-n";
    case RelationCategory::kManyToOne:
      return "n-to-1";
    case RelationCategory::kManyToMany:
      return "n-to-m";
  }
  return "unknown";
}

RelationCategory Categorize(double heads_per_tail, double tails_per_head,
                            double threshold) {
  const bool many_heads = heads_per_tail >= threshold;
  const bool many_tails = tails_per_head >= threshold;
  if (!many_heads && !many_tails) return RelationCategory::kOneToOne;
  if (!many_heads && many_tails) return RelationCategory::kOneToMany;
  if (many_heads && !many_tails) return RelationCategory::kManyToOne;
  return RelationCategory::kManyToMany;
}

RelationStats ComputeRelationStats(const TripleStore& store, RelationId r) {
  RelationStats stats;
  stats.relation = r;
  const auto triples = store.ByRelation(r);
  stats.num_triples = triples.size();
  if (triples.empty()) return stats;

  const size_t num_subjects = store.Subjects(r).size();
  const size_t num_objects = store.Objects(r).size();
  stats.heads_per_tail =
      static_cast<double>(triples.size()) / static_cast<double>(num_objects);
  stats.tails_per_head =
      static_cast<double>(triples.size()) / static_cast<double>(num_subjects);
  stats.category = Categorize(stats.heads_per_tail, stats.tails_per_head);
  return stats;
}

}  // namespace kgc
