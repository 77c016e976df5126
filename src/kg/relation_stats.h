// Relation cardinality statistics and 1-to-1 / 1-to-n / n-to-1 / n-to-m
// categorization (Bordes et al. 2013; paper §5.3(5)).

#ifndef KGC_KG_RELATION_STATS_H_
#define KGC_KG_RELATION_STATS_H_

#include "kg/triple_store.h"

namespace kgc {

/// Cardinality class of a relation. Computed from the average number of
/// distinct heads per tail (hpt) and tails per head (tph); an average below
/// 1.5 is marked "1", otherwise "n".
enum class RelationCategory {
  kOneToOne = 0,
  kOneToMany = 1,
  kManyToOne = 2,
  kManyToMany = 3,
};

/// Display name, e.g. "1-to-n".
const char* RelationCategoryName(RelationCategory category);

/// Per-relation cardinality statistics.
struct RelationStats {
  RelationId relation = 0;
  size_t num_triples = 0;
  double heads_per_tail = 0.0;
  double tails_per_head = 0.0;
  RelationCategory category = RelationCategory::kOneToOne;
};

/// Computes stats for one relation from a store. Relations with no triples
/// get zeroed stats and category 1-to-1.
RelationStats ComputeRelationStats(const TripleStore& store, RelationId r);

/// Categorises using the conventional 1.5 threshold.
RelationCategory Categorize(double heads_per_tail, double tails_per_head,
                            double threshold = 1.5);

}  // namespace kgc

#endif  // KGC_KG_RELATION_STATS_H_
