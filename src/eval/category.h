// Per-relation-category breakdowns (paper §5.3(5)(6): Tables 9, 10, 12 and
// Figures 7, 8).
//
// Relations are classified 1-to-1 / 1-to-n / n-to-1 / n-to-m from training
// statistics; metrics are then reported per category, separately for head
// ("left") and tail ("right") prediction.

#ifndef KGC_EVAL_CATEGORY_H_
#define KGC_EVAL_CATEGORY_H_

#include <array>
#include <span>
#include <vector>

#include "eval/metrics.h"
#include "kg/relation_stats.h"

namespace kgc {

/// FHits@10 of head (left) and tail (right) prediction per category.
struct CategoryHeadTailHits {
  /// Indexed by static_cast<size_t>(RelationCategory).
  std::array<double, 4> left_fhits10 = {};
  std::array<double, 4> right_fhits10 = {};
  std::array<size_t, 4> num_triples = {};
  std::array<size_t, 4> num_relations = {};
};

/// Assigns each relation its category from `train` statistics.
std::vector<RelationCategory> CategorizeRelations(const TripleStore& train);

/// Computes Table-9-style left/right FHits@10 per category.
CategoryHeadTailHits ComputeCategoryHeadTailHits(
    std::span<const TripleRanks> ranks,
    const std::vector<RelationCategory>& categories);

}  // namespace kgc

#endif  // KGC_EVAL_CATEGORY_H_
