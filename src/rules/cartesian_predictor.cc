#include "rules/cartesian_predictor.h"

#include <algorithm>

#include "util/check.h"

namespace kgc {

CartesianPredictor::CartesianPredictor(
    const TripleStore& train, std::vector<RelationId> cartesian_relations)
    : train_(train),
      cartesian_(static_cast<size_t>(train.num_relations()), false) {
  for (RelationId r : cartesian_relations) {
    KGC_CHECK_GE(r, 0);
    KGC_CHECK_LT(r, train.num_relations());
    cartesian_[static_cast<size_t>(r)] = true;
  }
}

void CartesianPredictor::ScoreTails(EntityId h, RelationId r,
                                    std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  // Predict every object of a Cartesian relation, provided h is a known
  // subject.
  if (cartesian_[static_cast<size_t>(r)] && train_.Subjects(r).contains(h)) {
    for (EntityId t : train_.Objects(r)) {
      out[static_cast<size_t>(t)] = 1.0f;
    }
  }
  // Known facts score highest regardless (the relation may not be Cartesian;
  // then the training adjacency is all we assert).
  for (EntityId t : train_.Tails(h, r)) {
    out[static_cast<size_t>(t)] = 2.0f;
  }
}

void CartesianPredictor::ScoreHeads(RelationId r, EntityId t,
                                    std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  if (cartesian_[static_cast<size_t>(r)] && train_.Objects(r).contains(t)) {
    for (EntityId h : train_.Subjects(r)) {
      out[static_cast<size_t>(h)] = 1.0f;
    }
  }
  for (EntityId h : train_.Heads(r, t)) {
    out[static_cast<size_t>(h)] = 2.0f;
  }
}

}  // namespace kgc
