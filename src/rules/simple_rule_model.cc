#include "rules/simple_rule_model.h"

#include <algorithm>

namespace kgc {

SimpleRuleModel::SimpleRuleModel(const TripleStore& train,
                                 RedundancyCatalog catalog)
    : train_(train),
      catalog_(std::move(catalog)),
      reverse_partners_(static_cast<size_t>(train.num_relations())),
      duplicate_partners_(static_cast<size_t>(train.num_relations())),
      symmetric_(static_cast<size_t>(train.num_relations()), false) {
  for (RelationId r = 0; r < train.num_relations(); ++r) {
    reverse_partners_[static_cast<size_t>(r)] = catalog_.ReversePartners(r);
    duplicate_partners_[static_cast<size_t>(r)] =
        catalog_.DuplicatePartners(r);
  }
  for (RelationId r : catalog_.symmetric_relations) {
    symmetric_[static_cast<size_t>(r)] = true;
  }
}

void SimpleRuleModel::ScoreTails(EntityId h, RelationId r,
                                 std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  // Reverse rule: (y, r2, h) => (h, r, y).
  for (RelationId r2 : reverse_partners_[static_cast<size_t>(r)]) {
    for (EntityId y : train_.Heads(r2, h)) {
      out[static_cast<size_t>(y)] = 1.0f;
    }
  }
  if (symmetric_[static_cast<size_t>(r)]) {
    for (EntityId y : train_.Heads(r, h)) {
      out[static_cast<size_t>(y)] = 1.0f;
    }
  }
  // Duplicate rule: (h, r2, y) => (h, r, y).
  for (RelationId r2 : duplicate_partners_[static_cast<size_t>(r)]) {
    for (EntityId y : train_.Tails(h, r2)) {
      out[static_cast<size_t>(y)] = 1.0f;
    }
  }
}

void SimpleRuleModel::ScoreHeads(RelationId r, EntityId t,
                                 std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  // Reverse rule: (t, r2, x) => (x, r, t).
  for (RelationId r2 : reverse_partners_[static_cast<size_t>(r)]) {
    for (EntityId x : train_.Tails(t, r2)) {
      out[static_cast<size_t>(x)] = 1.0f;
    }
  }
  if (symmetric_[static_cast<size_t>(r)]) {
    for (EntityId x : train_.Tails(t, r)) {
      out[static_cast<size_t>(x)] = 1.0f;
    }
  }
  // Duplicate rule: (x, r2, t) => (x, r, t).
  for (RelationId r2 : duplicate_partners_[static_cast<size_t>(r)]) {
    for (EntityId x : train_.Heads(r2, t)) {
      out[static_cast<size_t>(x)] = 1.0f;
    }
  }
}

}  // namespace kgc
