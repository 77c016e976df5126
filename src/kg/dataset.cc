#include "kg/dataset.h"

#include <unordered_set>

namespace kgc {

const TripleStore& Dataset::train_store() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (train_store_ == nullptr) {
    train_store_ = std::make_unique<TripleStore>(train_, num_entities(),
                                                 num_relations());
  }
  return *train_store_;
}

const TripleStore& Dataset::test_store() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (test_store_ == nullptr) {
    test_store_ =
        std::make_unique<TripleStore>(test_, num_entities(), num_relations());
  }
  return *test_store_;
}

const TripleStore& Dataset::all_store() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (all_store_ == nullptr) {
    TripleList all;
    all.reserve(train_.size() + valid_.size() + test_.size());
    all.insert(all.end(), train_.begin(), train_.end());
    all.insert(all.end(), valid_.begin(), valid_.end());
    all.insert(all.end(), test_.begin(), test_.end());
    all_store_ =
        std::make_unique<TripleStore>(std::move(all), num_entities(),
                                      num_relations());
  }
  return *all_store_;
}

int32_t Dataset::CountUsedEntities() const {
  std::unordered_set<EntityId> used;
  for (const TripleList* split : {&train_, &valid_, &test_}) {
    for (const Triple& t : *split) {
      used.insert(t.head);
      used.insert(t.tail);
    }
  }
  return static_cast<int32_t>(used.size());
}

int32_t Dataset::CountUsedRelations() const {
  std::unordered_set<RelationId> used;
  for (const TripleList* split : {&train_, &valid_, &test_}) {
    for (const Triple& t : *split) used.insert(t.relation);
  }
  return static_cast<int32_t>(used.size());
}

}  // namespace kgc
