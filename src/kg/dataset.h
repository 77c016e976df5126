// A benchmark dataset: vocab + train/valid/test splits.

#ifndef KGC_KG_DATASET_H_
#define KGC_KG_DATASET_H_

#include <memory>
#include <mutex>
#include <string>

#include "kg/triple.h"
#include "kg/triple_store.h"
#include "kg/vocab.h"

namespace kgc {

/// A link-prediction benchmark dataset. Splits are plain triple lists;
/// indexed views are built (and cached) on demand. A dataset is immutable
/// once constructed, so a cached view can never go stale; to change a
/// split, build a new Dataset.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, Vocab vocab, TripleList train, TripleList valid,
          TripleList test)
      : name_(std::move(name)),
        vocab_(std::move(vocab)),
        train_(std::move(train)),
        valid_(std::move(valid)),
        test_(std::move(test)) {}

  // Movable (cleaners and generators return datasets by value); the store
  // mutex is not part of the value and is freshly constructed. Moves must
  // not race with concurrent store access on either operand.
  Dataset(Dataset&& other) noexcept
      : name_(std::move(other.name_)),
        vocab_(std::move(other.vocab_)),
        train_(std::move(other.train_)),
        valid_(std::move(other.valid_)),
        test_(std::move(other.test_)),
        train_store_(std::move(other.train_store_)),
        test_store_(std::move(other.test_store_)),
        all_store_(std::move(other.all_store_)) {}
  Dataset& operator=(Dataset&& other) noexcept {
    if (this != &other) {
      name_ = std::move(other.name_);
      vocab_ = std::move(other.vocab_);
      train_ = std::move(other.train_);
      valid_ = std::move(other.valid_);
      test_ = std::move(other.test_);
      train_store_ = std::move(other.train_store_);
      test_store_ = std::move(other.test_store_);
      all_store_ = std::move(other.all_store_);
    }
    return *this;
  }

  const std::string& name() const { return name_; }

  const Vocab& vocab() const { return vocab_; }

  int32_t num_entities() const { return vocab_.num_entities(); }
  int32_t num_relations() const { return vocab_.num_relations(); }

  const TripleList& train() const { return train_; }
  const TripleList& valid() const { return valid_; }
  const TripleList& test() const { return test_; }

  /// Indexed view of the training split (built on first use).
  const TripleStore& train_store() const;

  /// Indexed view of the test split (built on first use).
  const TripleStore& test_store() const;

  /// Indexed view over train+valid+test, used as the "known triples" filter
  /// in filtered metrics (built on first use).
  const TripleStore& all_store() const;

  /// Count of entities/relations actually used (some cleaned datasets no
  /// longer touch every id).
  int32_t CountUsedEntities() const;
  int32_t CountUsedRelations() const;

 private:
  std::string name_;
  Vocab vocab_;
  TripleList train_;
  TripleList valid_;
  TripleList test_;

  // Lazily-built indexed views, guarded so that concurrent first use from
  // parallel evaluation workers builds each store exactly once. The stores
  // themselves are immutable after construction and safe to read without
  // the lock.
  mutable std::mutex store_mutex_;
  mutable std::unique_ptr<TripleStore> train_store_;
  mutable std::unique_ptr<TripleStore> test_store_;
  mutable std::unique_ptr<TripleStore> all_store_;
};

}  // namespace kgc

#endif  // KGC_KG_DATASET_H_
