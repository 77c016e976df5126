// Indexed, immutable triple collection.
//
// TripleStore is built once from a list of triples and then serves the access
// patterns the rest of the library needs:
//   - iteration over all triples and over one relation's triples,
//   - adjacency lookups tails(h, r) / heads(r, t), whose sorted spans are
//     the known facts filtered ranking and top-K retrieval skip,
//   - existence tests Contains(h, r, t) for negative sampling,
//     classification, leakage checks and the top-K oracle,
//   - per-relation subject/object/pair sets for redundancy analysis.
//
// Storage substrate (million-scale): adjacency is CSR — per-relation sorted
// entity-key arrays (the relation is implicit in the per-relation group
// ranges, so a group key is just the 4-byte entity id) with offset arrays
// into contiguous neighbor arrays, looked up by binary search within the
// relation's group range — and membership is a flat open-addressing hash set
// over packed triple keys (see kg/flat_set.h). The per-relation
// pair/subject/object accessors return lightweight view types over the CSR
// arrays instead of materialized std::unordered_sets, so the whole index
// costs a few dozen bytes per triple instead of hundreds.

#ifndef KGC_KG_TRIPLE_STORE_H_
#define KGC_KG_TRIPLE_STORE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "kg/flat_set.h"
#include "kg/triple.h"

namespace kgc {

/// Read-only set of distinct entities (the subjects or objects of one
/// relation), backed by a sorted slice of the store's CSR group-key array.
/// Iteration yields entity ids in ascending order; contains() is a binary
/// search. Views are cheap to copy and stay valid as long as the store.
class EntitySetView {
 public:
  using iterator = const EntityId*;

  EntitySetView() = default;
  /// `keys` must be ascending entity ids, as stored in one relation's slice
  /// of the CSR group-key arrays.
  explicit EntitySetView(std::span<const EntityId> keys) : keys_(keys) {}

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  bool contains(EntityId e) const;

  iterator begin() const { return keys_.data(); }
  iterator end() const { return keys_.data() + keys_.size(); }

 private:
  std::span<const EntityId> keys_;
};

/// Read-only set of distinct subject-object pairs of one relation, iterated
/// as PackPair(h, t) keys in ascending order. Two backings share one
/// interface: a slice of the store's relation-sorted triple array (duplicate
/// triples are skipped on the fly; the distinct count is precomputed), or a
/// caller-owned sorted array of unique packed keys (used by the rule miner
/// for path bodies). Views are cheap to copy; they do not own storage.
class PairSetView {
 public:
  class iterator {
   public:
    using value_type = uint64_t;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const Triple* t, const Triple* t_end) : t_(t), t_end_(t_end) {}
    explicit iterator(const uint64_t* k) : k_(k) {}
    uint64_t operator*() const {
      return t_ != nullptr ? PackPair(t_->head, t_->tail) : *k_;
    }
    iterator& operator++();
    iterator operator++(int) {
      iterator copy = *this;
      ++(*this);
      return copy;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.t_ == b.t_ && a.k_ == b.k_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    const Triple* t_ = nullptr;
    const Triple* t_end_ = nullptr;
    const uint64_t* k_ = nullptr;
  };

  PairSetView() = default;

  /// View over one relation's triples, sorted by (head, tail), possibly with
  /// duplicates; `distinct` is the number of distinct (head, tail) pairs.
  static PairSetView FromTriples(std::span<const Triple> triples,
                                 size_t distinct) {
    PairSetView view;
    view.triples_ = triples;
    view.distinct_ = distinct;
    return view;
  }

  /// View over a sorted array of unique PackPair keys.
  static PairSetView FromKeys(std::span<const uint64_t> keys) {
    PairSetView view;
    view.keys_ = keys;
    view.distinct_ = keys.size();
    return view;
  }

  /// Number of distinct pairs.
  size_t size() const { return distinct_; }
  bool empty() const { return distinct_ == 0; }
  bool contains(uint64_t packed_pair) const;

  iterator begin() const {
    if (!triples_.empty()) {
      return iterator(triples_.data(), triples_.data() + triples_.size());
    }
    return iterator(keys_.data());
  }
  iterator end() const {
    if (!triples_.empty()) {
      return iterator(triples_.data() + triples_.size(),
                      triples_.data() + triples_.size());
    }
    return iterator(keys_.data() + keys_.size());
  }

 private:
  std::span<const Triple> triples_;
  std::span<const uint64_t> keys_;
  size_t distinct_ = 0;
};

/// Immutable indexed view over a set of triples.
class TripleStore {
 public:
  /// Builds all indexes. `num_entities`/`num_relations` bound the id spaces;
  /// every triple must be within bounds, and the id spaces must fit the
  /// packed key widths (kPackedEntityBits / kPackedRelationBits).
  TripleStore(TripleList triples, int32_t num_entities, int32_t num_relations);

  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  size_t size() const { return triples_.size(); }

  const TripleList& triples() const { return triples_; }

  /// All triples of one relation (contiguous storage).
  std::span<const Triple> ByRelation(RelationId r) const;

  /// Number of instance triples |r| of a relation.
  size_t RelationSize(RelationId r) const {
    return ByRelation(r).size();
  }

  /// Tail entities t with (h, r, t) present, ascending; empty if none.
  std::span<const EntityId> Tails(EntityId h, RelationId r) const;

  /// Head entities h with (h, r, t) present, ascending; empty if none.
  std::span<const EntityId> Heads(RelationId r, EntityId t) const;

  /// Whether (h, r, t) is present.
  bool Contains(EntityId h, RelationId r, EntityId t) const {
    return existence_.Contains(PackTriple(h, r, t));
  }
  bool Contains(const Triple& triple) const {
    return Contains(triple.head, triple.relation, triple.tail);
  }
  /// Same probe over an already-packed PackTriple key, for callers that
  /// build keys once.
  bool ContainsPacked(uint64_t packed_triple) const {
    return existence_.Contains(packed_triple);
  }

  /// Set of subject-object pairs T_r = {(h,t) | r(h,t)} of a relation,
  /// packed with PackPair.
  PairSetView Pairs(RelationId r) const;

  /// Distinct subjects S_r of a relation, ascending.
  EntitySetView Subjects(RelationId r) const;

  /// Distinct objects O_r of a relation, ascending.
  EntitySetView Objects(RelationId r) const;

  /// Whether any relation links h to t (directed). Used by the FB15k-237
  /// style cleaner ("entity pairs directly linked in the training set").
  /// Binary search over a sorted array: this path runs once per evaluation
  /// pair during cleaning sweeps, not per candidate during ranking, so it
  /// trades probe speed for exact-fit memory (8 bytes per distinct pair,
  /// no hash-table slack).
  bool AnyRelationLinks(EntityId h, EntityId t) const;

  /// Resident bytes of every index structure (CSR arrays, membership sets,
  /// and the triple array itself). Sanitizer-independent, so the CI memory
  /// budget check keys off this rather than process RSS.
  size_t IndexBytes() const;

 private:
  // Looks up the neighbor slice of one CSR side for entity group key `key`
  // within the relation's group range [lo, hi).
  static std::span<const EntityId> GroupSlice(
      const std::vector<EntityId>& keys, const std::vector<uint32_t>& offsets,
      const std::vector<EntityId>& neighbors, size_t lo, size_t hi,
      EntityId key);

  int32_t num_entities_;
  int32_t num_relations_;

  // Triples sorted by (relation, head, tail); relation_offsets_[r] ..
  // relation_offsets_[r+1] delimit relation r's slice.
  TripleList triples_;
  std::vector<size_t> relation_offsets_;

  // CSR adjacency, (h, r) side: hr_keys_ holds the head-entity group keys,
  // ascending within each relation; group g's tails are
  // hr_tails_[hr_offsets_[g] .. hr_offsets_[g+1]), sorted.
  // hr_rel_groups_[r] .. hr_rel_groups_[r+1] bound relation r's groups, so
  // a lookup binary-searches only within its relation (the relation never
  // needs to live in the key — 4 bytes per group instead of 8) and
  // Subjects(r) is the key slice itself.
  std::vector<EntityId> hr_keys_;
  std::vector<uint32_t> hr_offsets_;
  std::vector<EntityId> hr_tails_;
  std::vector<uint32_t> hr_rel_groups_;

  // CSR adjacency, (r, t) side: group keys are tail entities.
  std::vector<EntityId> rt_keys_;
  std::vector<uint32_t> rt_offsets_;
  std::vector<EntityId> rt_heads_;
  std::vector<uint32_t> rt_rel_groups_;

  // Distinct (h, t) pairs per relation (triples_ slices may hold duplicate
  // facts; Pairs(r).size() must count each pair once).
  std::vector<uint32_t> pair_counts_;

  FlatSet existence_;  // PackTriple(h, r, t) keys

  // Sorted unique PackPair(h, t) keys, any relation. A sorted array rather
  // than a second hash table: AnyRelationLinks is off the ranking hot path,
  // and the bytes saved buy the existence set a lower load factor.
  std::vector<uint64_t> linked_pairs_;
};

}  // namespace kgc

#endif  // KGC_KG_TRIPLE_STORE_H_
