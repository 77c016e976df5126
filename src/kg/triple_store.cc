#include "kg/triple_store.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/resource.h"

namespace kgc {
namespace {

// Sort key for the (r, t, h) pass: relation, tail, head — packed into one
// uint64 so building the second CSR side is a flat integer sort instead of
// a permutation over 12-byte structs. Fits because construction checks the
// packed id widths.
uint64_t PackRth(const Triple& t) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(t.relation))
          << (2 * kPackedEntityBits)) |
         (static_cast<uint64_t>(static_cast<uint32_t>(t.tail))
          << kPackedEntityBits) |
         static_cast<uint32_t>(t.head);
}

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

bool EntitySetView::contains(EntityId e) const {
  return std::binary_search(keys_.begin(), keys_.end(), e);
}

PairSetView::iterator& PairSetView::iterator::operator++() {
  if (t_ != nullptr) {
    // Skip past every duplicate of the current (head, tail) pair.
    const EntityId h = t_->head;
    const EntityId t = t_->tail;
    do {
      ++t_;
    } while (t_ != t_end_ && t_->head == h && t_->tail == t);
  } else {
    ++k_;
  }
  return *this;
}

bool PairSetView::contains(uint64_t packed_pair) const {
  if (!triples_.empty()) {
    // The slice is sorted by (head, tail), which is PackPair order.
    const auto it = std::lower_bound(
        triples_.begin(), triples_.end(), packed_pair,
        [](const Triple& t, uint64_t key) {
          return PackPair(t.head, t.tail) < key;
        });
    return it != triples_.end() && PackPair(it->head, it->tail) == packed_pair;
  }
  return std::binary_search(keys_.begin(), keys_.end(), packed_pair);
}

TripleStore::TripleStore(TripleList triples, int32_t num_entities,
                         int32_t num_relations)
    : num_entities_(num_entities),
      num_relations_(num_relations),
      triples_(std::move(triples)) {
  KGC_CHECK_GE(num_entities_, 0);
  KGC_CHECK_GE(num_relations_, 0);
  // Packed-width guard: every 64-bit key scheme in this store (PackTriple,
  // PackGroupKey, PackRth) is collision-free only within these id budgets.
  KGC_CHECK_LE(static_cast<int64_t>(num_entities_), kMaxPackedEntities);
  KGC_CHECK_LE(static_cast<int64_t>(num_relations_), kMaxPackedRelations);
  const size_t n = triples_.size();
  KGC_CHECK_LT(n, size_t{1} << 32);  // CSR offsets are uint32

  std::sort(triples_.begin(), triples_.end());

  relation_offsets_.assign(static_cast<size_t>(num_relations_) + 1, 0);
  pair_counts_.assign(static_cast<size_t>(num_relations_), 0);
  hr_rel_groups_.assign(static_cast<size_t>(num_relations_) + 1, 0);
  rt_rel_groups_.assign(static_cast<size_t>(num_relations_) + 1, 0);
  hr_tails_.reserve(n);

  size_t distinct_triples = 0;
  for (size_t i = 0; i < n; ++i) {
    const Triple& t = triples_[i];
    KGC_CHECK_GE(t.head, 0);
    KGC_CHECK_LT(t.head, num_entities_);
    KGC_CHECK_GE(t.tail, 0);
    KGC_CHECK_LT(t.tail, num_entities_);
    KGC_CHECK_GE(t.relation, 0);
    KGC_CHECK_LT(t.relation, num_relations_);
    relation_offsets_[static_cast<size_t>(t.relation) + 1]++;

    // (h, r) side straight off the (r, h, t) sort: new (relation, head)
    // value opens a group, tails append in ascending order. The group key
    // is the bare head entity — the relation is recovered from the
    // per-relation group ranges, never stored per group.
    if (hr_keys_.empty() || triples_[i - 1].relation != t.relation ||
        triples_[i - 1].head != t.head) {
      hr_keys_.push_back(t.head);
      hr_offsets_.push_back(static_cast<uint32_t>(hr_tails_.size()));
      hr_rel_groups_[static_cast<size_t>(t.relation) + 1]++;
    }
    hr_tails_.push_back(t.tail);

    // Duplicate facts sit adjacent after the sort, so one comparison both
    // counts distinct triples and distinct per-relation (h, t) pairs.
    if (i == 0 || !(triples_[i - 1] == t)) {
      ++distinct_triples;
      pair_counts_[static_cast<size_t>(t.relation)]++;
    }
  }
  hr_offsets_.push_back(static_cast<uint32_t>(hr_tails_.size()));
  for (size_t r = 1; r < relation_offsets_.size(); ++r) {
    relation_offsets_[r] += relation_offsets_[r - 1];
  }

  // (r, t) side: sort packed (relation, tail, head) keys, then split into
  // groups exactly as above.
  {
    std::vector<uint64_t> rth;
    rth.reserve(n);
    for (const Triple& t : triples_) rth.push_back(PackRth(t));
    std::sort(rth.begin(), rth.end());
    rt_heads_.reserve(n);
    constexpr uint64_t kEntityMask = (uint64_t{1} << kPackedEntityBits) - 1;
    for (size_t i = 0; i < rth.size(); ++i) {
      const uint64_t rt_part = rth[i] >> kPackedEntityBits;  // (r, t)
      if (rt_keys_.empty() || (rth[i - 1] >> kPackedEntityBits) != rt_part) {
        const RelationId r =
            static_cast<RelationId>(rt_part >> kPackedEntityBits);
        rt_keys_.push_back(static_cast<EntityId>(rt_part & kEntityMask));
        rt_offsets_.push_back(static_cast<uint32_t>(rt_heads_.size()));
        rt_rel_groups_[static_cast<size_t>(r) + 1]++;
      }
      rt_heads_.push_back(static_cast<EntityId>(rth[i] & kEntityMask));
    }
    rt_offsets_.push_back(static_cast<uint32_t>(rt_heads_.size()));
  }

  // Per-relation group ranges: the loops above counted groups per relation;
  // prefix-sum into [lo, hi) bounds.
  for (size_t r = 1; r < hr_rel_groups_.size(); ++r) {
    hr_rel_groups_[r] += hr_rel_groups_[r - 1];
    rt_rel_groups_[r] += rt_rel_groups_[r - 1];
  }

  // Existence set: sized exactly (duplicates were counted above), with 3/5
  // extra slack so the table runs at ~0.5 load instead of the FlatSet
  // default ~0.8. Training's negative sampler probes it once per corrupted
  // example, millions of times per model; at 0.8 load the linear-probe
  // chains roughly double the probe latency, and the ~4 extra bytes/key
  // are paid for by the 4-byte CSR group keys and the sorted linked-pair
  // array below.
  existence_.Reserve(distinct_triples + distinct_triples * 3 / 5);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && triples_[i - 1] == triples_[i]) continue;
    existence_.Insert(
        PackTriple(triples_[i].head, triples_[i].relation, triples_[i].tail));
  }

  // Linked pairs: sort-unique into an exact-fit array; AnyRelationLinks is
  // a cleaning-sweep operation, so binary search is fast enough.
  linked_pairs_.reserve(n);
  for (const Triple& t : triples_) {
    linked_pairs_.push_back(PackPair(t.head, t.tail));
  }
  std::sort(linked_pairs_.begin(), linked_pairs_.end());
  linked_pairs_.erase(std::unique(linked_pairs_.begin(), linked_pairs_.end()),
                      linked_pairs_.end());

  // Push-back growth leaves up to 2x slack in every CSR array, and the
  // caller's triple list arrives with whatever capacity it grew to; at 10M+
  // triples that slack is hundreds of resident megabytes. Trim it once,
  // here, so IndexBytes reflects what the store actually needs.
  triples_.shrink_to_fit();
  hr_keys_.shrink_to_fit();
  hr_offsets_.shrink_to_fit();
  hr_tails_.shrink_to_fit();
  rt_keys_.shrink_to_fit();
  rt_offsets_.shrink_to_fit();
  rt_heads_.shrink_to_fit();
  linked_pairs_.shrink_to_fit();

  if (n > 0) {
    obs::Registry::Get()
        .GetGauge(obs::kStoreBytesPerTriple)
        .Set(static_cast<double>(IndexBytes()) / static_cast<double>(n));
    obs::Registry::Get()
        .GetGauge(obs::kStorePeakRssBytes)
        .Set(static_cast<double>(PeakRssBytes()));
  }
}

std::span<const Triple> TripleStore::ByRelation(RelationId r) const {
  KGC_CHECK_GE(r, 0);
  KGC_CHECK_LT(r, num_relations_);
  const size_t begin = relation_offsets_[static_cast<size_t>(r)];
  const size_t end = relation_offsets_[static_cast<size_t>(r) + 1];
  return {triples_.data() + begin, end - begin};
}

std::span<const EntityId> TripleStore::GroupSlice(
    const std::vector<EntityId>& keys, const std::vector<uint32_t>& offsets,
    const std::vector<EntityId>& neighbors, size_t lo, size_t hi,
    EntityId key) {
  const auto begin = keys.begin() + static_cast<ptrdiff_t>(lo);
  const auto end = keys.begin() + static_cast<ptrdiff_t>(hi);
  const auto it = std::lower_bound(begin, end, key);
  if (it == end || *it != key) return {};
  const size_t g = static_cast<size_t>(it - keys.begin());
  return {neighbors.data() + offsets[g], offsets[g + 1] - offsets[g]};
}

std::span<const EntityId> TripleStore::Tails(EntityId h, RelationId r) const {
  if (r < 0 || r >= num_relations_) return {};
  return GroupSlice(hr_keys_, hr_offsets_, hr_tails_,
                    hr_rel_groups_[static_cast<size_t>(r)],
                    hr_rel_groups_[static_cast<size_t>(r) + 1], h);
}

std::span<const EntityId> TripleStore::Heads(RelationId r, EntityId t) const {
  if (r < 0 || r >= num_relations_) return {};
  return GroupSlice(rt_keys_, rt_offsets_, rt_heads_,
                    rt_rel_groups_[static_cast<size_t>(r)],
                    rt_rel_groups_[static_cast<size_t>(r) + 1], t);
}

PairSetView TripleStore::Pairs(RelationId r) const {
  KGC_CHECK_GE(r, 0);
  KGC_CHECK_LT(r, num_relations_);
  return PairSetView::FromTriples(ByRelation(r),
                                  pair_counts_[static_cast<size_t>(r)]);
}

EntitySetView TripleStore::Subjects(RelationId r) const {
  KGC_CHECK_GE(r, 0);
  KGC_CHECK_LT(r, num_relations_);
  const size_t lo = hr_rel_groups_[static_cast<size_t>(r)];
  const size_t hi = hr_rel_groups_[static_cast<size_t>(r) + 1];
  return EntitySetView({hr_keys_.data() + lo, hi - lo});
}

EntitySetView TripleStore::Objects(RelationId r) const {
  KGC_CHECK_GE(r, 0);
  KGC_CHECK_LT(r, num_relations_);
  const size_t lo = rt_rel_groups_[static_cast<size_t>(r)];
  const size_t hi = rt_rel_groups_[static_cast<size_t>(r) + 1];
  return EntitySetView({rt_keys_.data() + lo, hi - lo});
}

bool TripleStore::AnyRelationLinks(EntityId h, EntityId t) const {
  return std::binary_search(linked_pairs_.begin(), linked_pairs_.end(),
                            PackPair(h, t));
}

size_t TripleStore::IndexBytes() const {
  return VectorBytes(triples_) + VectorBytes(relation_offsets_) +
         VectorBytes(hr_keys_) + VectorBytes(hr_offsets_) +
         VectorBytes(hr_tails_) + VectorBytes(hr_rel_groups_) +
         VectorBytes(rt_keys_) + VectorBytes(rt_offsets_) +
         VectorBytes(rt_heads_) + VectorBytes(rt_rel_groups_) +
         VectorBytes(pair_counts_) + existence_.MemoryBytes() +
         VectorBytes(linked_pairs_);
}

}  // namespace kgc
