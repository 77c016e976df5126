#include "rules/amie.h"

#include <algorithm>
#include <span>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace kgc {

std::string Rule::ToString(const Vocab& vocab) const {
  switch (kind) {
    case RuleBodyKind::kSame:
      return StrFormat("%s(x,y) => %s(x,y)  [supp=%zu conf=%.2f pca=%.2f]",
                       vocab.RelationName(body1).c_str(),
                       vocab.RelationName(head).c_str(), support,
                       std_confidence, pca_confidence);
    case RuleBodyKind::kInverse:
      return StrFormat("%s(y,x) => %s(x,y)  [supp=%zu conf=%.2f pca=%.2f]",
                       vocab.RelationName(body1).c_str(),
                       vocab.RelationName(head).c_str(), support,
                       std_confidence, pca_confidence);
    case RuleBodyKind::kPath:
      return StrFormat(
          "%s(x,z) ^ %s(z,y) => %s(x,y)  [supp=%zu conf=%.2f pca=%.2f]",
          vocab.RelationName(body1).c_str(),
          vocab.RelationName(body2).c_str(),
          vocab.RelationName(head).c_str(), support, std_confidence,
          pca_confidence);
  }
  return "<invalid rule>";
}

namespace {

// Finalizes confidence fields and applies thresholds; returns true if the
// rule survives.
bool FinalizeRule(const TripleStore& train, const AmieOptions& options,
                  size_t pca_body, Rule& rule) {
  const size_t head_size = train.Pairs(rule.head).size();
  if (rule.support < options.min_support || rule.body_size == 0 ||
      head_size == 0) {
    return false;
  }
  rule.std_confidence =
      static_cast<double>(rule.support) / static_cast<double>(rule.body_size);
  rule.pca_confidence =
      pca_body > 0 ? static_cast<double>(rule.support) /
                         static_cast<double>(pca_body)
                   : 0.0;
  rule.head_coverage =
      static_cast<double>(rule.support) / static_cast<double>(head_size);
  if (rule.head_coverage < options.min_head_coverage) return false;
  const double confidence = options.use_pca_confidence ? rule.pca_confidence
                                                       : rule.std_confidence;
  return confidence >= options.min_confidence;
}

// A rule whose support has been counted but whose PCA denominator — a sweep
// over its body pairs — is still pending. `body_pairs` views storage that
// stays valid for the whole mining run (the TripleStore's CSR arrays or the
// per-r1 path pair vectors).
struct RuleCandidate {
  Rule rule;
  PairSetView body_pairs;
};

// Mediators z with more in × out combinations than this are hubs whose
// paths are not enumerated.
constexpr size_t kMaxCombosPerEntity = 20'000;

// One path body pair r1(x, z) ^ r2(z, y) of a fixed r1, packed as
// (r2, x, y) so that ascending order groups the pairs by r2 and sorts each
// group in PackPair(x, y) order, tagged with the mediator z it came through.
struct MediatedPair {
  uint64_t key;
  EntityId mediator;
};

constexpr int kPathR2Shift = 2 * kPackedEntityBits;
constexpr uint64_t kEntityMask = (uint64_t{1} << kPackedEntityBits) - 1;

uint64_t PackPathKey(RelationId r2, EntityId x, EntityId y) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(r2)) << kPathR2Shift) |
         (static_cast<uint64_t>(static_cast<uint32_t>(x))
          << kPackedEntityBits) |
         static_cast<uint32_t>(y);
}

// One fact r(x, y) as seen from x.
struct OutEdge {
  EntityId tail;
  RelationId relation;
};

// Entity-major index over the distinct facts (the store may hold a fact
// several times; the miner reads it as a set). x's out-edges
// out_edges[out_offsets[x] .. out_offsets[x + 1]) ascend by (tail,
// relation), so the relations holding on one pair are one run. `combos` is
// each entity's path combinations as a mediator: in-degree × out-degree, or
// 0 when it mediates no path (no in- or out-edge, or a hub above
// kMaxCombosPerEntity).
struct FactIndex {
  std::vector<uint32_t> out_offsets;  // num_entities + 1
  std::vector<OutEdge> out_edges;
  std::vector<size_t> combos;

  std::span<const OutEdge> Out(EntityId x) const {
    const size_t xi = static_cast<size_t>(x);
    return {out_edges.data() + out_offsets[xi],
            out_edges.data() + out_offsets[xi + 1]};
  }

  // The relations r with r(x, y), ascending.
  std::span<const OutEdge> Between(EntityId x, EntityId y) const {
    const std::span<const OutEdge> out = Out(x);
    const auto [lo, hi] = std::equal_range(
        out.begin(), out.end(), OutEdge{y, 0},
        [](const OutEdge& a, const OutEdge& b) { return a.tail < b.tail; });
    return {lo, hi};
  }
};

FactIndex BuildFactIndex(const TripleStore& train) {
  const size_t num_entities = static_cast<size_t>(train.num_entities());
  const TripleList& triples = train.triples();  // sorted: duplicates adjacent
  FactIndex index;
  index.out_offsets.assign(num_entities + 1, 0);
  std::vector<size_t> in_degree(num_entities, 0);
  const auto distinct = [&](size_t i) {
    return i == 0 || !(triples[i - 1] == triples[i]);
  };
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!distinct(i)) continue;
    ++index.out_offsets[static_cast<size_t>(triples[i].head) + 1];
    ++in_degree[static_cast<size_t>(triples[i].tail)];
  }
  for (size_t x = 0; x < num_entities; ++x) {
    index.out_offsets[x + 1] += index.out_offsets[x];
  }
  index.out_edges.resize(index.out_offsets[num_entities]);
  std::vector<uint32_t> cursor(index.out_offsets.begin(),
                               index.out_offsets.end() - 1);
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!distinct(i)) continue;
    const Triple& t = triples[i];
    index.out_edges[cursor[static_cast<size_t>(t.head)]++] = {t.tail,
                                                              t.relation};
  }
  index.combos.assign(num_entities, 0);
  for (size_t x = 0; x < num_entities; ++x) {
    const auto begin = index.out_edges.begin() + index.out_offsets[x];
    const auto end = index.out_edges.begin() + index.out_offsets[x + 1];
    std::sort(begin, end, [](const OutEdge& a, const OutEdge& b) {
      return a.tail != b.tail ? a.tail < b.tail : a.relation < b.relation;
    });
    const size_t combos = in_degree[x] * static_cast<size_t>(end - begin);
    if (combos <= kMaxCombosPerEntity) index.combos[x] = combos;
  }
  return index;
}

// Support per head relation of one rule body, counted densely.
class HeadSupport {
 public:
  explicit HeadSupport(size_t num_relations) : counts_(num_relations, 0) {}

  void Add(std::span<const OutEdge> facts) {
    for (const OutEdge& fact : facts) {
      if (counts_[static_cast<size_t>(fact.relation)]++ == 0) {
        heads_.push_back(fact.relation);
      }
    }
  }

  // Calls emit(head, support) for every counted head, ascending, and
  // resets the counts for the next body.
  template <typename Emit>
  void Drain(Emit&& emit) {
    std::sort(heads_.begin(), heads_.end());
    for (RelationId head : heads_) {
      size_t& support = counts_[static_cast<size_t>(head)];
      emit(head, support);
      support = 0;
    }
    heads_.clear();
  }

 private:
  std::vector<size_t> counts_;
  std::vector<RelationId> heads_;
};

// Joins r1's distinct (x, z) pairs whose mediator z lies in [lo, hi) with
// z's out-edges. Returns each (r2, x, y) key once, ascending, tagged with
// its smallest mediator, leaving out keys already in `kept` (ascending).
std::vector<MediatedPair> JoinBlock(const TripleStore& train,
                                    const FactIndex& facts, RelationId r1,
                                    EntityId lo, EntityId hi,
                                    const std::vector<uint64_t>& kept) {
  std::vector<MediatedPair> pairs;
  for (uint64_t xz : train.Pairs(r1)) {
    const auto [x, z] = UnpackPair(xz);
    if (z < lo || z >= hi) continue;
    if (facts.combos[static_cast<size_t>(z)] == 0) continue;
    for (const OutEdge& e : facts.Out(z)) {
      pairs.push_back({PackPathKey(e.relation, x, e.tail), z});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const MediatedPair& a, const MediatedPair& b) {
              return a.key != b.key ? a.key < b.key : a.mediator < b.mediator;
            });
  // The first of each run of equal keys has the smallest mediator.
  auto kept_it = kept.begin();
  size_t out = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0 && pairs[i - 1].key == pairs[i].key) continue;
    kept_it = std::lower_bound(kept_it, kept.end(), pairs[i].key);
    if (kept_it != kept.end() && *kept_it == pairs[i].key) continue;
    pairs[out++] = pairs[i];
  }
  pairs.resize(out);
  return pairs;
}

// Distinct path body pairs per first body relation r1, each vector the
// ascending (r2, x, y) keys of r1's bodies (PackPathKey), within the global
// `budget`. The serial definition the result reproduces: walk mediators z
// ascending, add the pairs z newly mediates, and stop before the first
// mediator at which more than `budget` distinct pairs are already counted.
// A pair is thus kept iff its first (smallest) mediator comes before that
// stop. Mediators are walked in ascending blocks of at most `budget` raw
// combinations (at least one mediator each), so work and memory stay
// bounded by the budget plus one block; within a block every r1 joins in
// parallel into its own vector, and the distinct total after each block is
// exact.
std::vector<std::vector<uint64_t>> EnumeratePathPairs(
    const TripleStore& train, const FactIndex& facts, size_t budget,
    int threads) {
  const size_t num_relations = static_cast<size_t>(train.num_relations());
  const EntityId num_entities = train.num_entities();
  std::vector<std::vector<uint64_t>> kept(num_relations);
  std::vector<std::vector<MediatedPair>> fresh(num_relations);
  size_t kept_total = 0;
  for (EntityId lo = 0; lo < num_entities;) {
    EntityId hi = lo;
    size_t raw = 0;
    while (hi < num_entities) {
      const size_t combos = facts.combos[static_cast<size_t>(hi)];
      if (raw > 0 && raw + combos > budget) break;
      raw += combos;
      ++hi;
    }
    ParallelFor(num_relations, threads,
                [&](size_t begin, size_t end, int /*shard*/) {
      for (size_t r1 = begin; r1 < end; ++r1) {
        fresh[r1] = JoinBlock(train, facts, static_cast<RelationId>(r1), lo,
                              hi, kept[r1]);
      }
    });
    size_t block_total = 0;
    for (const auto& pairs : fresh) block_total += pairs.size();
    // Keep the pairs first mediated below `stop`. When the block can push
    // the total past the budget, replay its mediators in order: the walk
    // stops right after the mediator whose new pairs first exceed it.
    EntityId stop = hi;
    if (kept_total + block_total > budget) {
      std::vector<size_t> first_mediated(static_cast<size_t>(hi - lo), 0);
      for (const auto& pairs : fresh) {
        for (const MediatedPair& p : pairs) {
          ++first_mediated[static_cast<size_t>(p.mediator - lo)];
        }
      }
      size_t total = kept_total;
      for (EntityId z = lo; z < hi; ++z) {
        total += first_mediated[static_cast<size_t>(z - lo)];
        if (total > budget) {
          stop = z + 1;
          break;
        }
      }
    }
    ParallelFor(num_relations, threads,
                [&](size_t begin, size_t end, int /*shard*/) {
      for (size_t r1 = begin; r1 < end; ++r1) {
        std::vector<uint64_t> added;
        added.reserve(fresh[r1].size());
        for (const MediatedPair& p : fresh[r1]) {
          if (p.mediator < stop) added.push_back(p.key);
        }
        fresh[r1] = {};
        if (kept[r1].empty()) {
          kept[r1] = std::move(added);
        } else {
          std::vector<uint64_t> merged(kept[r1].size() + added.size());
          std::merge(kept[r1].begin(), kept[r1].end(), added.begin(),
                     added.end(), merged.begin());
          kept[r1] = std::move(merged);
        }
      }
    });
    kept_total = 0;
    for (const auto& pairs : kept) kept_total += pairs.size();
    if (kept_total > budget) break;
    lo = hi;
  }
  return kept;
}

}  // namespace

std::vector<Rule> MineRules(const TripleStore& train,
                            const AmieOptions& options) {
  DeadlinePhase deadline_phase("mine");
  obs::TraceSpan span("mine_rules");
  span.AddArgInt("relations", train.num_relations());
  span.AddArgInt("triples", static_cast<long long>(train.size()));
  const int32_t num_relations = train.num_relations();
  const FactIndex facts = BuildFactIndex(train);

  // --- Unary rules: r1(x,y) => rh(x,y) and r1(y,x) => rh(x,y). ------------
  // For each body relation count how many of its pairs (or reversed pairs)
  // carry each other relation. Body relations are statically sharded across
  // threads; each shard emits candidates into its own vector and the shards
  // concatenate in order.
  const size_t num_bodies =
      num_relations > 0 ? static_cast<size_t>(num_relations) : size_t{0};
  std::vector<std::vector<RuleCandidate>> unary_local(static_cast<size_t>(
      std::max(PlannedShards(num_bodies, options.threads), 1)));
  ParallelFor(num_bodies, options.threads,
              [&](size_t begin, size_t end, int shard) {
    std::vector<RuleCandidate>& out = unary_local[static_cast<size_t>(shard)];
    HeadSupport same_support(num_bodies);
    HeadSupport inverse_support(num_bodies);
    for (size_t b = begin; b < end; ++b) {
      const RelationId body = static_cast<RelationId>(b);
      const PairSetView body_pairs = train.Pairs(body);
      if (body_pairs.size() < options.min_support) continue;
      for (uint64_t key : body_pairs) {
        const auto [x, y] = UnpackPair(key);
        same_support.Add(facts.Between(x, y));
        inverse_support.Add(facts.Between(y, x));
      }
      auto emit = [&](RuleBodyKind kind, RelationId head, size_t support) {
        if (kind == RuleBodyKind::kSame && head == body) return;  // tautology
        if (support < options.min_support) return;
        RuleCandidate candidate;
        candidate.rule.kind = kind;
        candidate.rule.body1 = body;
        candidate.rule.head = head;
        candidate.rule.support = support;
        candidate.rule.body_size = body_pairs.size();
        candidate.body_pairs = body_pairs;
        out.push_back(candidate);
      };
      same_support.Drain([&](RelationId head, size_t support) {
        emit(RuleBodyKind::kSame, head, support);
      });
      inverse_support.Drain([&](RelationId head, size_t support) {
        emit(RuleBodyKind::kInverse, head, support);
      });
    }
  });
  std::vector<RuleCandidate> candidates;
  for (std::vector<RuleCandidate>& local : unary_local) {
    candidates.insert(candidates.end(), local.begin(), local.end());
  }
  // Candidate rounds are the miner's deadline boundaries: a timeout lands
  // between rounds, never inside a sharded sweep. Rules are mined from the
  // training split alone, so a retry simply re-mines.
  PhaseBoundary("mine_unary_candidates");

  // --- Path rules: r1(x,z) ^ r2(z,y) => rh(x,y). --------------------------
  // Each r1's vector holds its bodies (r1, r2) as consecutive runs of equal
  // r2. Rewriting a run's keys to PackPair(x, y) in place makes it the
  // body's sorted pair array; its per-head support is counted in the same
  // pass, so each r1 is independent and the bodies shard over r1.
  std::vector<std::vector<uint64_t>> path_pairs = EnumeratePathPairs(
      train, facts, options.max_path_pairs, options.threads);
  size_t path_pair_count = 0;
  for (const auto& pairs : path_pairs) path_pair_count += pairs.size();
  std::vector<std::vector<RuleCandidate>> path_local(path_pairs.size());
  ParallelFor(path_pairs.size(), options.threads,
              [&](size_t begin, size_t end, int /*shard*/) {
    HeadSupport support(num_bodies);
    for (size_t r1 = begin; r1 < end; ++r1) {
      std::vector<uint64_t>& pairs = path_pairs[r1];
      for (size_t i = 0; i < pairs.size();) {
        const RelationId r2 = static_cast<RelationId>(pairs[i] >> kPathR2Shift);
        size_t j = i;
        for (; j < pairs.size() &&
               static_cast<RelationId>(pairs[j] >> kPathR2Shift) == r2;
             ++j) {
          const EntityId x = static_cast<EntityId>(
              (pairs[j] >> kPackedEntityBits) & kEntityMask);
          const EntityId y = static_cast<EntityId>(pairs[j] & kEntityMask);
          pairs[j] = PackPair(x, y);
          support.Add(facts.Between(x, y));
        }
        const PairSetView body_pairs = PairSetView::FromKeys(
            std::span<const uint64_t>(pairs.data() + i, j - i));
        support.Drain([&](RelationId head, size_t head_support) {
          if (head_support < options.min_support) return;
          RuleCandidate candidate;
          candidate.rule.kind = RuleBodyKind::kPath;
          candidate.rule.body1 = static_cast<RelationId>(r1);
          candidate.rule.body2 = r2;
          candidate.rule.head = head;
          candidate.rule.support = head_support;
          candidate.rule.body_size = body_pairs.size();
          candidate.body_pairs = body_pairs;
          path_local[r1].push_back(candidate);
        });
        i = j;
      }
    }
  });
  for (std::vector<RuleCandidate>& local : path_local) {
    candidates.insert(candidates.end(), local.begin(), local.end());
  }

  PhaseBoundary("mine_path_candidates");

  // --- Support/confidence evaluation, sharded over candidates. ------------
  // The PCA denominator — body pairs whose x has some head-relation fact —
  // is the dominant cost and is independent per candidate. Each candidate
  // evaluates into its own slot; surviving rules compact in candidate order.
  std::vector<Rule> finalized(candidates.size());
  std::vector<uint8_t> survived(candidates.size(), 0);
  ParallelFor(candidates.size(), options.threads,
              [&](size_t begin, size_t end, int /*shard*/) {
    for (size_t i = begin; i < end; ++i) {
      const RuleCandidate& candidate = candidates[i];
      const EntitySetView head_subjects = train.Subjects(candidate.rule.head);
      size_t pca_body = 0;
      for (uint64_t key : candidate.body_pairs) {
        const auto [bx, by] = UnpackPair(key);
        const EntityId x =
            candidate.rule.kind == RuleBodyKind::kInverse ? by : bx;
        if (head_subjects.contains(x)) ++pca_body;
      }
      Rule rule = candidate.rule;
      if (FinalizeRule(train, options, pca_body, rule)) {
        finalized[i] = rule;
        survived[i] = 1;
      }
    }
  });
  std::vector<Rule> rules;
  for (size_t i = 0; i < finalized.size(); ++i) {
    if (survived[i]) rules.push_back(finalized[i]);
  }
  // Counted after the sharded evaluation so every total is shard-plan
  // independent.
  static obs::Counter& candidates_counter =
      obs::Registry::Get().GetCounter(obs::kAmieCandidates);
  static obs::Counter& kept_counter =
      obs::Registry::Get().GetCounter(obs::kAmieRulesKept);
  static obs::Counter& path_pairs_counter =
      obs::Registry::Get().GetCounter(obs::kAmiePathPairs);
  candidates_counter.Add(candidates.size());
  kept_counter.Add(rules.size());
  path_pairs_counter.Add(path_pair_count);

  // A total order: confidence and support descending, then the rule's
  // identity (kind, body1, body2, head) ascending, which no two rules share.
  std::sort(rules.begin(), rules.end(), [&](const Rule& a, const Rule& b) {
    const double ca = options.use_pca_confidence ? a.pca_confidence
                                                 : a.std_confidence;
    const double cb = options.use_pca_confidence ? b.pca_confidence
                                                 : b.std_confidence;
    if (ca != cb) return ca > cb;
    if (a.support != b.support) return a.support > b.support;
    return std::tie(a.kind, a.body1, a.body2, a.head) <
           std::tie(b.kind, b.body1, b.body2, b.head);
  });
  return rules;
}

RulePredictor::RulePredictor(std::vector<Rule> rules,
                             const TripleStore& train,
                             const AmieOptions& options)
    : rules_(std::move(rules)),
      train_(train),
      options_(options),
      by_head_(static_cast<size_t>(train.num_relations())) {
  for (const Rule& rule : rules_) {
    KGC_CHECK_GE(rule.head, 0);
    KGC_CHECK_LT(rule.head, train.num_relations());
    by_head_[static_cast<size_t>(rule.head)].push_back(&rule);
  }
  for (auto& bucket : by_head_) {
    std::sort(bucket.begin(), bucket.end(),
              [this](const Rule* a, const Rule* b) {
                return Confidence(*a) > Confidence(*b);
              });
  }
}

const std::vector<const Rule*>& RulePredictor::RulesForHead(
    RelationId r) const {
  static const std::vector<const Rule*>* empty =
      new std::vector<const Rule*>();
  if (r < 0 || static_cast<size_t>(r) >= by_head_.size()) return *empty;
  return by_head_[static_cast<size_t>(r)];
}

void RulePredictor::ScoreTails(EntityId h, RelationId r,
                               std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  std::vector<float> best(out.size(), 0.0f);
  std::vector<int> count(out.size(), 0);
  auto credit = [&](EntityId y, double confidence) {
    const size_t k = static_cast<size_t>(y);
    best[k] = std::max(best[k], static_cast<float>(confidence));
    count[k] = std::min(count[k] + 1, 1000);
  };
  for (const Rule* rule : RulesForHead(r)) {
    const double confidence = Confidence(*rule);
    switch (rule->kind) {
      case RuleBodyKind::kSame:
        for (EntityId y : train_.Tails(h, rule->body1)) credit(y, confidence);
        break;
      case RuleBodyKind::kInverse:
        for (EntityId y : train_.Heads(rule->body1, h)) credit(y, confidence);
        break;
      case RuleBodyKind::kPath:
        for (EntityId z : train_.Tails(h, rule->body1)) {
          for (EntityId y : train_.Tails(z, rule->body2)) {
            credit(y, confidence);
          }
        }
        break;
    }
  }
  for (size_t k = 0; k < out.size(); ++k) {
    // Max confidence, ties broken by the number of generating rules.
    out[k] = best[k] + static_cast<float>(count[k]) * 1e-6f;
  }
}

void RulePredictor::ScoreHeads(RelationId r, EntityId t,
                               std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  std::vector<float> best(out.size(), 0.0f);
  std::vector<int> count(out.size(), 0);
  auto credit = [&](EntityId x, double confidence) {
    const size_t k = static_cast<size_t>(x);
    best[k] = std::max(best[k], static_cast<float>(confidence));
    count[k] = std::min(count[k] + 1, 1000);
  };
  for (const Rule* rule : RulesForHead(r)) {
    const double confidence = Confidence(*rule);
    switch (rule->kind) {
      case RuleBodyKind::kSame:
        for (EntityId x : train_.Heads(rule->body1, t)) credit(x, confidence);
        break;
      case RuleBodyKind::kInverse:
        for (EntityId x : train_.Tails(t, rule->body1)) credit(x, confidence);
        break;
      case RuleBodyKind::kPath:
        for (EntityId z : train_.Heads(rule->body2, t)) {
          for (EntityId x : train_.Heads(rule->body1, z)) {
            credit(x, confidence);
          }
        }
        break;
    }
  }
  for (size_t k = 0; k < out.size(); ++k) {
    out[k] = best[k] + static_cast<float>(count[k]) * 1e-6f;
  }
}

}  // namespace kgc
