#include "rules/amie.h"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

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

// A unary rule whose support has been counted but whose PCA denominator — a
// sweep over its body pairs — is still pending. `body_pairs` views the
// TripleStore's CSR arrays, valid for the whole mining run.
struct RuleCandidate {
  Rule rule;
  PairSetView body_pairs;
};

// Mediators z with more in × out combinations than this are hubs whose
// paths are not enumerated.
constexpr size_t kMaxCombosPerEntity = 20'000;

// One path body pair r1(x, z) ^ r2(z, y) of a fixed r1 is packed as
// (r2, x, y), so that ascending order groups the pairs by r2 and sorts each
// group in PackPair(x, y) order.
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

// Calls f(key, z) for every raw path of r1 through a mediator z below
// `stop`: r1's distinct (x, z) pairs joined with z's out-edges, each
// packed as PackPathKey(r2, x, y).
template <typename F>
void ForEachPath(const TripleStore& train, const FactIndex& facts,
                 RelationId r1, EntityId stop, F f) {
  for (uint64_t xz : train.Pairs(r1)) {
    const auto [x, z] = UnpackPair(xz);
    if (z >= stop || facts.combos[static_cast<size_t>(z)] == 0) continue;
    for (const OutEdge& e : facts.Out(z)) {
      f(PackPathKey(e.relation, x, e.tail), z);
    }
  }
}

// r1's path keys through mediators below `stop`, each once, ascending.
std::vector<uint64_t> JoinPaths(const TripleStore& train,
                                const FactIndex& facts, RelationId r1,
                                EntityId stop) {
  std::vector<uint64_t> keys;
  ForEachPath(train, facts, r1, stop,
              [&](uint64_t key, EntityId) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// The mediator before which the global `budget` on distinct path body
// pairs stops the walk. The serial definition: walk mediators z ascending,
// add the pairs z first mediates (z is their smallest mediator), and stop
// right after the mediator whose pairs first take the total over the
// budget; a pair is kept iff its smallest mediator lies below the returned
// stop. The distinct pairs never outnumber the raw in x out combinations,
// so when those fit no cut can happen and no pair is joined here.
// Otherwise each r1 joins once more to count each of its pairs at its
// smallest mediator, and the counts sum over r1.
EntityId PathStop(const TripleStore& train, const FactIndex& facts,
                  size_t budget, int threads) {
  const EntityId num_entities = train.num_entities();
  size_t raw = 0;
  for (const size_t combos : facts.combos) raw += combos;
  if (raw <= budget) return num_entities;
  const size_t num_relations = static_cast<size_t>(train.num_relations());
  std::vector<std::vector<size_t>> shard_counts(static_cast<size_t>(
      std::max(PlannedShards(num_relations, threads), 1)));
  ParallelFor(num_relations, threads,
              [&](size_t begin, size_t end, int shard) {
    std::vector<size_t>& counts = shard_counts[static_cast<size_t>(shard)];
    counts.assign(static_cast<size_t>(num_entities), 0);
    std::vector<std::pair<uint64_t, EntityId>> paths;
    for (size_t r1 = begin; r1 < end; ++r1) {
      paths.clear();
      ForEachPath(
          train, facts, static_cast<RelationId>(r1), num_entities,
          [&](uint64_t key, EntityId z) { paths.emplace_back(key, z); });
      // By key, then mediator: the first of each key's run is its smallest.
      std::sort(paths.begin(), paths.end());
      for (size_t i = 0; i < paths.size(); ++i) {
        if (i == 0 || paths[i - 1].first != paths[i].first) {
          ++counts[static_cast<size_t>(paths[i].second)];
        }
      }
    }
  });
  size_t total = 0;
  for (EntityId z = 0; z < num_entities; ++z) {
    for (const std::vector<size_t>& counts : shard_counts) {
      if (!counts.empty()) total += counts[static_cast<size_t>(z)];
    }
    if (total > budget) return z + 1;
  }
  return num_entities;
}

// The PCA denominator of a rule over its body pairs: the pairs whose
// subject x has some head-relation fact.
size_t PcaBody(const TripleStore& train, const Rule& rule,
               const PairSetView& body_pairs) {
  const EntitySetView head_subjects = train.Subjects(rule.head);
  size_t pca_body = 0;
  for (uint64_t key : body_pairs) {
    const auto [bx, by] = UnpackPair(key);
    const EntityId x = rule.kind == RuleBodyKind::kInverse ? by : bx;
    if (head_subjects.contains(x)) ++pca_body;
  }
  return pca_body;
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

  // --- Unary support/confidence evaluation, sharded over candidates. ------
  // The PCA denominator — body pairs whose x has some head-relation fact —
  // is the dominant cost and is independent per candidate. Each candidate
  // evaluates into its own slot; surviving rules compact in candidate order.
  std::vector<Rule> finalized(candidates.size());
  std::vector<uint8_t> survived(candidates.size(), 0);
  ParallelFor(candidates.size(), options.threads,
              [&](size_t begin, size_t end, int /*shard*/) {
    for (size_t i = begin; i < end; ++i) {
      const RuleCandidate& candidate = candidates[i];
      Rule rule = candidate.rule;
      if (FinalizeRule(train, options,
                       PcaBody(train, rule, candidate.body_pairs), rule)) {
        finalized[i] = rule;
        survived[i] = 1;
      }
    }
  });
  std::vector<Rule> rules;
  for (size_t i = 0; i < finalized.size(); ++i) {
    if (survived[i]) rules.push_back(finalized[i]);
  }

  // --- Path rules: r1(x,z) ^ r2(z,y) => rh(x,y). --------------------------
  // Each r1 works in a shard of its own and then frees its pairs: it joins
  // them (below the budget's stop mediator), keeps each once, and takes
  // its bodies (r1, r2) as the runs of equal r2. Rewriting a run's keys to
  // PackPair(x, y) in place makes it the body's sorted pair array; its
  // per-head support is counted in the same pass, and each candidate's PCA
  // denominator is swept and the rule finalized while the run is held.
  const EntityId stop =
      PathStop(train, facts, options.max_path_pairs, options.threads);
  std::vector<std::vector<Rule>> path_rules(num_bodies);
  std::vector<size_t> path_pairs(num_bodies, 0);
  std::vector<size_t> path_candidates(num_bodies, 0);
  ParallelFor(num_bodies, options.threads,
              [&](size_t begin, size_t end, int /*shard*/) {
    HeadSupport support(num_bodies);
    for (size_t r1 = begin; r1 < end; ++r1) {
      std::vector<uint64_t> pairs =
          JoinPaths(train, facts, static_cast<RelationId>(r1), stop);
      path_pairs[r1] = pairs.size();
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
          ++path_candidates[r1];
          Rule rule;
          rule.kind = RuleBodyKind::kPath;
          rule.body1 = static_cast<RelationId>(r1);
          rule.body2 = r2;
          rule.head = head;
          rule.support = head_support;
          rule.body_size = body_pairs.size();
          if (FinalizeRule(train, options, PcaBody(train, rule, body_pairs),
                           rule)) {
            path_rules[r1].push_back(rule);
          }
        });
        i = j;
      }
    }
  });
  size_t candidate_count = candidates.size();
  size_t path_pair_count = 0;
  for (size_t r1 = 0; r1 < num_bodies; ++r1) {
    rules.insert(rules.end(), path_rules[r1].begin(), path_rules[r1].end());
    candidate_count += path_candidates[r1];
    path_pair_count += path_pairs[r1];
  }
  PhaseBoundary("mine_path_candidates");

  // Counted after the sharded evaluation so every total is shard-plan
  // independent.
  static obs::Counter& candidates_counter =
      obs::Registry::Get().GetCounter(obs::kAmieCandidates);
  static obs::Counter& kept_counter =
      obs::Registry::Get().GetCounter(obs::kAmieRulesKept);
  static obs::Counter& path_pairs_counter =
      obs::Registry::Get().GetCounter(obs::kAmiePathPairs);
  candidates_counter.Add(candidate_count);
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
