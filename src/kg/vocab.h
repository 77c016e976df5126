// Entity / relation symbol tables.

#ifndef KGC_KG_VOCAB_H_
#define KGC_KG_VOCAB_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kg/triple.h"

namespace kgc {

/// Bidirectional string<->id mapping for one symbol kind.
class SymbolTable {
 public:
  /// Returns the id for `name`, interning it if new.
  int32_t Intern(std::string_view name);

  /// Returns the name for `id`. id must be valid.
  const std::string& Name(int32_t id) const;

  int32_t size() const { return static_cast<int32_t>(names_.size()); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, int32_t> ids_;
};

/// Symbol tables for entities and relations of one knowledge graph.
class Vocab {
 public:
  EntityId InternEntity(std::string_view name) {
    return entities_.Intern(name);
  }
  RelationId InternRelation(std::string_view name) {
    return relations_.Intern(name);
  }

  const std::string& EntityName(EntityId id) const {
    return entities_.Name(id);
  }
  const std::string& RelationName(RelationId id) const {
    return relations_.Name(id);
  }

  int32_t num_entities() const { return entities_.size(); }
  int32_t num_relations() const { return relations_.size(); }

 private:
  SymbolTable entities_;
  SymbolTable relations_;
};

}  // namespace kgc

#endif  // KGC_KG_VOCAB_H_
