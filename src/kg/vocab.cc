#include "kg/vocab.h"

#include "util/check.h"

namespace kgc {

int32_t SymbolTable::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

const std::string& SymbolTable::Name(int32_t id) const {
  KGC_CHECK_GE(id, 0);
  KGC_CHECK_LT(static_cast<size_t>(id), names_.size());
  return names_[static_cast<size_t>(id)];
}

}  // namespace kgc
