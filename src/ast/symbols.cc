#include "ast/symbols.h"

#include <functional>

#include "common/hash.h"
#include "common/strings.h"

namespace chainsplit {

size_t PredicateTable::KeyHash::operator()(const Key& k) const {
  size_t seed = std::hash<std::string_view>()(k.name);
  HashCombine(&seed, static_cast<size_t>(k.arity));
  return seed;
}

PredId PredicateTable::Intern(std::string_view name, int arity) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto it = index_.find(Key{name, arity});
  if (it != index_.end()) return it->second;
  PredId id = static_cast<PredId>(entries_.size());
  entries_.push_back(Entry{std::string(name), arity});
  index_.emplace(Key{entries_[id].name, arity}, id);
  return id;
}

std::optional<PredId> PredicateTable::Find(std::string_view name,
                                           int arity) const {
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto it = index_.find(Key{name, arity});
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::string PredicateTable::Display(PredId p) const {
  return StrCat(entries_[p].name, "/", entries_[p].arity);
}

}  // namespace chainsplit
