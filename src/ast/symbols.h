#ifndef CHAINSPLIT_AST_SYMBOLS_H_
#define CHAINSPLIT_AST_SYMBOLS_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/chunked_vector.h"

namespace chainsplit {

/// Handle to a predicate (name/arity pair) interned in a PredicateTable.
using PredId = int32_t;

inline constexpr PredId kNullPred = -1;

/// Interning table for predicate symbols. Predicates are identified by
/// name *and* arity (`p/2` and `p/3` are distinct predicates).
///
/// Thread-safety: Intern and Find are serialized by an internal mutex;
/// the entry arena is append-only, so name()/arity()/Display() on an
/// already-obtained PredId are lock-free and safe concurrently with
/// interning.
class PredicateTable {
 public:
  PredicateTable() = default;
  PredicateTable(const PredicateTable&) = delete;
  PredicateTable& operator=(const PredicateTable&) = delete;

  /// Interns `name/arity`, returning its id.
  PredId Intern(std::string_view name, int arity);

  /// Looks up `name/arity`; nullopt if never interned.
  std::optional<PredId> Find(std::string_view name, int arity) const;

  const std::string& name(PredId p) const { return entries_[p].name; }
  int arity(PredId p) const { return entries_[p].arity; }

  /// "name/arity" display form.
  std::string Display(PredId p) const;

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }

 private:
  struct Entry {
    std::string name;
    int arity;
  };

  // `name` views an Entry's name: the arena never moves an entry, so
  // the view stays valid and a lookup builds no key string.
  struct Key {
    std::string_view name;
    int arity;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  ChunkedVector<Entry> entries_;
  std::unordered_map<Key, PredId, KeyHash> index_;
  mutable std::mutex intern_mu_;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_AST_SYMBOLS_H_
